"""Block-wise sparse symmetric matrices over a supernode partition.

Only the lower block triangle is stored; the block at ``(i, j)`` with
``i > j`` implicitly defines the ``(j, i)`` block as its transpose.  Blocks
are dense complex arrays so the factorization downstream runs on level-3
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BLK_MAGIC = "D3M-BLK v1"

_DIAG_SYM_RTOL = 1e-14


class BlockMatrixError(Exception):
    """Construction or I/O problem with a block-sparse matrix."""


@dataclass
class CliqueGraph:
    """Undirected graph with one vertex per supernode and an edge for every
    stored off-diagonal block."""

    n: int
    adj: list[set[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.adj:
            self.adj = [set() for _ in range(self.n)]

    def add_edge(self, i: int, j: int) -> None:
        if i == j:
            return
        self.adj[i].add(j)
        self.adj[j].add(i)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((j, i) for i in range(self.n) for j in self.adj[i] if j < i)

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def copy(self) -> "CliqueGraph":
        return CliqueGraph(self.n, [set(s) for s in self.adj])


class BlockSparseSym:
    """Lower-triangle block storage with implicit transposed upper blocks."""

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if self.sizes.ndim != 1 or (self.sizes < 0).any():
            raise BlockMatrixError("block sizes must be a 1-D nonnegative array")
        self.blocks: dict[tuple[int, int], np.ndarray] = {}

    @property
    def nblocks(self) -> int:
        return int(self.sizes.size)

    @property
    def order(self) -> int:
        return int(self.sizes.sum())

    def _checked(self, i: int, j: int, block) -> np.ndarray:
        if not (0 <= j <= i < self.nblocks):
            raise BlockMatrixError(f"block index ({i}, {j}) outside lower triangle")
        block = np.asarray(block, dtype=np.complex128)
        want = (self.sizes[i], self.sizes[j])
        if block.shape != want:
            raise BlockMatrixError(
                f"block ({i}, {j}) has shape {block.shape}, expected {want}")
        return block

    def items(self):
        """Stored blocks in deterministic (column, row) order."""
        for i, j in sorted(self.blocks, key=lambda ij: (ij[1], ij[0])):
            yield (i, j), self.blocks[(i, j)]

    def offsets(self) -> np.ndarray:
        out = np.zeros(self.nblocks + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=out[1:])
        return out

    def scatter(self) -> np.ndarray:
        """Expand to a full dense symmetric matrix."""
        off = self.offsets()
        S = np.zeros((self.order, self.order), dtype=np.complex128)
        for (i, j), blk in self.blocks.items():
            S[off[i]:off[i + 1], off[j]:off[j + 1]] = blk
            if i != j:
                S[off[j]:off[j + 1], off[i]:off[i + 1]] = blk.T
        return S

    def validate(self) -> None:
        """Check the diagonal blocks for symmetry, batched over the blocks of
        each size; raises for the lowest-numbered asymmetric block.  A block
        with a non-finite entry is not checked."""
        by_size: dict[int, list[int]] = {}
        for i, n in enumerate(self.sizes.tolist()):
            if n and (i, i) in self.blocks:
                by_size.setdefault(n, []).append(i)
        bad = []
        for ids in by_size.values():
            D = np.stack([self.blocks[(i, i)] for i in ids])
            scale = np.abs(D).max(axis=(1, 2))
            with np.errstate(invalid="ignore"):     # inf - inf in a skipped block
                asym = np.abs(D - D.transpose(0, 2, 1)).max(axis=(1, 2))
            hit = np.flatnonzero((scale > 0.0) & (asym > _DIAG_SYM_RTOL * scale))
            if hit.size:
                bad.append((ids[hit[0]], asym[hit[0]]))
        if bad:
            i, asym = min(bad)
            raise BlockMatrixError(f"diagonal block {i} asymmetric: {asym:.3e}")


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``arange(c)`` for every ``c`` in ``counts``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if ends.size else 0) - np.repeat(ends - counts, counts)


def _ragged_blocks(n_rows: np.ndarray, n_cols: np.ndarray):
    """Block, row and column of every entry of a sequence of row-major
    ``n_rows[b] x n_cols[b]`` blocks."""
    size = n_rows * n_cols
    block = np.repeat(np.arange(size.size), size)
    row, col = np.divmod(ragged_arange(size), n_cols[block])
    return block, row, col


def from_block_entries(sizes, ij, values) -> BlockSparseSym:
    """Build a block matrix from the keys ``ij`` (one ``(i, j)`` row per
    block, lower triangle) and the blocks' row-major entries, concatenated
    in the same order; duplicates sum in list order.

    All blocks live in one buffer filled by one sequential ``np.add.at``.
    The buffer starts at ``-0.0``, which leaves the bits of the first term
    of every entry unchanged, so each block is its first term plus the later
    ones, as summing copies would give.  Stored blocks are views into the
    buffer, keyed in order of first appearance.
    """
    K = BlockSparseSym(sizes)
    ij = np.asarray(ij, dtype=np.int64).reshape(-1, 2)
    i, j = ij[:, 0], ij[:, 1]
    nb = K.nblocks
    bad = np.flatnonzero(~((0 <= j) & (j <= i) & (i < nb)))
    if bad.size:
        t = bad[0]
        raise BlockMatrixError(
            f"block index ({int(i[t])}, {int(j[t])}) outside lower triangle")
    count = K.sizes[i] * K.sizes[j]
    if values.size != count.sum():
        raise BlockMatrixError(f"{values.size} block entries given, "
                               f"the keys need {int(count.sum())}")
    _, first, which = np.unique(i * nb + j, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    keys = ij[first[by_first]]
    off = np.zeros(keys.shape[0] + 1, dtype=np.int64)
    np.cumsum(count[first[by_first]], out=off[1:])
    buf = np.full(int(off[-1]), complex(-0.0, -0.0))
    np.add.at(buf, np.repeat(off[rank[which]], count) + ragged_arange(count), values)
    K.blocks = {(a, b): buf[o:o1].reshape(shape) for (a, b), shape, o, o1 in zip(
        keys.tolist(), K.sizes[keys].tolist(), off[:-1].tolist(), off[1:].tolist())}
    return K


def from_blocks(sizes, block_list) -> BlockSparseSym:
    """Build a block matrix from ``(i, j, array)`` triples; duplicates sum."""
    K = BlockSparseSym(sizes)
    keys = []
    values = []
    for i, j, blk in block_list:
        keys.append((int(i), int(j)))
        values.append(K._checked(int(i), int(j), blk).reshape(-1))
    K = from_block_entries(K.sizes, keys, np.concatenate(values) if values
                           else np.zeros(0, dtype=np.complex128))
    K.validate()
    return K


def clique_graph(K: BlockSparseSym) -> CliqueGraph:
    """One vertex per supernode, an edge per stored off-diagonal block."""
    g = CliqueGraph(K.nblocks)
    for (i, j) in K.blocks:
        if i != j:
            g.add_edge(i, j)
    return g


def save_blk(path, K: BlockSparseSym) -> None:
    """Write the "D3M-BLK v1" text dump: a magic line, a header line with the
    block count and sizes, then per stored lower-triangle block its indices
    and row-major re/im interleaved entries."""
    with open(path, "w") as fh:
        fh.write(BLK_MAGIC + "\n")
        fh.write(" ".join([str(K.nblocks)] + [str(int(s)) for s in K.sizes]) + "\n")
        for (i, j), blk in K.items():
            fh.write(f"{i} {j}\n")
            for row in blk:
                parts = []
                for z in row:
                    parts.append("%.17g" % z.real)
                    parts.append("%.17g" % z.imag)
                fh.write(" ".join(parts) + "\n")


def load_blk(path) -> BlockSparseSym:
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != BLK_MAGIC:
            raise BlockMatrixError(f"bad magic line {magic!r}, expected {BLK_MAGIC!r}")
        header = fh.readline().split()
        if not header:
            raise BlockMatrixError("missing header line")
        try:
            nb, *sizes = (int(s) for s in header)
        except ValueError as err:
            raise BlockMatrixError(f"bad header line {' '.join(header)!r}") from err
        if len(sizes) != nb:
            raise BlockMatrixError("header size list does not match block count")
        tokens = fh.read().split()
    sizes = BlockSparseSym(sizes).sizes
    triples = []
    pos = 0
    while pos < len(tokens):
        head = tokens[pos:pos + 2]
        try:
            i, j = (int(t) for t in head)
        except ValueError as err:
            raise BlockMatrixError(f"bad block index pair {' '.join(head)!r}") from err
        if not (0 <= j <= i < nb):
            raise BlockMatrixError(f"block index ({i}, {j}) outside lower triangle")
        pos += 2
        ni, nj = int(sizes[i]), int(sizes[j])
        count = 2 * ni * nj
        try:
            vals = np.array([float(t) for t in tokens[pos:pos + count]])
        except ValueError as err:
            raise BlockMatrixError(f"block ({i}, {j}): {err}") from err
        if vals.size != count:
            raise BlockMatrixError(f"truncated data for block ({i}, {j})")
        pos += count
        # Each (re, im) pair read as one complex number: re + 1j * im would
        # turn a -0.0 part into +0.0.
        triples.append((i, j, vals.view(np.complex128).reshape(ni, nj)))
    return from_blocks(sizes, triples)
