"""Block-wise sparse symmetric matrices over a supernode partition.

Only the lower block triangle is stored; the block at ``(i, j)`` with
``i > j`` implicitly defines the ``(j, i)`` block as its transpose.  Blocks
are dense complex arrays so the factorization downstream runs on level-3
kernels.
"""

from __future__ import annotations

import numpy as np

BLK_MAGIC = "D3M-BLK v1"

_DIAG_SYM_RTOL = 1e-14


class BlockMatrixError(Exception):
    """Construction or I/O problem with a block-sparse matrix."""


class BlockSparseSym:
    """Lower-triangle block storage with implicit transposed upper blocks.

    ``blocks`` maps ``(i, j)``, ``i >= j``, to an owned, C-ordered complex
    array, keyed in order of first insertion.  Block sizes must be
    non-negative integers; integer-valued floats are accepted.
    """

    def __init__(self, sizes):
        sizes = np.asarray(sizes)
        if sizes.ndim != 1:
            raise BlockMatrixError("block sizes must be a 1-D array")
        self.sizes = nonnegative_integers(sizes, "block size", BlockMatrixError)
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

    def add(self, i: int, j: int, block: np.ndarray) -> None:
        """Add the complex array ``block`` to block ``(i, j)``: a C-ordered
        copy when the block is new, an in-place sum otherwise, so duplicates
        sum in call order.  The key, the shape and the dtype are the caller's
        to check (:meth:`_checked`)."""
        stored = self.blocks.get((i, j))
        if stored is None:
            self.blocks[(i, j)] = block.copy()
        else:
            stored += block

    def items(self):
        """Stored blocks in deterministic (column, row) order."""
        for i, j in sorted(self.blocks, key=lambda ij: (ij[1], ij[0])):
            yield (i, j), self.blocks[(i, j)]

    def offsets(self) -> np.ndarray:
        return exclusive_cumsum(self.sizes)

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


def nonnegative_integers(values, what: str, error: type[Exception]) -> np.ndarray:
    """``values`` as int64 if every entry is a non-negative integer
    (integer-valued floats included); otherwise raises ``error`` naming the
    first entry that is not, ``what`` being the name of one entry."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise error(f"{what}s of dtype {values.dtype} are not numbers")
    whole = values >= 0
    if values.dtype.kind == "f":
        whole &= np.isfinite(values) & (values == np.floor(values))
    if not whole.all():
        i = int(np.argmin(whole))
        raise error(f"{what} {i} is {values[i]}; {what}s must be non-negative integers")
    return values.astype(np.int64)


def check_adjacency(g: list[set[int]], error: type[Exception]) -> None:
    """Raise ``error`` naming the vertex and the neighbor unless every
    neighbor in adjacency list ``g`` is an integer (numpy integers included)
    in range other than its vertex, listed at both ends of its edge."""
    n = len(g)
    for v, s in enumerate(g):
        for u in s:
            if not ((type(u) is int or isinstance(u, np.integer))
                    and 0 <= u < n and u != v):
                raise error(f"vertex {v} has neighbor {u!r}; neighbors must be "
                            f"integers in 0..{n - 1} other than the vertex")
            if v not in g[u]:
                raise error(f"vertex {v} has neighbor {u}, but vertex {u} "
                            f"does not list {v}")


def exclusive_cumsum(counts) -> np.ndarray:
    """``[0, c_0, c_0 + c_1, ..., sum(c)]`` as int64: where each run of
    ``counts`` starts, and the total."""
    counts = np.asarray(counts, dtype=np.int64)
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of 1-D ``a`` that differ from the one before,
    the first entry included: on a sorted ``a``, the first of each distinct
    value.  One slice comparison; ``np.unique`` would import ``numpy.ma`` on
    recent numpy."""
    mask = np.empty(a.size, dtype=bool)
    mask[:1] = True
    np.not_equal(a[1:], a[:-1], out=mask[1:])
    return mask


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


def from_blocks(sizes, block_list) -> BlockSparseSym:
    """Build a block matrix from ``(i, j, array)`` triples, each checked for
    its key and shape and then added (:meth:`BlockSparseSym.add`):
    duplicates sum in list order, keys in order of first appearance.  The
    diagonal blocks are then checked for symmetry."""
    K = BlockSparseSym(sizes)
    for i, j, blk in block_list:
        i, j = int(i), int(j)
        K.add(i, j, K._checked(i, j, blk))
    K.validate()
    return K


def clique_graph(K: BlockSparseSym) -> list[set[int]]:
    """The clique graph of ``K`` as an adjacency list: one vertex per
    supernode, an edge per stored off-diagonal block; entry ``i`` holds the
    neighbors of supernode ``i``."""
    g: list[set[int]] = [set() for _ in range(K.nblocks)]
    for (i, j) in K.blocks:
        if i != j:
            g[i].add(j)
            g[j].add(i)
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
