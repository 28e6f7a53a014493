"""Shared generators and oracles for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from ddsolve import blockmat, factor, mesh, subdomain

# (side in wavelengths, points per wavelength, tiles per side) of the three
# benchmark workloads, and one staircase tiling whose tiles do not divide the
# grid (39 intervals over 7 tiles).
GEOMETRIES = {
    "subdomain-bound": (1.0, 22, 2),
    "interface-bound": (2.4, 10, 12),
    "angle-sweep": (2.0, 10, 4),
    "staircase-7x7": (3.0, 13, 7),
}


def interfaces(part: mesh.Partition) -> list[SimpleNamespace]:
    """Interface ``i`` of a partition as ``(dom_lo, dom_hi, nodes)``: its
    row of ``ends`` and its slice of ``chain_nodes``."""
    cut = part.chain_start.tolist()
    return [SimpleNamespace(dom_lo=lo, dom_hi=hi, nodes=part.chain_nodes[cut[i]:cut[i + 1]])
            for i, (lo, hi) in enumerate(part.ends.tolist())]


def add_block(K: blockmat.BlockSparseSym, i: int, j: int, block) -> None:
    """Add ``block`` to block ``(i, j)`` of ``K``: a copy when the block is
    new, a sum otherwise.  No validation beyond the block's key and shape."""
    block = K._checked(i, j, block)
    K.blocks[(i, j)] = K.blocks[(i, j)] + block if (i, j) in K.blocks else block.copy()


def graph(n: int, edges=()) -> list[set[int]]:
    """Adjacency list, as ``blockmat.clique_graph`` returns it, of ``n``
    vertices joined by the undirected ``edges``."""
    g: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        g[i].add(j)
        g[j].add(i)
    return g


def graph_edges(g: list[set[int]]) -> list[tuple[int, int]]:
    """The edges of adjacency list ``g`` as sorted ``(lo, hi)`` pairs."""
    return sorted((j, i) for i in range(len(g)) for j in g[i] if j < i)


def fill_blocks(plan, g: list[set[int]]) -> list[tuple[int, int]]:
    """Pattern positions of ``plan`` that are fill, i.e. not edges of ``g``."""
    inv = plan.order.inverse()
    orig = set()
    for i in range(len(g)):
        for j in g[i]:
            a, b = int(inv[i]), int(inv[j])
            if a > b:
                orig.add((a, b))
    return sorted((int(i), j) for j, rows in enumerate(plan.pattern)
                  for i in rows if (int(i), j) not in orig)


def _in_band(n: int, kl: int):
    """Row and column indices of the entries of an n x n matrix within
    ``kl`` of the diagonal."""
    return np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kl)


def band_storage(A: np.ndarray) -> np.ndarray:
    """LAPACK band storage of a dense matrix, as ``SubdomainSystem.A`` holds
    A_d until the reduce: ``kl`` is the widest distance of a nonzero from
    the diagonal, and the Fortran-ordered ``(3 kl + 1) x n`` array has
    ``A[i, j]`` at ``[2 kl + i - j, j]``."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    i, j = np.nonzero(A)
    kl = int(np.abs(i - j).max()) if i.size else 0
    B = np.zeros((3 * kl + 1, n), dtype=np.complex128, order="F")
    i, j = _in_band(n, kl)
    B[2 * kl + i - j, j] = A[i, j]
    return B


def dense_matrix(s: subdomain.SubdomainSystem) -> np.ndarray:
    """Densify the band ``A`` of a subdomain system; entries outside the
    band are +0.0.  This is A_d only before :func:`subdomain.reduce_domain`,
    which factors ``A`` in place."""
    n, kl = s.n_dofs, s.kl
    A = np.zeros((n, n), dtype=np.complex128)
    i, j = _in_band(n, kl)
    A[i, j] = s.A[2 * kl + i - j, j]
    return A


def dense_coupling(s: subdomain.SubdomainSystem, c: subdomain.Coupling) -> np.ndarray:
    """A coupling block over all local dofs; rows outside the domain's
    interface rows are +0.0."""
    D = np.zeros((s.n_dofs, c.D.shape[1]), dtype=np.complex128)
    D[s.interface_rows] = c.D
    return D


def subdomain_system(domain, A, f, couplings=()):
    """A subdomain system from a dense matrix and dense coupling blocks
    ``(interface, D, sign)``: every row where some ``D`` is nonzero becomes
    an interface row, and the blocks' columns are multipliers 0, 1, ...
    in order."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    rows = np.flatnonzero(np.any([np.any(D != 0, axis=1) for _, D, _ in couplings]
                                 + [np.zeros(n, dtype=bool)], axis=0))
    blocks = [np.asarray(D, dtype=np.complex128)[rows] for _, D, _ in couplings]
    D = np.concatenate(blocks + [np.zeros((rows.size, 0), dtype=np.complex128)], axis=1)
    cut = np.cumsum([0] + [b.shape[1] for b in blocks])
    return subdomain.SubdomainSystem(
        domain, band_storage(A), np.asarray(f, dtype=np.complex128),
        np.arange(n), rows, D, np.arange(D.shape[1]),
        [subdomain.Coupling(i, D[:, cut[t]:cut[t + 1]], sign)
         for t, (i, _, sign) in enumerate(couplings)])


def rand_complex_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (G + G.T) / 2.0


def reconstruct_dense(fac: factor.DenseFactor) -> np.ndarray:
    """L D L^T of a dense factor (equals P M P^T when correct)."""
    return fac.L @ fac.dense_d() @ fac.L.T


def permuted(M: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return M[np.ix_(perm, perm)]


def rand_block_system(seed, max_blocks=8, max_size=8, density=0.4,
                      shift=None):
    """Random well-conditioned block-sparse symmetric system.

    Returns ``(K, S)`` where ``S`` is the dense scatter reference.  A
    diagonal shift keeps the condition number moderate so dense-vs-block
    comparisons are meaningful at 1e-11 tolerances.
    """
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, max_blocks + 1))
    sizes = rng.integers(1, max_size + 1, size=nb)
    n = int(sizes.sum())
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = (G + G.T) / 2.0
    if shift is None:
        shift = 2.0 * n
    S = S + shift * np.eye(n)
    off = np.zeros(nb + 1, dtype=int)
    np.cumsum(sizes, out=off[1:])
    keep = np.eye(nb, dtype=bool)
    for i in range(nb):
        for j in range(i):
            if rng.random() < density:
                keep[i, j] = keep[j, i] = True
    Sref = np.zeros_like(S)
    triples = []
    for i in range(nb):
        for j in range(nb):
            if keep[i, j]:
                Sref[off[i]:off[i + 1], off[j]:off[j + 1]] = \
                    S[off[i]:off[i + 1], off[j]:off[j + 1]]
                if i >= j:
                    triples.append((i, j, S[off[i]:off[i + 1], off[j]:off[j + 1]]))
    K = blockmat.from_blocks(sizes, triples)
    return K, Sref


def rand_clique_graph(rng, n, p) -> list[set[int]]:
    return graph(n, [(i, j) for i in range(n) for j in range(i) if rng.random() < p])


def scalar_permutation(sizes, perm) -> np.ndarray:
    """Scalar index permutation induced by a block permutation."""
    sizes = np.asarray(sizes)
    off = np.zeros(sizes.size + 1, dtype=int)
    np.cumsum(sizes, out=off[1:])
    if sizes.size == 0:
        return np.array([], dtype=int)
    return np.concatenate([np.arange(off[p], off[p + 1]) for p in perm])


def scatter_factor(F: factor.BlockFactor) -> tuple[np.ndarray, np.ndarray]:
    """Dense (L, D) of the permuted matrix, for verification.

    Returns block-lower L with diagonal blocks P_jj^T L_jj and the block
    diagonal D, satisfying K_perm = L D L^T.
    """
    off = blockmat.exclusive_cumsum(F.plan.sizes_perm)
    n = int(off[-1])
    L = np.zeros((n, n), dtype=np.complex128)
    D = np.zeros((n, n), dtype=np.complex128)
    for j, (Lp, rows) in enumerate(zip(F.panels, F.panel_rows)):
        fac = F.diag_factor(j)
        sj = slice(off[j], off[j + 1])
        L[off[j] + fac.perm, sj] = fac.L
        L[rows, sj] = Lp
        D[sj, sj] = fac.dense_d()
    return L, D


def factor_blocks(F: factor.BlockFactor) -> set[tuple[int, int]]:
    """Off-diagonal blocks ``(i, j)`` of the permuted matrix, either
    triangle, in which the dense L of :func:`scatter_factor` holds a
    nonzero entry."""
    sizes = F.plan.sizes_perm
    blk = np.repeat(np.arange(sizes.size), sizes)
    L, _ = scatter_factor(F)
    r, c = np.nonzero(L)
    return {(int(i), int(j)) for i, j in zip(blk[r], blk[c]) if i != j}


def assert_factor_in_pattern(F: factor.BlockFactor) -> None:
    """The factor holds exactly the rows its plan predicts: panel j has the
    scalar rows of the blocks of ``pattern[j]``, in order, and the dense L
    is zero outside the diagonal blocks and the pattern's blocks."""
    plan = F.plan
    sizes = plan.sizes_perm
    off = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    for j, (Lp, rows) in enumerate(zip(F.panels, F.panel_rows)):
        want = [r for i in plan.pattern[j].tolist() for r in range(off[i], off[i + 1])]
        assert rows.tolist() == want, f"panel {j} rows"
        assert Lp.shape == (len(want), int(sizes[j])), f"panel {j} shape"
    allowed = {(int(i), j) for j in range(plan.nblocks) for i in plan.pattern[j]}
    assert factor_blocks(F) <= allowed


@pytest.fixture(scope="session")
def warm_kernels():
    """Run one small factor and solve so timed tests measure steady state."""
    M = rand_complex_symmetric(8, 0) + 8 * np.eye(8)
    fac = factor.dense_ldlt_bk(M)
    fac.solve(np.ones((8, 2), dtype=complex))
    return True


@pytest.fixture(scope="session")
def reduced_systems():
    """Reduced interface system of each geometry in ``GEOMETRIES``."""
    out = {}
    for name, (side, ppw, tiles) in GEOMETRIES.items():
        cfg = mesh.ProblemConfig(side_lambda=side, ppw=ppw, px=tiles, py=tiles,
                                 theta_inc=0.3)
        m = mesh.build_rect_mesh(side, ppw)
        part = mesh.partition_mesh(m, tiles, tiles)
        systems = subdomain.build_subdomain_systems(m, part, cfg)
        out[name] = subdomain.assemble_reduced(
            [subdomain.reduce_domain(s) for s in systems], part)
    return out
