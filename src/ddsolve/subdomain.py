"""Per-subdomain systems, interface multipliers, and the reduced system.

Each subdomain gets a sparse complex-symmetric matrix

    A_d = S_d - k^2 eps_r M_d - jk B_d(outer) + s * alpha * M_interface

with ``s = +1`` on the lower-indexed side of every incident interface and
``-1`` on the higher-indexed side, a coupling block ``D = s * M_interface``
into the single multiplier set of that interface, and the restriction of the
incident-wave load.  Under the mesh's natural numbering A_d of a tile is
banded, with a lower and upper bandwidth ``kl`` of about one tile row of
nodes, so it is built and factored in LAPACK band storage (``zgbtrf``); no
dense n_d x n_d array is formed.  Eliminating the subdomain unknowns yields
the reduced block system ``K lambda = g`` with one supernode per interface.

Multiplier space: one dof per interface chain node, except that at nodes
where several interfaces meet, the interfaces whose domain pair closes a
cycle in the local domain-connectivity graph drop their dof at that node.
Keeping all duplicates there would give the stacked trace constraints a
one-dimensional redundancy per cross node and make K exactly singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .blockmat import BlockSparseSym, _ragged_blocks, from_block_entries, ragged_arange
from .factor import DEFAULT_PIVOT_TOL, blas_matmul
from .mesh import Mesh, Partition, ProblemConfig, assemble_helmholtz, \
    boundary_load, edge_lengths, edge_mass, element_matrices


class SingularDomainError(Exception):
    pass


class SolverStateError(Exception):
    pass


@dataclass
class Coupling:
    interface: int
    D: np.ndarray          # domain's interface rows x kept multiplier dofs
    sign: int


@dataclass
class LUFactor:
    """LAPACK band LU factors ``P A = L U`` of a subdomain matrix
    (``zgbtrf``, partial pivoting), in the band layout of ``zgbtrf``: U has
    ``2 kl`` superdiagonals and its diagonal is row ``2 kl``."""

    lu: np.ndarray
    piv: np.ndarray

    @property
    def kl(self) -> int:
        return (self.lu.shape[0] - 1) // 3

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve A X = B (``zgbtrs``); accepts a vector or a multi-column RHS."""
        X, _ = zgbtrs(self.lu, self.kl, self.kl, B, self.piv)
        return X


@dataclass
class SubdomainSystem:
    """``A`` is A_d in LAPACK band storage with ``kl`` sub- and ``kl``
    superdiagonals and room for the LU's fill: a Fortran-ordered
    ``(3 kl + 1) x n_dofs`` array whose entry ``[2 kl + i - j, j]`` is
    ``A_d[i, j]`` for ``|i - j| <= kl``; its first ``kl`` rows are zero.
    Every coupling block is zero outside the rows ``interface_rows`` and
    stores only those rows."""

    domain: int
    A: np.ndarray
    f: np.ndarray
    dof_map: np.ndarray    # local -> global node index
    interface_rows: np.ndarray   # sorted local dofs of the interface chain nodes
    couplings: list[Coupling] = field(default_factory=list)
    factor: LUFactor | None = None

    @property
    def n_dofs(self) -> int:
        return int(self.dof_map.size)

    @property
    def kl(self) -> int:
        return (self.A.shape[0] - 1) // 3


@dataclass
class ReducedSystem:
    K: BlockSparseSym
    g: list[np.ndarray]
    interface_sizes: np.ndarray
    lam: list[np.ndarray] | None = None

    @property
    def n_lambda(self) -> int:
        return int(self.interface_sizes.sum())


def interface_lambda_nodes(part: Partition) -> list[np.ndarray]:
    """Kept multiplier nodes per interface, in chain order (see
    :attr:`Partition.chains` for which cross-point duplicates are dropped)."""
    ch = part.chains
    nodes = ch.nodes[ch.kept]
    cut = [0] + np.cumsum(ch.n_kept).tolist()
    return [nodes[cut[i]:cut[i + 1]] for i in range(ch.n_kept.size)]


def _chain_mass(mesh: Mesh, nodes: np.ndarray, start: np.ndarray):
    """Diagonal and superdiagonal of the 1-D P1 mass matrix of each chain.

    ``diag[p]`` belongs to chain node ``p``; ``off[p]`` couples ``p`` and
    ``p + 1`` within a chain and is zero at a chain's last node.
    """
    interior = np.ones(nodes.size, dtype=bool)
    interior[start[1:] - 1] = False
    e = np.flatnonzero(interior)
    blk = edge_mass(edge_lengths(mesh.nodes, np.column_stack([nodes[e], nodes[e + 1]])))
    diag = np.zeros(nodes.size)
    diag[e] = blk[:, 0, 0]
    diag[e + 1] += blk[:, 1, 1]
    off = np.zeros(nodes.size)
    off[e] = blk[:, 0, 1]
    return diag, off


def _mass_entries(diag, off, base, r, c):
    """Entry ``(r, c)`` of the chain mass matrix whose first node is at
    position ``base``; zero outside the tridiagonal band."""
    band = np.where(np.abs(r - c) == 1, off[base + np.minimum(r, c)], 0.0)
    return np.where(r == c, diag[base + r], band)


def build_subdomain_systems(mesh: Mesh, part: Partition,
                            cfg: ProblemConfig) -> list[SubdomainSystem]:
    """Band system, couplings and load of every domain.

    A domain's local numbering is its sorted global node indices, and its
    bandwidth ``kl`` is the widest local index span of its elements.  All
    band matrices live in one buffer and are filled by one ``np.add.at``,
    which adds sequentially.  Each entry receives its terms in a fixed
    order: element blocks in ascending element order, the Robin blocks of
    the domain's outer boundary edges, then ``+-alpha`` times the chain
    mass of each incident interface in ascending interface order.  Chain
    mass terms outside its tridiagonal band are exact zeros and are left
    out, so every entry has the bits of the same sums into a dense matrix.
    The coupling blocks ``D = +-M_chain[:, kept]`` hold the domain's
    interface rows only.
    """
    k = cfg.k
    alpha = cfg.alpha
    _, Ke, Me = element_matrices(mesh, cfg.mu_r)
    Ae = Ke.astype(np.complex128) - (k * k * cfg.eps_r) * Me
    n_dom = part.n_domains
    n_nodes = mesh.n_nodes
    dom = np.asarray(part.domain_of_elem)

    # local numbering: the sorted nodes of each domain's elements
    keys = np.unique(dom[:, None] * n_nodes + mesh.tris)
    first = np.searchsorted(keys, np.arange(n_dom + 1) * n_nodes)
    nd = np.diff(first)

    def local(d, v):
        return np.searchsorted(keys, d * n_nodes + v) - first[d]

    loc = local(dom[:, None], mesh.tris)
    kl = np.zeros(n_dom, dtype=np.int64)
    np.maximum.at(kl, dom, loc.max(axis=1) - loc.min(axis=1))
    ld = 3 * kl + 1
    a_off = np.zeros(n_dom + 1, dtype=np.int64)
    np.cumsum(ld * nd, out=a_off[1:])

    def entry(d, i, j):
        """Buffer position of local entry (i, j) of domain d's band."""
        return a_off[d] + j * ld[d] + 2 * kl[d] + i - j

    # element and Robin blocks
    de = dom[:, None, None]
    idx = [entry(de, loc[:, :, None], loc[:, None, :]).reshape(-1)]
    vals = [Ae.reshape(-1)]
    bd = np.concatenate(part.boundary).reshape(-1, 2)
    n_bd = [b.shape[0] for b in part.boundary]
    db = np.repeat(np.arange(n_dom), n_bd)[:, None, None]
    idx.append(entry(db, local(db, bd[:, :, None]), local(db, bd[:, None, :])).reshape(-1))
    vals.append(((-1j * k) * edge_mass(edge_lengths(mesh.nodes, bd))).reshape(-1))

    # interface terms: block 2i is interface i on its lower side (+), block
    # 2i + 1 on its higher side (-); row r of a block's chain mass holds
    # columns r - 1, r, r + 1.  at[r_off[b] + r] is the position in keys of
    # chain node r of block b.
    ch = part.chains
    diag, off = _chain_mass(mesh, ch.nodes, ch.start)
    side_dom = np.array([(itf.dom_lo, itf.dom_hi) for itf in part.interfaces],
                        dtype=np.int64).reshape(-1)
    n_chain = np.repeat(np.diff(ch.start), 2)
    r_off = np.zeros(n_chain.size + 1, dtype=np.int64)
    np.cumsum(n_chain, out=r_off[1:])
    blk = np.repeat(np.arange(n_chain.size), n_chain)
    at = np.searchsorted(keys, side_dom[blk] * n_nodes
                         + ch.nodes[ch.start[blk // 2] + ragged_arange(n_chain)])
    blk, r, c = _ragged_blocks(n_chain, np.full_like(n_chain, 3))
    c += r - 1
    inside = (c >= 0) & (c < n_chain[blk])
    blk, r, c = blk[inside], r[inside], c[inside]
    i_itf, side = np.divmod(blk, 2)
    d, base = side_dom[blk], ch.start[i_itf]
    idx.append(entry(d, at[r_off[blk] + r] - first[d], at[r_off[blk] + c] - first[d]))
    coef = np.array([1 * alpha, -1 * alpha])   # as sign * alpha, zero signs included
    vals.append(coef[side] * _mass_entries(diag, off, base, r, c))

    A_all = np.zeros(int(a_off[-1]), dtype=np.complex128)
    np.add.at(A_all, np.concatenate(idx), np.concatenate(vals))

    # coupling blocks, in the same block order.  A domain's interface rows
    # are its chain nodes, sorted, and each of its blocks holds those rows
    # only; column j of interface i is the chain position of its j-th kept
    # node.
    is_row = np.zeros(keys.size, dtype=bool)
    is_row[at] = True
    row_at = np.flatnonzero(is_row)
    u_first = np.searchsorted(row_at, first)
    n_u = np.diff(u_first)
    kept_at = np.flatnonzero(ch.kept)
    kept_start = np.zeros(ch.n_kept.size + 1, dtype=np.int64)
    np.cumsum(ch.n_kept, out=kept_start[1:])
    n_kept = np.repeat(ch.n_kept, 2)
    d_off = np.zeros(n_kept.size + 1, dtype=np.int64)
    np.cumsum(n_u[side_dom] * n_kept, out=d_off[1:])
    blk, r, j = _ragged_blocks(n_chain, n_kept)
    i_itf, side = np.divmod(blk, 2)
    d, base = side_dom[blk], ch.start[i_itf]
    u = np.searchsorted(row_at, at[r_off[blk] + r]) - u_first[d]
    col = kept_at[kept_start[i_itf] + j] - base
    D_all = np.zeros(int(d_off[-1]), dtype=np.complex128)
    D_all[d_off[blk] + u * n_kept[blk] + j] = \
        (1 - 2 * side) * _mass_entries(diag, off, base, r, col)
    rows_all = row_at - np.repeat(first[:-1], n_u)

    # loads: one piece per domain, scattered at the domains' local numbering
    bd_start = np.zeros(n_dom + 1, dtype=np.int64)
    np.cumsum(n_bd, out=bd_start[1:])
    f_all = boundary_load(mesh, bd, np.concatenate(part.boundary_owner), bd_start,
                          np.searchsorted(keys, db[:, :, 0] * n_nodes + bd),
                          keys.size, k, cfg.theta_inc)

    nodes_all = keys - np.repeat(np.arange(n_dom) * n_nodes, nd)
    first, a_off, u_first, d_off, n_u = (
        x.tolist() for x in (first, a_off, u_first, d_off, n_u))
    systems = []
    for d, (n, w) in enumerate(zip(nd.tolist(), ld.tolist())):
        p, q = first[d], first[d + 1]
        systems.append(SubdomainSystem(
            d, A_all[a_off[d]:a_off[d + 1]].reshape(n, w).T, f_all[p:q], nodes_all[p:q],
            rows_all[u_first[d]:u_first[d + 1]]))
    for b, (dd, kk) in enumerate(zip(side_dom.tolist(), n_kept.tolist())):
        D = D_all[d_off[b]:d_off[b + 1]].reshape(n_u[dd], kk)
        systems[dd].couplings.append(Coupling(b // 2, D, 1 - 2 * (b % 2)))
    return systems


def _coupling_matrix(sys: SubdomainSystem) -> np.ndarray:
    """The domain's coupling blocks side by side, at its interface rows."""
    if not sys.couplings:
        return np.zeros((sys.interface_rows.size, 0), dtype=np.complex128)
    return np.concatenate([c.D for c in sys.couplings], axis=1)


def reduce_domain(sys: SubdomainSystem,
                  pivot_tol: float = DEFAULT_PIVOT_TOL):
    """Eliminate the subdomain unknowns: one LAPACK band LU factorization of
    A_d (``zgbtrf``, partial pivoting) and one multi-RHS solve give
    ``K_D = D^T A^-1 D`` (symmetrized, as A_d is complex symmetric) and
    ``g_d = D^T A^-1 f``, ordered by the domain's coupling list.  D is
    nonzero only at the interface rows r, so it enters the right-hand side
    there, and ``[K_D g_d] = D_r^T X[r]``.  The factors are cached on the
    system for primal recovery.

    Raises ``ValueError`` when A_d has a non-finite entry and
    :class:`SingularDomainError` when ``min|U_kk| <= pivot_tol * max|A_d|``,
    an exactly singular A_d included.
    """
    scale = np.abs(sys.A).max()
    if not np.isfinite(scale):
        raise ValueError(f"domain {sys.domain}: matrix has non-finite entries")
    kl = sys.kl
    lu, piv, _ = zgbtrf(sys.A, kl, kl)
    pivot_min = np.abs(lu[2 * kl]).min()
    if pivot_min <= pivot_tol * scale:
        raise SingularDomainError(
            f"domain {sys.domain} is singular: smallest LU pivot {pivot_min:.3e} "
            f"(threshold {pivot_tol * scale:.3e})")
    fac = sys.factor = LUFactor(lu, piv)
    rows = sys.interface_rows
    D_r = _coupling_matrix(sys)
    m = D_r.shape[1]
    rhs = np.zeros((sys.n_dofs, m + 1), dtype=np.complex128, order="F")
    rhs[rows, :m] = D_r
    rhs[:, m] = sys.f
    X = fac.solve(rhs)
    KG = blas_matmul(D_r.T, X[rows])
    K_D = 0.5 * (KG[:, :-1] + KG[:, :-1].T)
    return K_D, KG[:, -1].copy()    # a view would keep all of KG alive


def assemble_reduced(reduced, part: Partition) -> ReducedSystem:
    """Scatter per-domain Schur blocks into the block-sparse reduced system.

    ``reduced[d]`` is the ``(K_D, g_d)`` pair of domain ``d`` with rows and
    columns ordered by its interfaces in ``part.incident``.  Every domain's
    interface pairs ``(a, b)``, ``a >= b``, go to block ``(a, b)`` of K by
    one grouped scatter in domain order (:func:`blockmat.from_block_entries`),
    and ``g`` is summed by one ``np.add.at`` in the same order.
    """
    if len(reduced) != part.n_domains:
        raise ValueError(f"{len(reduced)} reduced domains given, the partition "
                         f"has {part.n_domains}")
    sizes = part.chains.n_kept
    # slot s: interface inc[s] of domain dom[s]; its rows in K_D start at
    # row0[s], and K_D's entries at k_off[dom[s]] in the concatenated K_D's
    inc, start = part.incident, part.incident_start
    n_slot = sizes[inc]
    cum = np.zeros(inc.size + 1, dtype=np.int64)
    np.cumsum(n_slot, out=cum[1:])
    nd = cum[start[1:]] - cum[start[:-1]]
    for d, (K_D, g_d) in enumerate(reduced):
        n = int(nd[d])
        if K_D.shape != (n, n):
            raise ValueError(f"domain {d}: reduced block is {K_D.shape}, "
                             f"expected ({n}, {n})")
        if g_d.shape != (n,):
            raise ValueError(f"domain {d}: reduced load is {g_d.shape}, "
                             f"expected ({n},)")
    k_off = np.zeros(part.n_domains + 1, dtype=np.int64)
    np.cumsum(nd * nd, out=k_off[1:])
    dom = np.repeat(np.arange(part.n_domains), np.diff(start))
    row0 = cum[:-1] - cum[start[dom]]

    # pairs (a, b) of slots of one domain with b <= a, domain by domain,
    # then their entries row by row
    n_pair = np.arange(inc.size) - start[dom] + 1
    a = np.repeat(np.arange(inc.size), n_pair)
    b = start[dom[a]] + ragged_arange(n_pair)
    pair, r, c = _ragged_blocks(n_slot[a], n_slot[b])
    ea, eb = a[pair], b[pair]
    src = k_off[dom[ea]] + (row0[ea] + r) * nd[dom[ea]] + row0[eb] + c
    K_all = np.concatenate([K_D.reshape(-1) for K_D, _ in reduced])
    K = from_block_entries(sizes, np.column_stack([inc[a], inc[b]]), K_all[src])
    K.validate()

    g_off = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=g_off[1:])
    g_all = np.zeros(int(g_off[-1]), dtype=np.complex128)
    slot = np.repeat(np.arange(inc.size), n_slot)
    np.add.at(g_all, g_off[inc[slot]] + np.arange(slot.size) - cum[slot],
              np.concatenate([g_d for _, g_d in reduced]))
    g = [g_all[g_off[i]:g_off[i + 1]] for i in range(sizes.size)]
    return ReducedSystem(K, g, sizes)


def recover_primal(systems: list[SubdomainSystem],
                   lam: list[np.ndarray]) -> np.ndarray:
    """Back-substitute ``E_d = A_d^-1 (f_d - D_d lambda)`` with the cached
    band LU factors and assemble the global vector, averaging the duplicated
    interface values.  ``D_d lambda`` is one product at the interface rows."""
    n_glob = 1 + max(int(s.dof_map.max()) for s in systems)
    acc = np.zeros(n_glob, dtype=np.complex128)
    cnt = np.zeros(n_glob)
    for sys in systems:
        if sys.factor is None:
            raise SolverStateError(
                f"domain {sys.domain} has no cached factorization; "
                "run reduce_domain first")
        rhs = sys.f.copy()
        D_r = _coupling_matrix(sys)
        if D_r.size:
            lam_d = np.concatenate([lam[c.interface] for c in sys.couplings])
            rhs[sys.interface_rows] -= blas_matmul(D_r, lam_d)[:, 0]
        E = sys.factor.solve(rhs)
        acc[sys.dof_map] += E
        cnt[sys.dof_map] += 1.0
    return acc / cnt


def global_residual(mesh: Mesh, cfg: ProblemConfig,
                    solution: np.ndarray) -> float:
    """Relative infinity-norm residual of the monolithic system."""
    A, f = assemble_helmholtz(mesh, cfg)
    if solution.shape != f.shape:
        raise ValueError(f"solution has shape {solution.shape}, expected {f.shape}")
    fnorm = float(np.abs(f).max()) if f.size else 0.0
    rnorm = float(np.abs(A @ solution - f).max()) if f.size else 0.0
    if fnorm == 0.0:
        return 0.0 if rnorm == 0.0 else float("inf")
    return rnorm / fnorm
