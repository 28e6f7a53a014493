"""Per-subdomain systems, interface multipliers, and the reduced system.

Each subdomain gets a dense complex-symmetric matrix

    A_d = S_d - k^2 eps_r M_d - jk B_d(outer) + s * alpha * M_interface

with ``s = +1`` on the lower-indexed side of every incident interface and
``-1`` on the higher-indexed side, a coupling block ``D = s * M_interface``
into the single multiplier set of that interface, and the restriction of the
incident-wave load.  Eliminating the subdomain unknowns yields the reduced
block system ``K lambda = g`` with one supernode per interface.

Multiplier space: one dof per interface chain node, except that at nodes
where several interfaces meet, the interfaces whose domain pair closes a
cycle in the local domain-connectivity graph drop their dof at that node.
Keeping all duplicates there would give the stacked trace constraints a
one-dimensional redundancy per cross node and make K exactly singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

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
    D: np.ndarray          # local dofs x kept multiplier dofs
    sign: int


@dataclass
class LUFactor:
    """LAPACK LU factors ``P A = L U`` of a subdomain matrix (``zgetrf``,
    partial pivoting), in the ``(lu, piv)`` layout of ``scipy.linalg.lu_factor``."""

    lu: np.ndarray
    piv: np.ndarray

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve A X = B (``zgetrs``); accepts a vector or a multi-column RHS."""
        X, _ = zgetrs(self.lu, self.piv, B)
        return X


@dataclass
class SubdomainSystem:
    domain: int
    A: np.ndarray
    f: np.ndarray
    dof_map: np.ndarray    # local -> global node index
    couplings: list[Coupling] = field(default_factory=list)
    factor: LUFactor | None = None

    @property
    def n_dofs(self) -> int:
        return int(self.dof_map.size)


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


def interface_mass_matrix(mesh: Mesh, nodes: np.ndarray) -> np.ndarray:
    """Tridiagonal 1-D P1 mass matrix along an ordered node chain."""
    n = nodes.size
    diag, off = _chain_mass(mesh, nodes, np.array([0, n]))
    r, c = np.divmod(np.arange(n * n), n)
    return _mass_entries(diag, off, 0, r, c).reshape(n, n)


def build_subdomain_systems(mesh: Mesh, part: Partition,
                            cfg: ProblemConfig) -> list[SubdomainSystem]:
    """Dense system, couplings and load of every domain.

    All matrices live in one buffer and are filled by one ``np.add.at``,
    which adds sequentially.  Each entry receives its terms in a fixed
    order: element blocks in ascending element order, the Robin blocks of
    the domain's outer boundary edges, then ``+-alpha`` times the chain
    mass of each incident interface in ascending interface order.  The
    coupling blocks ``D = +-M_chain[:, kept]`` are scattered the same way
    into a second buffer.
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
    a_off = np.zeros(n_dom + 1, dtype=np.int64)
    np.cumsum(nd * nd, out=a_off[1:])

    def local(d, v):
        return np.searchsorted(keys, d * n_nodes + v) - first[d]

    def entry(d, rows, cols):
        return a_off[d] + local(d, rows) * nd[d] + local(d, cols)

    # element and Robin blocks
    de = dom[:, None, None]
    idx = [entry(de, mesh.tris[:, :, None], mesh.tris[:, None, :]).reshape(-1)]
    vals = [Ae.reshape(-1)]
    bd = np.concatenate(part.boundary).reshape(-1, 2)
    n_bd = [b.shape[0] for b in part.boundary]
    db = np.repeat(np.arange(n_dom), n_bd)[:, None, None]
    idx.append(entry(db, bd[:, :, None], bd[:, None, :]).reshape(-1))
    vals.append(((-1j * k) * edge_mass(edge_lengths(mesh.nodes, bd))).reshape(-1))

    # interface terms: block 2i is interface i on its lower side (+), block
    # 2i + 1 on its higher side (-)
    ch = part.chains
    diag, off = _chain_mass(mesh, ch.nodes, ch.start)
    side_dom = np.array([(itf.dom_lo, itf.dom_hi) for itf in part.interfaces],
                        dtype=np.int64).reshape(-1)
    n_chain = np.repeat(np.diff(ch.start), 2)
    blk, r, c = _ragged_blocks(n_chain, n_chain)
    i_itf, side = np.divmod(blk, 2)
    d, base = side_dom[blk], ch.start[i_itf]
    idx.append(entry(d, ch.nodes[base + r], ch.nodes[base + c]))
    coef = np.array([1 * alpha, -1 * alpha])   # as sign * alpha, zero signs included
    vals.append(coef[side] * _mass_entries(diag, off, base, r, c))

    A_all = np.zeros(int(a_off[-1]), dtype=np.complex128)
    np.add.at(A_all, np.concatenate(idx), np.concatenate(vals))

    # coupling blocks, in the same block order; column j of interface i is
    # the chain position of its j-th kept node
    kept_at = np.flatnonzero(ch.kept)
    kept_start = np.zeros(ch.n_kept.size + 1, dtype=np.int64)
    np.cumsum(ch.n_kept, out=kept_start[1:])
    n_kept = np.repeat(ch.n_kept, 2)
    d_off = np.zeros(n_kept.size + 1, dtype=np.int64)
    np.cumsum(nd[side_dom] * n_kept, out=d_off[1:])
    blk, r, j = _ragged_blocks(n_chain, n_kept)
    i_itf, side = np.divmod(blk, 2)
    d, base = side_dom[blk], ch.start[i_itf]
    col = kept_at[kept_start[i_itf] + j] - base
    D_all = np.zeros(int(d_off[-1]), dtype=np.complex128)
    D_all[d_off[blk] + local(d, ch.nodes[base + r]) * n_kept[blk] + j] = \
        (1 - 2 * side) * _mass_entries(diag, off, base, r, col)

    couplings: list[list[Coupling]] = [[] for _ in range(n_dom)]
    for b, (dd, kk) in enumerate(zip(side_dom.tolist(), n_kept.tolist())):
        D = D_all[d_off[b]:d_off[b + 1]].reshape(nd[dd], kk)
        couplings[dd].append(Coupling(b // 2, D, 1 - 2 * (b % 2)))
    # loads: one piece per domain, scattered at the domains' local numbering
    bd_start = np.zeros(n_dom + 1, dtype=np.int64)
    np.cumsum(n_bd, out=bd_start[1:])
    f_all = boundary_load(mesh, bd, np.concatenate(part.boundary_owner), bd_start,
                          np.searchsorted(keys, db[:, :, 0] * n_nodes + bd),
                          keys.size, k, cfg.theta_inc)

    systems = []
    for d in range(n_dom):
        loc_nodes = keys[first[d]:first[d + 1]] - d * n_nodes
        A = A_all[a_off[d]:a_off[d + 1]].reshape(nd[d], nd[d])
        f = f_all[first[d]:first[d + 1]]
        systems.append(SubdomainSystem(d, A, f, loc_nodes, couplings[d]))
    return systems


def reduce_domain(sys: SubdomainSystem,
                  pivot_tol: float = DEFAULT_PIVOT_TOL):
    """Eliminate the subdomain unknowns: one LAPACK LU factorization of A_d
    (``zgetrf``, partial pivoting) and one multi-RHS solve give
    ``K_D = D^T A^-1 D`` (symmetrized, as A_d is complex symmetric) and
    ``g_d = D^T A^-1 f``, ordered by the domain's coupling list.  The factors
    are cached on the system for primal recovery.

    Raises ``ValueError`` when A_d has a non-finite entry and
    :class:`SingularDomainError` when ``min|U_kk| <= pivot_tol * max|A_d|``,
    an exactly singular A_d included.
    """
    scale = np.abs(sys.A).max()
    if not np.isfinite(scale):
        raise ValueError(f"domain {sys.domain}: matrix has non-finite entries")
    lu, piv, _ = zgetrf(sys.A)
    pivot_min = np.abs(np.diagonal(lu)).min()
    if pivot_min <= pivot_tol * scale:
        raise SingularDomainError(
            f"domain {sys.domain} is singular: smallest LU pivot {pivot_min:.3e} "
            f"(threshold {pivot_tol * scale:.3e})")
    fac = sys.factor = LUFactor(lu, piv)
    D_all = (np.concatenate([c.D for c in sys.couplings], axis=1)
             if sys.couplings else np.zeros((sys.n_dofs, 0), dtype=np.complex128))
    rhs = np.concatenate([D_all, sys.f[:, None]], axis=1)
    X = fac.solve(rhs)
    KG = blas_matmul(D_all.T, X)
    K_D = 0.5 * (KG[:, :-1] + KG[:, :-1].T)
    return K_D, KG[:, -1]


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
    LU factors and assemble the global vector, averaging the duplicated
    interface values."""
    n_glob = 1 + max(int(s.dof_map.max()) for s in systems)
    acc = np.zeros(n_glob, dtype=np.complex128)
    cnt = np.zeros(n_glob)
    for sys in systems:
        if sys.factor is None:
            raise SolverStateError(
                f"domain {sys.domain} has no cached factorization; "
                "run reduce_domain first")
        rhs = sys.f.copy()
        for c in sys.couplings:
            if c.D.shape[1]:
                rhs -= blas_matmul(c.D, lam[c.interface])[:, 0]
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
