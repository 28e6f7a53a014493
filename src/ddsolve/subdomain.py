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

from .blockmat import BlockSparseSym, from_blocks
from .factor import DEFAULT_PIVOT_TOL, DenseFactor, SingularBlockError, \
    blas_matmul, dense_ldlt_bk
from .mesh import Mesh, Partition, ProblemConfig, assemble_helmholtz, \
    element_matrices, incident_boundary_load


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
class SubdomainSystem:
    domain: int
    A: np.ndarray
    f: np.ndarray
    dof_map: np.ndarray    # local -> global node index
    couplings: list[Coupling] = field(default_factory=list)
    factor: DenseFactor | None = None

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
    """Kept multiplier nodes per interface, in chain order.

    At every mesh node shared by two or more interfaces the incident
    interfaces are scanned in ascending index order; one dof is dropped for
    each interface whose (dom_lo, dom_hi) edge closes a cycle among the
    domains already connected at that node.
    """
    node_ifaces: dict[int, list[int]] = {}
    for idx, itf in enumerate(part.interfaces):
        for v in itf.nodes:
            node_ifaces.setdefault(int(v), []).append(idx)
    drops: set[tuple[int, int]] = set()
    for v in sorted(node_ifaces):
        ifs = node_ifaces[v]
        if len(ifs) < 2:
            continue
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in sorted(ifs):
            a = find(part.interfaces[i].dom_lo)
            b = find(part.interfaces[i].dom_hi)
            if a == b:
                drops.add((i, v))
            else:
                parent[a] = b
    kept = []
    for idx, itf in enumerate(part.interfaces):
        kept.append(np.array([int(v) for v in itf.nodes
                              if (idx, int(v)) not in drops], dtype=np.int64))
    return kept


def interface_mass_matrix(mesh: Mesh, nodes: np.ndarray) -> np.ndarray:
    """Tridiagonal 1-D P1 mass matrix along an ordered node chain."""
    n = nodes.size
    M = np.zeros((n, n))
    for t in range(n - 1):
        h = float(np.linalg.norm(mesh.nodes[nodes[t + 1]] - mesh.nodes[nodes[t]]))
        M[t:t + 2, t:t + 2] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    return M


def build_subdomain_systems(mesh: Mesh, part: Partition,
                            cfg: ProblemConfig) -> list[SubdomainSystem]:
    k = cfg.k
    alpha = cfg.alpha
    _, Ke, Me = element_matrices(mesh, cfg.mu_r)
    Ae = Ke.astype(np.complex128) - (k * k * cfg.eps_r) * Me
    lam_nodes = interface_lambda_nodes(part)
    systems = []
    for d in range(part.n_domains):
        elems = part.elements_of(d)
        loc_nodes = np.unique(mesh.tris[elems])
        g2l = {int(gn): i for i, gn in enumerate(loc_nodes)}
        nd = loc_nodes.size
        A = np.zeros((nd, nd), dtype=np.complex128)
        for e in elems:
            idx = np.array([g2l[int(v)] for v in mesh.tris[e]])
            A[np.ix_(idx, idx)] += Ae[e]
        for a, b in part.boundary[d]:
            h = float(np.linalg.norm(mesh.nodes[b] - mesh.nodes[a]))
            ia, ib = g2l[int(a)], g2l[int(b)]
            blk = (-1j * k) * (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
            A[np.ix_([ia, ib], [ia, ib])] += blk
        couplings = []
        for i_itf in part.incident_interfaces(d):
            itf = part.interfaces[i_itf]
            sign = 1 if itf.dom_lo == d else -1
            Mg = interface_mass_matrix(mesh, itf.nodes)
            rows = np.array([g2l[int(v)] for v in itf.nodes])
            A[np.ix_(rows, rows)] += (sign * alpha) * Mg
            kept = lam_nodes[i_itf]
            cols = np.array([int(np.flatnonzero(itf.nodes == v)[0]) for v in kept],
                            dtype=np.int64)
            D = np.zeros((nd, kept.size), dtype=np.complex128)
            if kept.size:
                D[rows[:, None], np.arange(kept.size)[None, :]] = sign * Mg[:, cols]
            couplings.append(Coupling(i_itf, D, sign))
        f = incident_boundary_load(mesh, part.boundary[d], part.boundary_owner[d],
                                   k, cfg.theta_inc)[loc_nodes]
        systems.append(SubdomainSystem(d, A, f, loc_nodes, couplings))
    return systems


def reduce_domain(sys: SubdomainSystem,
                  pivot_tol: float = DEFAULT_PIVOT_TOL):
    """Eliminate the subdomain unknowns: one dense factorization of A_d and
    multi-RHS solves give ``K_D = D^T A^-1 D`` (symmetrized) and
    ``g_d = D^T A^-1 f``, ordered by the domain's coupling list.  The
    factorization is cached on the system for primal recovery."""
    try:
        fac = dense_ldlt_bk(sys.A, pivot_tol)
    except SingularBlockError as err:
        raise SingularDomainError(f"domain {sys.domain} is singular: {err}") from err
    sys.factor = fac
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
    columns ordered by ``part.incident_interfaces(d)``.
    """
    lam_nodes = interface_lambda_nodes(part)
    sizes = np.array([ln.size for ln in lam_nodes], dtype=np.int64)
    n_i = len(part.interfaces)
    triples = []
    g = [np.zeros(int(s), dtype=np.complex128) for s in sizes]
    for d, (K_D, g_d) in enumerate(reduced):
        ifaces = part.incident_interfaces(d)
        off = np.zeros(len(ifaces) + 1, dtype=np.int64)
        np.cumsum(sizes[ifaces], out=off[1:])
        if K_D.shape != (off[-1], off[-1]):
            raise ValueError(
                f"domain {d}: reduced block is {K_D.shape}, expected "
                f"({int(off[-1])}, {int(off[-1])})")
        for a, ia in enumerate(ifaces):
            g[ia] += g_d[off[a]:off[a + 1]]
            for b, ib in enumerate(ifaces):
                if ia < ib:
                    continue
                sub = K_D[off[a]:off[a + 1], off[b]:off[b + 1]]
                triples.append((ia, ib, sub))
    K = from_blocks(sizes, triples)
    return ReducedSystem(K, g, sizes)


def recover_primal(systems: list[SubdomainSystem],
                   lam: list[np.ndarray]) -> np.ndarray:
    """Back-substitute ``E_d = A_d^-1 (f_d - D_d lambda)`` with the cached
    factorizations and assemble the global vector, averaging the duplicated
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
