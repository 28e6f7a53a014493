"""Structured triangular meshes, scalar Helmholtz assembly and tile partitions.

The domain is an open square of ``side_lambda`` wavelengths meshed with a
uniform right-triangle grid.  Linear (P1) elements discretize

    (1/mu_r) grad u . grad v  -  k^2 eps_r u v      over the square,
    -jk u v                                          over the outer boundary,

with a plane wave entering through the absorbing outer boundary providing the
load.  Assembly is fully deterministic and the produced operator is exactly
symmetric under plain transposition (no conjugation).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .blockmat import exclusive_cumsum, ragged_arange

TWO_PI = 2.0 * math.pi

# 4-point Gauss-Legendre rule on [0, 1], used for boundary load integrals.
_GAUSS_T = np.array([0.5 - 0.43056815579702629, 0.5 - 0.16999052179242813,
                     0.5 + 0.16999052179242813, 0.5 + 0.43056815579702629])
_GAUSS_W = np.array([0.17392742256872692, 0.32607257743127305,
                     0.32607257743127305, 0.17392742256872692])


class AssemblyError(Exception):
    pass


class PartitionError(Exception):
    pass


@dataclass
class ProblemConfig:
    """Scattering problem parameters; lengths are in wavelengths."""

    side_lambda: float
    ppw: float = 15.0
    px: int = 1
    py: int = 1
    wavelength: float = 1.0
    alpha: complex | None = None      # interface transmission parameter
    theta_inc: float = 0.0            # incidence angle, radians
    mu_r: float = 1.0
    eps_r: float = 1.0

    def __post_init__(self):
        for name in ("side_lambda", "ppw", "wavelength", "theta_inc", "alpha",
                     "mu_r", "eps_r"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.wavelength != 1.0:
            raise ValueError(f"wavelength must be 1.0, got {self.wavelength!r}: "
                             "side_lambda and ppw are in wavelengths, so another "
                             "value would change k without refining the mesh")
        if self.side_lambda <= 0.0:
            raise ValueError("side_lambda must be positive")
        if self.ppw < 10:
            raise ValueError("ppw must be at least 10")
        if self.px < 1 or self.py < 1:
            raise ValueError("px and py must be at least 1")
        if self.alpha is None:
            self.alpha = 1j * self.k
        self.alpha = complex(self.alpha)
        if self.alpha.imag == 0.0:
            raise ValueError("alpha must have nonzero imaginary part")

    @property
    def k(self) -> float:
        return TWO_PI / self.wavelength


@dataclass
class Mesh:
    nodes: np.ndarray           # (N, 2) coordinates
    tris: np.ndarray            # (M, 3) CCW node triples
    boundary_edges: np.ndarray  # (B, 2) node pairs on the outer boundary
    boundary_owner: np.ndarray  # (B,) triangle owning each boundary edge

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_tris(self) -> int:
        return int(self.tris.shape[0])

    def tri_areas(self) -> np.ndarray:
        p = self.nodes[self.tris]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def edge_use_counts(self) -> dict[tuple[int, int], list[int]]:
        """Map sorted edge -> list of triangles using it, in ascending order."""
        tab = edge_table(self.tris)
        owners = (tab.half // 3).tolist()
        start = tab.start.tolist()
        return {(lo, hi): owners[start[i]:start[i + 1]]
                for i, (lo, hi) in enumerate(tab.edges.tolist())}

    def validate(self) -> None:
        areas = self.tri_areas()
        bad = np.flatnonzero(areas <= 0.0)
        if bad.size:
            raise AssemblyError(f"element {int(bad[0])} has non-positive area")
        use = self.edge_use_counts()
        for a, b in self.boundary_edges.tolist():
            key = (min(a, b), max(a, b))
            owners = use.get(key, [])
            if len(owners) != 1:
                raise AssemblyError(
                    f"boundary edge {key} used by {len(owners)} triangles")


@dataclass
class EdgeTable:
    """Unique edges of a triangle list and the triangles that use each.

    Half edge ``h = 3 t + j`` runs from ``tris[t, j]`` to
    ``tris[t, (j + 1) % 3]``.  ``edges[i]`` is the ``(lo, hi)`` node pair of
    edge ``i``, in lexicographic order, and ``half[start[i]:start[i + 1]]``
    are its half edges in ascending order, hence in ascending triangle order.
    """

    edges: np.ndarray
    half: np.ndarray
    start: np.ndarray


def edge_table(tris: np.ndarray) -> EdgeTable:
    """Group the half edges of ``tris`` by edge with one stable sort."""
    tris = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    a = tris.reshape(-1)
    b = tris[:, [1, 2, 0]].reshape(-1)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = lo * (1 + int(tris.max(initial=-1))) + hi
    half = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[half], prepend=-1))
    edges = np.column_stack([lo[half[first]], hi[half[first]]])
    return EdgeTable(edges, half, np.append(first, key.size))


@dataclass
class Partition:
    """A tiling's domains, interfaces, outer boundary and multipliers, as
    flat read-only arrays set once by :func:`partition_mesh`.

    - Interface ``i`` joins domains ``ends[i] = (dom_lo, dom_hi)``, and
      ``chain_nodes[chain_start[i]:chain_start[i + 1]]`` is its chain of
      mesh nodes, endpoints included, from its smaller endpoint.
    - ``boundary_edges[boundary_start[d]:boundary_start[d + 1]]`` are domain
      ``d``'s outer boundary edges in the mesh's order, and
      ``boundary_owner`` the triangle owning each.
    - ``incident[incident_start[d]:incident_start[d + 1]]`` are the
      interfaces of domain ``d``, ascending.
    - ``kept`` marks the chain nodes that carry a multiplier dof, and
      ``n_kept[i]`` counts them per interface.  Multipliers are numbered
      over the kept nodes, interface by interface in chain order, so
      multiplier ``m`` sits at node ``chain_nodes[kept][m]``; this is the
      reduced system's block order.
      ``lam_index[lam_start[d]:lam_start[d + 1]]`` are the multipliers of
      domain ``d``'s coupling columns: its incident interfaces ascending,
      each with its multipliers in order.
    """

    n_domains: int
    domain_of_elem: np.ndarray
    ends: np.ndarray
    chain_nodes: np.ndarray
    chain_start: np.ndarray
    boundary_edges: np.ndarray
    boundary_owner: np.ndarray
    boundary_start: np.ndarray
    incident: np.ndarray
    incident_start: np.ndarray
    kept: np.ndarray
    n_kept: np.ndarray
    lam_index: np.ndarray
    lam_start: np.ndarray


def _number_multipliers(ends: np.ndarray, nodes: np.ndarray, start: np.ndarray,
                        incident: np.ndarray, incident_start: np.ndarray):
    """``(kept, n_kept, lam_index, lam_start)`` of :class:`Partition`.

    At every mesh node shared by two or more chain positions those positions
    are scanned in ascending interface order; one dof is dropped for each
    interface whose ``(dom_lo, dom_hi)`` edge closes a cycle among the
    domains already connected at that node.
    """
    sizes = np.diff(start)
    owner = np.repeat(np.arange(sizes.size), sizes)
    pairs = ends.tolist()
    kept = np.ones(nodes.size, dtype=bool)
    # chain positions grouped by node: ascending node, then ascending
    # interface
    by_node = np.argsort(nodes, kind="stable")
    cut = np.append(np.flatnonzero(np.diff(nodes[by_node], prepend=-1)),
                    nodes.size)
    for g in np.flatnonzero(np.diff(cut) > 1).tolist():
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for pos in by_node[cut[g]:cut[g + 1]].tolist():
            dom_lo, dom_hi = pairs[owner[pos]]
            a, b = find(dom_lo), find(dom_hi)
            if a == b:
                kept[pos] = False
            else:
                parent[a] = b
    n_kept = np.bincount(owner[kept], minlength=sizes.size)
    n_slot = n_kept[incident]
    lam_index = (np.repeat(exclusive_cumsum(n_kept)[incident], n_slot)
                 + ragged_arange(n_slot))
    return kept, n_kept, lam_index, exclusive_cumsum(n_slot)[incident_start]


def grid_intervals(side_lambda: float, ppw: float) -> int:
    return int(math.ceil(side_lambda * ppw - 1e-12))


def build_rect_mesh(side_lambda: float, ppw: float) -> Mesh:
    """Uniform right-triangle grid on a ``side x side`` square.

    ``n = ceil(side_lambda * ppw)`` intervals per axis give ``(n+1)^2`` nodes
    in row-major order and ``2 n^2`` CCW triangles; each grid cell is split
    along its up-right diagonal.
    """
    if side_lambda <= 0.0:
        raise ValueError("side_lambda must be positive")
    if ppw < 2:
        raise ValueError("ppw must be at least 2")
    n = grid_intervals(side_lambda, ppw)
    h = side_lambda / n
    xs = np.arange(n + 1) * h
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.reshape(-1), Y.reshape(-1)])

    # cell c = iy * n + ix holds triangles 2c = (v00, v10, v11) and
    # 2c + 1 = (v00, v11, v01)
    iy, ix = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = iy * (n + 1) + ix
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    tris = np.stack([np.column_stack([v00, v10, v11]),
                     np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)

    # boundary edges: used by one triangle, listed in sorted (lo, hi) order
    # with the owner's orientation
    tab = edge_table(tris)
    single = tab.half[tab.start[:-1][np.diff(tab.start) == 1]]
    owners, j = np.divmod(single, 3)
    edges = np.column_stack([tris[owners, j], tris[owners, (j + 1) % 3]])
    return Mesh(nodes, tris, edges, owners)


def element_matrices(mesh: Mesh, mu_r: float = 1.0):
    """Per-element P1 stiffness and mass blocks.

    Returns ``(Ke, Me)`` with ``Ke[e] = area * grad . grad / mu_r``
    and ``Me[e] = area / 12 * (ones + I)``.
    """
    p = mesh.nodes[mesh.tris]                      # (M, 3, 2)
    areas = mesh.tri_areas()
    bad = np.flatnonzero(areas <= 0.0)
    if bad.size:
        raise AssemblyError(f"element {int(bad[0])} has non-positive area")
    # gradient of barycentric basis i: rotate opposite edge / (2 area)
    gx = np.stack([p[:, 1, 1] - p[:, 2, 1],
                   p[:, 2, 1] - p[:, 0, 1],
                   p[:, 0, 1] - p[:, 1, 1]], axis=1)
    gy = np.stack([p[:, 2, 0] - p[:, 1, 0],
                   p[:, 0, 0] - p[:, 2, 0],
                   p[:, 1, 0] - p[:, 0, 0]], axis=1)
    grads = np.stack([gx, gy], axis=2) / (2.0 * areas)[:, None, None]
    Ke = np.einsum("eid,ejd->eij", grads, grads) * areas[:, None, None] / mu_r
    Me = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (areas / 12.0)[:, None, None]
    return Ke, Me


def edge_lengths(nodes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of each ``(a, b)`` node pair.

    ``np.vecdot`` runs the same BLAS dot per row as ``np.linalg.norm`` does
    on one vector, so each length is bit-identical to that norm.
    """
    d = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    return np.sqrt(np.vecdot(d, d))


def edge_mass(h) -> np.ndarray:
    """1-D P1 mass matrix of an edge of length ``h``; for an array of
    lengths, one ``(2, 2)`` block per entry."""
    h = np.asarray(h, dtype=np.float64)
    return (h / 6.0)[..., None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])


def _dedup_sum(rows, cols, vals, n) -> sp.csr_matrix:
    # Deterministic duplicate summation: stable lexsort keeps insertion order
    # within each (row, col) group, so mirrored entries sum identically and
    # the result is exactly symmetric whenever the triples are.
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals).astype(np.complex128)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size == 0:
        return sp.csr_matrix((n, n), dtype=np.complex128)
    new_group = np.empty(rows.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(new_group)
    sums = np.add.reduceat(vals, starts)
    return sp.csr_matrix((sums, (rows[starts], cols[starts])), shape=(n, n))


def boundary_normals(mesh: Mesh, edges: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Unit outward normal per boundary edge, oriented away from the owner."""
    a = mesh.nodes[edges[:, 0]]
    b = mesh.nodes[edges[:, 1]]
    d = b - a
    nrm = np.column_stack([d[:, 1], -d[:, 0]])
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    centroids = mesh.nodes[mesh.tris[owners]].mean(axis=1)
    mid = 0.5 * (a + b)
    flip = np.einsum("ij,ij->i", nrm, centroids - mid) > 0.0
    nrm[flip] *= -1.0
    return nrm


def boundary_load(mesh: Mesh, edges: np.ndarray, owners: np.ndarray,
                  start: np.ndarray, at: np.ndarray, size: int,
                  k: float, theta_inc: float) -> np.ndarray:
    """Plane-wave loads of several boundary pieces in one pass.

    ``edges[start[s]:start[s + 1]]`` are the edges of piece ``s`` and
    ``at`` (shaped like ``edges``) the positions their endpoints add into,
    in a vector of length ``size``.  The incident field is
    ``exp(-jk (x cos t + y sin t))`` and the boundary data
    ``g = dn(u_inc) - jk u_inc`` is integrated against the P1 traces on each
    edge with 4-point Gauss quadrature.

    Every step but one runs once over all edges.  The projections on the
    direction (``@``, a BLAS ``dgemv``) round a row differently depending on
    the batch it is in, so they are taken piece by piece: each piece gets the
    bits it would get alone.  Contributions add in the order (Gauss point,
    endpoint, edge), as when each piece is integrated on its own.
    """
    f = np.zeros(size, dtype=np.complex128)
    if edges.size == 0:
        return f
    d = np.array([math.cos(theta_inc), math.sin(theta_inc)])
    a = mesh.nodes[edges[:, 0]]
    b = mesh.nodes[edges[:, 1]]
    h = edge_lengths(mesh.nodes, edges)
    # row 0: the outward normals; row 1 + q: Gauss point q of every edge
    x = np.concatenate([boundary_normals(mesh, edges, owners)[None],
                        a + _GAUSS_T[:, None, None] * (b - a)])
    proj = np.empty(x.shape[:2])
    bounds = np.asarray(start).tolist()
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e > s:
            proj[:, s:e] = x[:, s:e] @ d
    coef = -1j * k * (proj[0] + 1.0)              # g = coef * u_inc on each edge
    vals = []
    for t, w, p in zip(_GAUSS_T, _GAUSS_W, proj[1:]):
        g = coef * np.exp(-1j * k * p)
        vals += [w * h * g * (1.0 - t), w * h * g * t]
    np.add.at(f, np.tile(np.asarray(at).T, (_GAUSS_T.size, 1)).reshape(-1),
              np.concatenate(vals))
    return f


def incident_boundary_load(mesh: Mesh, edges: np.ndarray, owners: np.ndarray,
                           k: float, theta_inc: float) -> np.ndarray:
    """Load vector over all mesh nodes from a plane wave entering through
    ``edges``: :func:`boundary_load` with one piece."""
    return boundary_load(mesh, edges, owners, [0, edges.shape[0]], edges,
                         mesh.n_nodes, k, theta_inc)


def helmholtz_blocks(mesh: Mesh, cfg: ProblemConfig, edges: np.ndarray):
    """Element blocks ``Ke - k^2 eps_r Me`` of every triangle, ``(M, 3, 3)``,
    and Robin blocks ``-jk M_edge`` of ``edges``, ``(B, 2, 2)``."""
    k = cfg.k
    Ke, Me = element_matrices(mesh, cfg.mu_r)
    return (Ke.astype(np.complex128) - (k * k * cfg.eps_r) * Me,
            (-1j * k) * edge_mass(edge_lengths(mesh.nodes, edges)))


def assemble_helmholtz(mesh: Mesh, cfg: ProblemConfig):
    """Monolithic operator and load: ``A = S - k^2 eps_r M - jk B`` (CSR) and
    the incident-wave boundary load ``f``."""
    be = mesh.boundary_edges
    Ae, Be = helmholtz_blocks(mesh, cfg, be)
    rows = np.repeat(mesh.tris, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.tris, (1, 3)).reshape(-1)
    brows = np.column_stack([be[:, 0], be[:, 0], be[:, 1], be[:, 1]]).reshape(-1)
    bcols = np.column_stack([be[:, 0], be[:, 1], be[:, 0], be[:, 1]]).reshape(-1)
    A = _dedup_sum([rows, brows], [cols, bcols], [Ae.reshape(-1), Be.reshape(-1)],
                   mesh.n_nodes)
    f = incident_boundary_load(mesh, be, mesh.boundary_owner, cfg.k, cfg.theta_inc)
    return A, f


def partition_mesh(mesh: Mesh, px: int, py: int) -> Partition:
    """Axis-aligned tiling into ``px x py`` domains by element centroid.

    Interfaces are the maximal chains of element edges shared by two distinct
    domains, grouped per (lower, higher) domain pair in ascending pair order
    and, within a pair, walked from their smaller endpoint in ascending
    order of that endpoint.  On grids whose interval count is not divisible
    by the tile counts, tile lines cut through cells and the chains simply
    follow the resulting staircase of cell edges.
    """
    if px < 1 or py < 1:
        raise PartitionError("px and py must be at least 1")
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    span = hi - lo
    centroids = mesh.nodes[mesh.tris].mean(axis=1)
    tx = np.clip(((centroids[:, 0] - lo[0]) / span[0] * px).astype(np.int64), 0, px - 1)
    ty = np.clip(((centroids[:, 1] - lo[1]) / span[1] * py).astype(np.int64), 0, py - 1)
    dom = ty * px + tx
    n_domains = px * py
    counts = np.bincount(dom, minlength=n_domains)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise PartitionError(
            f"domain {int(empty[0])} contains no elements; "
            f"grid too coarse for a {px}x{py} tiling")

    # edges shared by two triangles of distinct domains, grouped per
    # (lower, higher) domain pair, each group in sorted (lo, hi) edge order
    tab = edge_table(mesh.tris)
    two = np.flatnonzero(np.diff(tab.start) == 2)
    d0 = dom[tab.half[tab.start[two]] // 3]
    d1 = dom[tab.half[tab.start[two] + 1] // 3]
    cross = np.flatnonzero(d0 != d1)
    pair = (np.minimum(d0, d1) * n_domains + np.maximum(d0, d1))[cross]
    by_pair = np.argsort(pair, kind="stable")
    pairs, first = np.unique(pair[by_pair], return_index=True)
    shared = [tuple(e) for e in tab.edges[two[cross[by_pair]]].tolist()]
    bounds = np.append(first, len(shared)).tolist()
    dlos, dhis = np.divmod(pairs, n_domains)

    # per chain: its domain pair, its nodes (concatenated) and its length
    ends, nodes, sizes = [], [], []
    for g, (dlo, dhi) in enumerate(zip(dlos.tolist(), dhis.tolist())):
        edge_list = shared[bounds[g]:bounds[g + 1]]
        nbr: dict[int, list[int]] = {}
        for a, b in edge_list:
            nbr.setdefault(a, []).append(b)
            nbr.setdefault(b, []).append(a)
        for node, ns in nbr.items():
            if len(ns) > 2:
                raise PartitionError(
                    f"interface ({dlo}, {dhi}) branches at node {node}")
        # edges are (lo, hi) tuples; a chain starts at its smaller endpoint,
        # the first of its two endpoints in ascending order
        remaining = set(edge_list)
        for start in sorted(n for n, ns in nbr.items() if len(ns) == 1):
            u = nbr[start][0]
            if ((start, u) if start < u else (u, start)) not in remaining:
                continue
            chain = [start]
            prev = -1
            cur = start
            while True:
                for u in nbr[cur]:
                    e = (cur, u) if cur < u else (u, cur)
                    if u != prev and e in remaining:
                        break
                else:
                    break
                remaining.discard(e)
                chain.append(u)
                prev, cur = cur, u
            ends.append((dlo, dhi))
            nodes += chain
            sizes.append(len(chain))
        if remaining:
            raise PartitionError(
                f"interface ({dlo}, {dhi}) contains a closed loop")
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    nodes = np.array(nodes, dtype=np.int64)
    start = exclusive_cumsum(sizes)

    # each interface is incident to both its domains; a stable sort keeps
    # each domain's interfaces ascending
    side = ends.reshape(-1)
    incident = np.argsort(side, kind="stable") // 2
    incident_start = exclusive_cumsum(np.bincount(side, minlength=n_domains))

    # per-domain outer boundary, each in the mesh's boundary-edge order
    bdom = dom[mesh.boundary_owner]
    by_dom = np.argsort(bdom, kind="stable")
    part = Partition(
        n_domains, dom, ends, nodes, start,
        mesh.boundary_edges[by_dom], mesh.boundary_owner[by_dom],
        exclusive_cumsum(np.bincount(bdom, minlength=n_domains)),
        incident, incident_start,
        *_number_multipliers(ends, nodes, start, incident, incident_start))
    for a in vars(part).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return part
