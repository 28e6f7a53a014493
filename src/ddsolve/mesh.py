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
import operator
from dataclasses import dataclass

import numpy as np

from .blockmat import exclusive_cumsum, first_of_runs, ragged_arange

TWO_PI = 2.0 * math.pi

# 4-point Gauss-Legendre rule on [0, 1], used for boundary load integrals.
_GAUSS_T = np.array([0.5 - 0.43056815579702629, 0.5 - 0.16999052179242813,
                     0.5 + 0.16999052179242813, 0.5 + 0.43056815579702629])
_GAUSS_W = np.array([0.17392742256872692, 0.32607257743127305,
                     0.32607257743127305, 0.17392742256872692])
# the weights of the two endpoints' P1 traces at each Gauss point, (4, 2, 1);
# complex, so that a load's product by them is the complex multiply by a
# broadcast complex operand that a per-point loop's scalar weight gets
_GAUSS_ENDS = np.stack([1.0 - _GAUSS_T, _GAUSS_T], axis=1)[:, :, None] + 0j


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
        for name in ("px", "py"):
            try:
                setattr(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
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


@dataclass(eq=False)
class Mesh:
    nodes: np.ndarray           # (N, 2) coordinates
    tris: np.ndarray            # (M, 3) CCW node triples
    boundary_edges: np.ndarray  # (B, 2) node pairs on the outer boundary
    boundary_owner: np.ndarray  # (B,) triangle owning each boundary edge

    def __post_init__(self):
        # boundary_normals needs each boundary edge (a, b) to run from a to b
        # in its CCW owner's order, so that the mesh lies on its left
        t0, t1, t2 = self.tris[self.boundary_owner].T
        a, b = self.boundary_edges.T
        runs = (t0 == a) & (t1 == b)
        runs |= (t1 == a) & (t2 == b)
        runs |= (t2 == a) & (t0 == b)
        bad = np.flatnonzero(~runs)
        if bad.size:
            i = int(bad[0])
            raise AssemblyError(f"boundary edge {i} is not a half edge of its "
                                f"owner, triangle {self.boundary_owner[i]}")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_tris(self) -> int:
        return int(self.tris.shape[0])

    def corner_rows(self, corners=(0, 1, 2)):
        """The coordinates of the given corners of every triangle as one
        ``(2, len(corners), M)`` array: x then y, each row ``i`` holding
        corner ``corners[i]`` of all triangles contiguously."""
        return self.nodes.T.copy().take(self.tris.T[list(corners)], axis=1)


@dataclass(eq=False)
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
    first = np.flatnonzero(first_of_runs(key[half]))
    one = half[first]
    edges = np.column_stack([lo[one], hi[one]])
    return EdgeTable(edges, half, np.append(first, key.size))


@dataclass(eq=False)
class Partition:
    """A tiling's domains, interfaces, outer boundary and multipliers, as
    flat read-only arrays set once by :func:`partition_mesh`.

    - Interface ``i`` joins domains ``ends[i] = (dom_lo, dom_hi)``, and
      ``chain_nodes[chain_start[i]:chain_start[i + 1]]`` is its chain of
      mesh nodes, endpoints included, from its smaller endpoint.
    - ``boundary_edges[boundary_start[d]:boundary_start[d + 1]]`` are domain
      ``d``'s outer boundary edges in the mesh's order and orientation.
    - ``incident[incident_start[d]:incident_start[d + 1]]`` are the
      interfaces of domain ``d``, ascending.  Entry ``s`` of ``incident`` is
      a slot, one side of an interface, and ``slot_domain[s]`` its domain.
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
    boundary_start: np.ndarray
    incident: np.ndarray
    incident_start: np.ndarray
    slot_domain: np.ndarray
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
    sizes = start[1:] - start[:-1]
    owner = np.repeat(np.arange(sizes.size), sizes)
    pairs = ends.tolist()
    kept = np.ones(nodes.size, dtype=bool)
    # chain positions grouped by node: ascending node, then ascending
    # interface
    by_node = np.argsort(nodes, kind="stable")
    cut = np.append(np.flatnonzero(first_of_runs(nodes[by_node])), nodes.size)
    for g in np.flatnonzero(cut[1:] - cut[:-1] > 1).tolist():
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


def grid_spacing(side_lambda: float, n: int) -> float:
    """``side_lambda / n`` rounded to nearest (ties to even) with
    ``p = 53 - n.bit_length()`` significant bits, so that every ``i * h``
    with ``0 <= i <= n`` is an exact double.  That moves h by at most
    ``2 ** -p`` relative (5.7e-14 for n < 512).  Coordinate differences are
    then exact too, so equal tiles get byte-equal element blocks."""
    p = 53 - n.bit_length()
    frac, e = math.frexp(side_lambda / n)
    return math.ldexp(round(math.ldexp(frac, p)), e - p)


def build_rect_mesh(side_lambda: float, ppw: float) -> Mesh:
    """Uniform right-triangle grid on a ``side x side`` square.

    ``n = ceil(side_lambda * ppw)`` intervals per axis of width
    :func:`grid_spacing` give ``(n+1)^2`` nodes in row-major order, each
    coordinate exactly ``i * h``, and ``2 n^2`` CCW triangles; each grid
    cell is split along its up-right diagonal.
    """
    if side_lambda <= 0.0:
        raise ValueError("side_lambda must be positive")
    if ppw < 2:
        raise ValueError("ppw must be at least 2")
    n = grid_intervals(side_lambda, ppw)
    h = grid_spacing(side_lambda, n)
    xs = np.arange(n + 1) * h
    nodes = np.empty((n + 1, n + 1, 2))
    nodes[:, :, 0] = xs
    nodes[:, :, 1] = xs[:, None]
    nodes = nodes.reshape(-1, 2)

    # cell c = iy * n + ix holds triangles 2c = (v00, v10, v11) and
    # 2c + 1 = (v00, v11, v01), at offsets from v00 = iy * (n + 1) + ix
    v00 = np.arange(n * (n + 1), dtype=np.int64).reshape(n, n + 1)[:, :n, None]
    tris = (v00 + np.array([0, 1, n + 2, 0, n + 2, n + 1])).reshape(-1, 3)

    # boundary edges, each as half edge j of its one triangle: bottom
    # (v00, v10) of 2c, right (v10, v11) of 2c, top (v11, v01) of 2c + 1 and
    # left (v01, v00) of 2c + 1; listed in sorted (lo, hi) order with the
    # owner's (counter-clockwise) orientation
    k = np.arange(n, dtype=np.int64)
    owner = np.concatenate([2 * k, 2 * (k * n + n - 1),
                            2 * ((n - 1) * n + k) + 1, 2 * k * n + 1])
    j = np.repeat(np.array([0, 1, 1, 2], dtype=np.int64), n)
    a, b = tris[owner, j], tris[owner, (j + 1) % 3]
    sort = np.argsort(np.minimum(a, b) * (n + 1) ** 2 + np.maximum(a, b))
    owner = owner[sort]
    edges = np.column_stack([a[sort], b[sort]])
    return Mesh(nodes, tris, edges, owner)


def _basis_gradients(mesh: Mesh):
    """Signed areas and P1 basis gradients of every triangle: ``gx[i]`` and
    ``gy[i]`` are the gradient components of barycentric basis ``i``, one
    row over all elements, each the opposite edge rotated and divided by
    twice the area.  An area that is not positive (a clockwise or
    degenerate triangle) raises :class:`AssemblyError`.

    The corners are read as contiguous rows in the order 0, 1, 2, 0, 1, so
    that rows ``1:4`` and ``2:5`` are each corner's two successors and every
    edge component is one subtraction of two ``(3, M)`` slices.  The area
    is the cross product of the edges from corner 0, two of those
    components: ``(x1 - x0)(y2 - y0) - (x0 - x2)(y0 - y1)``, whose second
    product equals ``(x2 - x0)(y1 - y0)`` up to the sign of a zero, which
    only a zero area can show."""
    x, y = mesh.corner_rows((0, 1, 2, 0, 1))
    gx = y[1:4] - y[2:5]
    gy = x[2:5] - x[1:4]
    areas = 0.5 * (gy[2] * gx[1] - gy[1] * gx[2])
    bad = np.flatnonzero(areas <= 0.0)
    if bad.size:
        raise AssemblyError(f"element {int(bad[0])} has non-positive area")
    two_a = 2.0 * areas
    gx /= two_a
    gy /= two_a
    return areas, gx, gy


# the P1 mass templates: Me[e] = area / 12 * _P1_MASS, and an edge's
# mass is h / 6 * _P1_EDGE_MASS
_P1_MASS = np.ones((3, 3)) + np.eye(3)
_P1_EDGE_MASS = np.array([[2.0, 1.0], [1.0, 2.0]])


def _element_blocks(mesh: Mesh, mu_r: float):
    """P1 stiffness and mass blocks as ``(3, 3, M)`` arrays: entry
    ``[i, j, e]`` of element ``e``.  ``grad_i . grad_j`` is formed from the
    gradient rows of :func:`_basis_gradients` and the mass from the module
    constant template, so every product's inner loop runs over all
    elements."""
    areas, gx, gy = _basis_gradients(mesh)
    Ke = gx[:, None] * gx[None]
    Ke += gy[:, None] * gy[None]
    Ke *= areas
    Ke /= mu_r
    return Ke, _P1_MASS[:, :, None] * (areas / 12.0)


def element_matrices(mesh: Mesh, mu_r: float = 1.0):
    """Per-element P1 stiffness and mass blocks.

    Returns ``(Ke, Me)`` with ``Ke[e] = area * grad . grad / mu_r``
    and ``Me[e] = area / 12 * (ones + I)``: the blocks of
    :func:`_element_blocks`, laid out element by element.
    """
    return tuple(np.ascontiguousarray(B.transpose(2, 0, 1))
                 for B in _element_blocks(mesh, mu_r))


def edge_lengths(nodes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of each ``(a, b)`` node pair: :func:`vector_lengths` of
    ``b - a``."""
    a, b = nodes[edges.T]
    return vector_lengths(b - a)


def vector_lengths(d: np.ndarray) -> np.ndarray:
    """Length of each row of ``d``.

    ``np.vecdot`` runs the same BLAS dot per row as ``np.linalg.norm`` does
    on one vector, so each length is bit-identical to that norm.
    """
    return np.sqrt(np.vecdot(d, d))


def edge_mass(h) -> np.ndarray:
    """1-D P1 mass matrix of an edge of length ``h``; for an array of
    lengths, one ``(2, 2)`` block per entry."""
    h = np.asarray(h, dtype=np.float64)
    return (h / 6.0)[..., None, None] * _P1_EDGE_MASS


def _dedup_sum(rows, cols, vals, n):
    # Deterministic duplicate summation: stable lexsort keeps insertion order
    # within each (row, col) group, so mirrored entries sum identically and
    # the result is exactly symmetric whenever the triples are.
    import scipy.sparse as sp    # the solver itself never loads it
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


def boundary_normals(d: np.ndarray) -> np.ndarray:
    """Unit outward normal ``(dy, -dx) / |d|`` of each boundary edge from
    its vector ``d = b - a``, running as the edge ``(a, b)`` does,
    counter-clockwise around its owner.  ``|d|`` is the square root of the
    two squares summed in column order, the bits of ``np.linalg.norm`` over
    each row."""
    nrm = np.column_stack([d[:, 1], -d[:, 0]])
    nx, ny = nrm.T
    nrm /= np.sqrt(nx * nx + ny * ny)[:, None]
    return nrm


def boundary_load(mesh: Mesh, edges: np.ndarray, start: np.ndarray,
                  at: np.ndarray, size: int, k: float, theta_inc: float) -> np.ndarray:
    """Plane-wave loads of several boundary pieces in one pass.

    ``edges[start[s]:start[s + 1]]`` are the edges of piece ``s``, oriented
    as in the mesh, and ``at`` (shaped like ``edges``) the positions their
    endpoints add into, in a vector of length ``size``.  The incident field is
    ``exp(-jk (x cos t + y sin t))`` and the boundary data
    ``g = dn(u_inc) - jk u_inc`` is integrated against the P1 traces on each
    edge with 4-point Gauss quadrature.

    Every step but one runs once over all edges and all four Gauss points,
    as ``(Gauss point, edge)`` arrays: each value is the product
    ``((w h) g)(1 - t)`` or ``((w h) g) t`` of a per-point loop, so it keeps
    that loop's bits.  The projections on the direction (``@``, a BLAS
    ``dgemv``) round a row differently depending on the batch it is in, so
    they are taken piece by piece: each piece gets the bits it would get
    alone.  Contributions add in the order (Gauss point, endpoint, edge), as
    when each piece is integrated on its own.
    """
    f = np.zeros(size, dtype=np.complex128)
    if edges.size == 0:
        return f
    d = np.array([math.cos(theta_inc), math.sin(theta_inc)])
    a, b = mesh.nodes[edges.T]
    ab = b - a
    h = vector_lengths(ab)
    # row 0: the outward normals; row 1 + q: Gauss point q of every edge
    x = np.empty((1 + _GAUSS_T.size, *a.shape))
    x[0] = boundary_normals(ab)
    np.multiply(_GAUSS_T[:, None, None], ab, out=x[1:])
    x[1:] += a
    proj = np.empty(x.shape[:2])
    bounds = np.asarray(start).tolist()
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e > s:
            np.matmul(x[:, s:e], d, out=proj[:, s:e])
    coef = -1j * k * (proj[0] + 1.0)              # g = coef * u_inc on each edge
    g = coef * np.exp(-1j * k * proj[1:])
    wg = (_GAUSS_W[:, None] * h) * g
    vals = wg[:, None] * _GAUSS_ENDS              # (Gauss point, endpoint, edge)
    np.add.at(f, np.concatenate([np.asarray(at).T] * _GAUSS_T.size).reshape(-1),
              vals.reshape(-1))
    return f


def incident_boundary_load(mesh: Mesh, edges: np.ndarray, k: float,
                           theta_inc: float) -> np.ndarray:
    """Load vector over all mesh nodes from a plane wave entering through
    ``edges``: :func:`boundary_load` with one piece."""
    return boundary_load(mesh, edges, [0, edges.shape[0]], edges,
                         mesh.n_nodes, k, theta_inc)


def helmholtz_blocks(mesh: Mesh, cfg: ProblemConfig, edges: np.ndarray):
    """Element blocks ``Ke - k^2 eps_r Me`` of every triangle, ``(M, 3, 3)``,
    and Robin blocks ``-jk M_edge`` of ``edges``, ``(B, 2, 2)``."""
    k = cfg.k
    Ke, Me = _element_blocks(mesh, cfg.mu_r)
    # subtracting in real arithmetic, then widening, gives the bits of the
    # complex subtraction (imaginary parts 0.0 - 0.0) without its
    # temporaries; the widening lays the blocks out element by element
    Me *= k * k * cfg.eps_r
    Ke -= Me
    del Me
    return (Ke.transpose(2, 0, 1).astype(np.complex128, order="C"),
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
    f = incident_boundary_load(mesh, be, cfg.k, cfg.theta_inc)
    return A, f


def partition_mesh(mesh: Mesh, px: int, py: int) -> Partition:
    """Axis-aligned tiling into ``px x py`` domains by element centroid.

    The tiles along x and y are found in one pass over the corners'
    contiguous rows (:meth:`Mesh.corner_rows`): each centroid is its three
    corners summed in order and divided by 3, which has the bits of their
    mean, and no reduction runs over a short axis.

    Interfaces are the maximal chains of element edges shared by two distinct
    domains, grouped per (lower, higher) domain pair in ascending pair order
    and, within a pair, walked from their smaller endpoint in ascending
    order of that endpoint.  On grids whose interval count is not divisible
    by the tile counts, tile lines cut through cells and the chains simply
    follow the resulting staircase of cell edges.  The tile counts must be
    integers of at least 1; anything else raises :class:`PartitionError`.
    """
    try:
        px, py = operator.index(px), operator.index(py)
    except TypeError:
        raise PartitionError(f"px and py must be integers, got {px!r} and "
                             f"{py!r}") from None
    if px < 1 or py < 1:
        raise PartitionError("px and py must be at least 1")
    # the tile of each centroid along x (row 0) and y (row 1); a centroid is
    # its corners summed in order and divided by 3, the bits of their mean
    c = mesh.corner_rows()
    nt = mesh.nodes.T.copy()
    lo, hi = nt.min(axis=1)[:, None], nt.max(axis=1)[:, None]
    p = np.array([[px], [py]])
    tile = (((c[:, 0] + c[:, 1] + c[:, 2]) / 3.0 - lo) / (hi - lo) * p).astype(np.int64)
    tx, ty = np.minimum(np.maximum(tile, 0), p - 1)
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
    two = np.flatnonzero(tab.start[1:] - tab.start[:-1] == 2)
    d0 = dom[tab.half[tab.start[two]] // 3]
    d1 = dom[tab.half[tab.start[two] + 1] // 3]
    cross = np.flatnonzero(d0 != d1)
    pair = (np.minimum(d0, d1) * n_domains + np.maximum(d0, d1))[cross]
    by_pair = np.argsort(pair, kind="stable")
    pair = pair[by_pair]
    first = np.flatnonzero(first_of_runs(pair))
    shared = tab.edges[two[cross[by_pair]]].tolist()
    bounds = np.append(first, len(shared)).tolist()
    dlos, dhis = np.divmod(pair[first], n_domains)

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
        # a chain starts at the first of its endpoints in ascending order
        # and steps to the neighbour it did not come from; a closed loop has
        # no endpoint, so its edges are never walked
        walked = 0
        far_ends = set()
        for start in sorted(n for n, ns in nbr.items() if len(ns) == 1):
            if start in far_ends:
                continue
            chain = [start, nbr[start][0]]
            while len(ns := nbr[chain[-1]]) == 2:
                chain.append(ns[1] if ns[0] == chain[-2] else ns[0])
            far_ends.add(chain[-1])
            walked += len(chain) - 1
            ends.append((dlo, dhi))
            nodes += chain
            sizes.append(len(chain))
        if walked < len(edge_list):
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
        mesh.boundary_edges[by_dom],
        exclusive_cumsum(np.bincount(bdom, minlength=n_domains)),
        incident, incident_start, np.sort(side),
        *_number_multipliers(ends, nodes, start, incident, incident_start))
    for a in vars(part).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return part


def interface_pairs(part: Partition):
    """Every pair of one domain's interfaces, each with itself included, a
    block of the domain's Schur complement: pair ``t`` joins slots ``sa[t]``
    and ``sb[t] <= sa[t]`` of one domain, ``sa`` ascending, then ``sb``."""
    # row sa, column k: slot sa - w + 1 + k, a pair where it is in sa's domain
    start = part.incident_start
    w = int((start[1:] - start[:-1]).max(initial=0))
    sa = np.arange(part.incident.size)
    sb = sa[:, None] + np.arange(1 - w, 1)
    pair = sb >= start[part.slot_domain][:, None]
    return pair.nonzero()[0], sb[pair]


def partition_graph(part: Partition) -> list[set[int]]:
    """The graph of the reduced system's blocks, read off the partition:
    one vertex per interface, and an edge for every pair of two interfaces
    of one domain (:func:`interface_pairs`), since that domain's Schur
    complement couples them.  It is the clique graph of the assembled K
    (``blockmat.clique_graph``), an interface without multipliers included;
    entry ``i`` holds the neighbors of interface ``i``."""
    inc = part.incident.tolist()
    sa, sb = interface_pairs(part)
    off = sa != sb
    g: list[set[int]] = [set() for _ in range(part.n_kept.size)]
    for a, b in zip(sa[off].tolist(), sb[off].tolist()):
        g[inc[a]].add(inc[b])
        g[inc[b]].add(inc[a])
    return g
