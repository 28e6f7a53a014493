"""Per-subdomain systems, interface multipliers, and the reduced system.

Each subdomain gets a sparse complex-symmetric matrix

    A_d = S_d - k^2 eps_r M_d - jk B_d(outer) + s * alpha * M_interface

with ``s = +1`` on the lower-indexed side of every incident interface and
``-1`` on the higher-indexed side, a coupling block ``D = s * M_interface``
into the single multiplier set of that interface, and the restriction of the
incident-wave load.  Under the mesh's natural numbering A_d of a tile is
banded, with a lower and upper bandwidth ``kl`` of about one tile row of
nodes, so it is built and solved in LAPACK band storage (``zgbsv``); no
dense n_d x n_d array is formed.  Eliminating the subdomain unknowns yields
the reduced block system ``K lambda = g`` with one supernode per interface.

Tile classes: the medium is homogeneous and the mesh's coordinates are
exact multiples of its spacing (:func:`mesh.grid_spacing`), so tiles of one
shape and one position pattern of interfaces and signs get byte-equal band
buffers, coupling rows and interface rows.  :func:`tile_classes` groups
them (9 classes on any tiling of at least 3x3 tiles that divides the grid),
and :func:`reduce_domains` factors each class once, as finite-array domain
decomposition factors one unit cell for every repeated cell (Vouvakis,
Cendes & Lee 2006).  Only the members' loads differ, and an interior tile
carries none.  Every K_D, g_d and recovered value keeps the bits it gets
when its domain is reduced and recovered alone.

Multiplier space: one dof per interface chain node, except that at nodes
where several interfaces meet, the interfaces whose domain pair closes a
cycle in the local domain-connectivity graph drop their dof at that node.
Keeping all duplicates there would give the stacked trace constraints a
one-dimensional redundancy per cross node and make K exactly singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockmat import BlockSparseSym, _ragged_blocks, exclusive_cumsum, \
    first_of_runs, ragged_arange
from .factor import DEFAULT_PIVOT_TOL, PanelLayout, blas_matmul, check_pivot_tol, \
    scipy_linalg_routines
from .mesh import Mesh, Partition, ProblemConfig, boundary_load, edge_mass, \
    helmholtz_blocks, incident_boundary_load, interface_pairs, vector_lengths


zgbsv, zgbtrs = scipy_linalg_routines("_flapack", "zgbsv", "zgbtrs")


# Runs of Schur-block entries this long or longer are written by slices,
# run by run; shorter ones by index arrays over all their entries
# (:func:`_add_schur_blocks`).  A slice costs 2-4 us a run, the index arrays
# about 10 ns an entry plus a fixed 40 us; the two break even at runs of
# 81-144 entries on the tilings measured.
SLICE_MIN = 100


class SingularDomainError(Exception):
    pass


class SolverStateError(Exception):
    pass


@dataclass(eq=False)
class Coupling:
    interface: int
    D: np.ndarray          # the interface's columns of SubdomainSystem.D
    sign: int


@dataclass(eq=False)
class SubdomainSystem:
    """``A`` is the domain's one band buffer, a Fortran-ordered
    ``(3 kl + 1) x n_dofs`` array.  Until :func:`reduce_domain` it holds A_d
    in LAPACK band storage with ``kl`` sub- and ``kl`` superdiagonals and
    room for the LU's fill: entry ``[2 kl + i - j, j]`` is ``A_d[i, j]`` for
    ``|i - j| <= kl``, and its first ``kl`` rows are zero.  The reduce
    factors it in place and sets ``piv``: from then on ``A`` holds the
    LAPACK band LU ``P A_d = L U`` (``zgbsv``, partial pivoting), whose U
    has ``2 kl`` superdiagonals and its diagonal in row ``2 kl``, or a copy
    of it that :func:`reduce_domains` makes.  A reduce that finds A_d
    singular sets ``A`` to None, as the buffer then holds neither A_d nor a
    usable LU.  The couplings are zero outside the rows
    ``interface_rows``, and ``D`` holds those rows only, C-ordered, with one
    column per multiplier of ``lam_index`` (see :attr:`Partition.lam_index`);
    each coupling's ``D`` is a view of its interface's columns."""

    domain: int
    A: np.ndarray
    f: np.ndarray
    dof_map: np.ndarray    # local -> global node index
    interface_rows: np.ndarray   # sorted local dofs of the interface chain nodes
    D: np.ndarray
    lam_index: np.ndarray        # global multiplier of each column of D
    couplings: list[Coupling] = field(default_factory=list)
    piv: np.ndarray | None = None    # the LU's pivots, set by the reduce

    @property
    def n_dofs(self) -> int:
        return int(self.dof_map.size)

    @property
    def kl(self) -> int:
        return (self.A.shape[0] - 1) // 3

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve A_d X = B with the LU (``zgbtrs``); accepts a vector or a
        multi-column RHS."""
        if self.piv is None:
            raise SolverStateError(
                f"domain {self.domain} has no cached factorization; "
                "run reduce_domain first")
        X, _ = zgbtrs(self.A, self.kl, self.kl, B, self.piv)
        return X


@dataclass(eq=False)
class ReducedSystem:
    """``K lambda = g``: ``g`` is a flat vector in block order, the
    multiplier numbering of :attr:`Partition.lam_index`, and ``sizes`` the
    block sizes, the multipliers of each interface.  ``K`` is the block
    matrix that :func:`assemble_reduced` builds; :func:`place_reduced`
    adds the blocks straight into the factor's panels, builds no K and
    leaves it None."""

    g: np.ndarray
    sizes: np.ndarray
    K: BlockSparseSym | None = None

    @property
    def n_lambda(self) -> int:
        return int(self.g.size)


def _chain_mass(mesh: Mesh, nodes: np.ndarray, start: np.ndarray):
    """Diagonal and superdiagonal of the 1-D P1 mass matrix of each chain,
    and the mask of the chain nodes that are not a chain's last.

    ``diag[p]`` belongs to chain node ``p``; ``off[p]`` couples ``p`` and
    ``p + 1`` within a chain and is zero at a chain's last node.
    """
    interior = np.ones(nodes.size, dtype=bool)
    interior[start[1:] - 1] = False
    e = np.flatnonzero(interior)
    blk = edge_mass(vector_lengths(mesh.nodes[nodes[e + 1]] - mesh.nodes[nodes[e]]))
    diag = np.zeros(nodes.size)
    diag[e] = blk[:, 0, 0]
    diag[e + 1] += blk[:, 1, 1]
    off = np.zeros(nodes.size)
    off[e] = blk[:, 0, 1]
    return diag, off, interior


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
    band matrices live in one buffer and are filled by three ``np.add.at``
    calls, each of which adds sequentially.  Each entry receives its terms
    in a fixed order: element blocks in ascending element order, then the
    Robin blocks of the domain's outer boundary edges, then ``+-alpha``
    times the chain mass of each incident interface in ascending interface
    order.  Chain mass terms outside its tridiagonal band are exact zeros
    and are left out, so every entry has the bits of the same sums into a
    dense matrix.
    A domain's coupling matrix ``D`` holds ``+-M_chain[:, kept]`` of each
    incident interface side by side, at the domain's interface rows only,
    in the columns that :attr:`Partition.lam_index` gives the domain.
    """
    alpha = cfg.alpha
    bd = part.boundary_edges
    Ae, Be = helmholtz_blocks(mesh, cfg, bd)
    n_dom = part.n_domains
    n_nodes = mesh.n_nodes
    dom = part.domain_of_elem

    # local numbering: the sorted nodes of each domain's elements, by one
    # sort and a mask of the first of equal keys.  A node's position in
    # keys is its local index plus first[d].
    elem_key = dom[:, None] * n_nodes + mesh.tris
    keys = np.sort(elem_key, axis=None)
    keys = keys[first_of_runs(keys)]
    first = keys.searchsorted(np.arange(n_dom + 1) * n_nodes)
    nd = first[1:] - first[:-1]
    pos = keys.searchsorted(elem_key)
    p0, p1, p2 = pos.T
    kl = np.zeros(n_dom, dtype=np.int64)
    np.maximum.at(kl, dom, np.maximum(np.maximum(p0, p1), p2)
                  - np.minimum(np.minimum(p0, p1), p2))
    ld = 3 * kl + 1
    a_off = exclusive_cumsum(ld * nd)
    # local entry (i, j) of domain d sits at a_off[d] + j ld[d] + 2 kl[d] + i - j
    # of the buffer; in positions in keys, at base[d] + pos_i + step[d] pos_j
    step = ld - 1
    base = a_off[:-1] + 2 * kl - first[:-1] * ld

    def entry(d, pi, pj):
        """Buffer position of the band entry of domain d at positions
        (pi, pj) in keys."""
        return base[d] + pi + step[d] * pj

    # element, then Robin blocks
    A_all = np.zeros(int(a_off[-1]), dtype=np.complex128)
    de = dom[:, None, None]
    np.add.at(A_all, entry(de, pos[:, :, None], pos[:, None, :]).reshape(-1),
              Ae.reshape(-1))
    db = np.repeat(np.arange(n_dom), part.boundary_start[1:] - part.boundary_start[:-1])
    bpos = keys.searchsorted(db[:, None] * n_nodes + bd)
    db = db[:, None, None]
    np.add.at(A_all, entry(db, bpos[:, :, None], bpos[:, None, :]).reshape(-1),
              Be.reshape(-1))

    # interface terms, slot by slot: slot t is interface inc[t] of domain
    # dom_t[t], on its lower side (side_t 0, +alpha) or its higher side
    # (side_t 1, -alpha).  Slot row r_off[t] + r is chain node r of slot t:
    # chain position q, position at in keys, domain dk.  Each domain's
    # slots come in ascending interface order.  The chain mass is
    # tridiagonal; its diagonal terms are listed first, then its super- and
    # subdiagonal ones.  Only diagonal entries take terms from two slots (a
    # node where interfaces meet), since an edge lies on one interface, so
    # every entry still adds its terms in slot order.
    start = part.chain_start
    diag, off, interior = _chain_mass(mesh, part.chain_nodes, start)
    inc = part.incident
    dom_t = part.slot_domain
    side_t = (part.ends[inc, 1] == dom_t).astype(np.int64)
    n_chain = (start[1:] - start[:-1])[inc]
    r_off = exclusive_cumsum(n_chain)
    t = np.repeat(np.arange(inc.size), n_chain)
    q = start[inc[t]] + ragged_arange(n_chain)
    dk = dom_t[t]
    at = keys.searchsorted(dk * n_nodes + part.chain_nodes[q])
    rb, cs = base[dk] + at, step[dk] * at     # entry(dk, at_i, at_j) = rb_i + cs_j
    k = np.flatnonzero(interior[q])           # rows with a successor in their chain
    coef = np.array([1 * alpha, -1 * alpha])[side_t[t]]   # sign * alpha, zero signs included
    coef_off = coef[k] * off[q[k]]
    np.add.at(A_all, np.concatenate([rb + cs, rb[k] + cs[k + 1], rb[k + 1] + cs[k]]),
              np.concatenate([coef * diag[q], coef_off, coef_off]))

    # coupling matrices.  A domain's interface rows are its chain nodes,
    # sorted, and its D holds those rows only, one column per entry of its
    # lam_index; slot t has the columns part.lam_index[pos] for pos in
    # [lam_pos[t], lam_pos[t + 1]), and multiplier m sits at the m-th kept
    # chain position.
    is_row = np.zeros(keys.size, dtype=bool)
    is_row[at] = True
    row_at = np.flatnonzero(is_row)
    u_first = row_at.searchsorted(first)
    n_u = u_first[1:] - u_first[:-1]
    lam_pos = exclusive_cumsum(part.n_kept[inc])
    n_lam = part.lam_start[1:] - part.lam_start[:-1]
    d_off = exclusive_cumsum(n_u * n_lam)
    t, r, j = _ragged_blocks(n_chain, part.n_kept[inc])
    d, chain0, lam = dom_t[t], start[inc[t]], lam_pos[t] + j
    u = row_at.searchsorted(at[r_off[t] + r]) - u_first[d]
    col = np.flatnonzero(part.kept)[part.lam_index[lam]] - chain0
    D_all = np.zeros(int(d_off[-1]), dtype=np.complex128)
    D_all[d_off[d] + u * n_lam[d] + lam - part.lam_start[d]] = \
        (1 - 2 * side_t[t]) * _mass_entries(diag, off, chain0, r, col)
    rows_all = row_at - np.repeat(first[:-1], n_u)

    # loads: one piece per domain, scattered at the domains' local numbering
    f_all = boundary_load(mesh, bd, part.boundary_start, bpos, keys.size,
                          cfg.k, cfg.theta_inc)

    nodes_all = keys - np.repeat(np.arange(n_dom) * n_nodes, nd)
    first, a_off, u_first, d_off, n_u, n_lam, lam_start, slot_start, inc, \
        lam_pos, side_t = (x.tolist() for x in (
            first, a_off, u_first, d_off, n_u, n_lam, part.lam_start,
            part.incident_start, inc, lam_pos, side_t))
    systems = []
    for d, (n, w) in enumerate(zip(nd.tolist(), ld.tolist())):
        p, q = first[d], first[d + 1]
        l0, l1 = lam_start[d], lam_start[d + 1]
        D = D_all[d_off[d]:d_off[d + 1]].reshape(n_u[d], n_lam[d])
        couplings = [Coupling(inc[t], D[:, lam_pos[t] - l0:lam_pos[t + 1] - l0],
                              1 - 2 * side_t[t])
                     for t in range(slot_start[d], slot_start[d + 1])]
        systems.append(SubdomainSystem(
            d, A_all[a_off[d]:a_off[d + 1]].reshape(n, w).T, f_all[p:q], nodes_all[p:q],
            rows_all[u_first[d]:u_first[d + 1]], D, part.lam_index[l0:l1], couplings))
    return systems


def tile_classes(systems: list[SubdomainSystem]) -> list[list[int]]:
    """Positions in ``systems`` of the domains that share one band system,
    class by class in order of each class's first member, each class in
    domain order.

    Two domains share a class when their band buffers, coupling rows
    ``D`` and ``interface_rows`` are byte-equal: they then factor to the
    same LU and give the same K_D.  Domains are grouped by a cheap key (the
    band's and D's shapes and the interface rows' bytes), and a candidate
    joins a class only when its D and its whole band buffer equal the
    class's first member's.
    """
    reps: dict[tuple, list[list[int]]] = {}
    classes: list[list[int]] = []
    for i, s in enumerate(systems):
        if s.A is None:     # a failed reduce's domain: alone, so that it raises
            classes.append([i])
            continue
        key = (s.A.shape, s.D.shape, s.interface_rows.tobytes())
        for members in reps.setdefault(key, []):
            rep = systems[members[0]]
            # bytes compare bits (-0.0 is not +0.0); A.T reads a
            # Fortran-ordered band buffer in memory order
            if (rep.D.tobytes() == s.D.tobytes()
                    and rep.A.T.tobytes() == s.A.T.tobytes()):
                members.append(i)
                break
        else:
            classes.append([i])
            reps[key].append(classes[-1])
    return classes


def _reduce_class(members: list[SubdomainSystem], pivot_tol: float,
                  copy_lu: bool = False):
    """``(K_D, g_d)`` of every member of one tile class: one ``zgbsv`` on
    the first member's band, whose right-hand side holds D's columns at the
    interface rows and one load column per member.  K_D is one array shared
    by the members.  Every member then holds the one LU, factored in place
    on the first member's band or, with ``copy_lu``, copied out of it, and
    its pivots."""
    check_pivot_tol(pivot_tol)
    for s in members:
        if s.piv is not None:
            raise SolverStateError(
                f"domain {s.domain} is already reduced: its A holds the LU factors")
        if s.A is None:
            raise SolverStateError(
                f"domain {s.domain} has no A_d: a failed reduce overwrote it")
    rep = members[0]
    scale = float(np.abs(rep.A).max())
    if not math.isfinite(scale):
        raise ValueError(f"domain {rep.domain}: matrix has non-finite entries")
    kl = rep.kl
    rows = rep.interface_rows
    D_r = rep.D
    m = D_r.shape[1]
    rhs = np.zeros((rep.n_dofs, m + len(members)), dtype=np.complex128, order="F")
    rhs[rows, :m] = D_r
    rhs[:, m:] = np.array([s.f for s in members]).T
    # by position: overwrite_ab 1, overwrite_b 1
    lu, piv, X, _ = zgbsv(kl, kl, rep.A, rhs, 1, 1)
    pivot_min = float(np.abs(lu[2 * kl]).min())
    if pivot_min <= pivot_tol * scale:
        rep.A = None
        raise SingularDomainError(
            f"domain {rep.domain} is singular: smallest LU pivot {pivot_min:.3e} "
            f"(threshold {pivot_tol * scale:.3e})")
    if copy_lu:
        lu = lu.copy(order="F")
    for s in members:
        s.A, s.piv = lu, piv
    KG = blas_matmul(D_r.T, X[rows])
    K_D = KG[:, :m] + KG[:, :m].T
    K_D *= 0.5
    # one copy of the load columns, as a view would keep all of KG alive
    return [(K_D, g_d) for g_d in KG[:, m:].T.copy()]


def reduce_domain(sys: SubdomainSystem,
                  pivot_tol: float = DEFAULT_PIVOT_TOL):
    """Eliminate the subdomain unknowns: one LAPACK call (``zgbsv``: band LU
    with partial pivoting, then one multi-RHS solve) gives
    ``K_D = D^T A^-1 D`` (symmetrized, as A_d is complex symmetric) and
    ``g_d = D^T A^-1 f``, ordered by the domain's ``lam_index``.  D is
    nonzero only at the interface rows r, so it enters the right-hand side
    there, and ``[K_D g_d] = D_r^T X[r]``; K_D is exactly symmetric.  A zero
    load takes its solve column too, which leaves K_D's bits as they are.
    The factors are cached on the system for primal recovery.  This is
    :func:`reduce_domains` for a class of one.

    A_d is factored in place: afterwards ``sys.A`` holds the LU and
    ``sys.piv`` its pivots, also when f2py has to copy an ``A`` that is not
    Fortran-ordered.

    Raises :class:`SolverStateError` when the system is already reduced, as
    its ``A`` then holds the LU and not A_d, or when an earlier reduce found
    it singular; ``ValueError`` when A_d has a non-finite entry or
    ``pivot_tol`` fails :func:`~ddsolve.factor.check_pivot_tol`; and
    :class:`SingularDomainError` when ``min|U_kk| <= pivot_tol * max|A_d|``,
    an exactly singular A_d included, after which ``sys.A`` is None: the
    buffer holds the failed factors, which no later stage may read as A_d.
    """
    return _reduce_class([sys], pivot_tol)[0]


def reduce_domains(systems: list[SubdomainSystem],
                   pivot_tol: float = DEFAULT_PIVOT_TOL):
    """:func:`reduce_domain` of every domain, one band LU per tile class
    (:func:`tile_classes`): returns the ``(K_D, g_d)`` pairs in domain
    order and the number of classes.  Each pair has the bits that
    :func:`reduce_domain` gives that domain alone.  Classes are reduced in
    order of their first member, so a singular A_d raises for the lowest
    domain that has it.

    With fewer classes than domains, each class's LU is copied out of the
    band it was factored on, so that the build's one buffer of every band
    is freed: the LUs then take less than it.  With one class per domain
    they would take all of it, and each LU stays where it was factored."""
    reduced = [None] * len(systems)
    classes = tile_classes(systems)
    copy_lu = len(classes) < len(systems)
    for members in classes:
        pairs = _reduce_class([systems[i] for i in members], pivot_tol, copy_lu)
        for i, pair in zip(members, pairs):
            reduced[i] = pair
    return reduced, len(classes)


def _check_reduced(reduced, part: Partition) -> None:
    """Raise ``ValueError`` unless ``reduced`` holds one ``(K_D, g_d)``
    pair per domain of ``part``, each of the domain's multiplier count."""
    if len(reduced) != part.n_domains:
        raise ValueError(f"{len(reduced)} reduced domains given, the partition "
                         f"has {part.n_domains}")
    for d, ((K_D, g_d), n) in enumerate(zip(reduced, np.diff(part.lam_start).tolist())):
        if K_D.shape != (n, n):
            raise ValueError(f"domain {d}: reduced block is {K_D.shape}, "
                             f"expected ({n}, {n})")
        if g_d.shape != (n,):
            raise ValueError(f"domain {d}: reduced load is {g_d.shape}, "
                             f"expected ({n},)")


def _add_schur_blocks(reduced, part: Partition, pos, blocks_at) -> np.ndarray:
    """Add every domain's Schur blocks into one buffer, interface ``i`` at
    elimination position ``pos[i]``, and return g, the g_d summed through
    ``lam_index`` by one ``np.add.at`` in domain order.

    Each pair of a domain's interfaces (:func:`mesh.interface_pairs`) is a
    run of its K_D: the rows of the interface eliminated later, the columns
    of the other (K_D is exactly symmetric, as ``(x + y) * 0.5`` commutes),
    into block row ``hi`` of panel ``lo``.  ``blocks_at(hi, lo, shape,
    run0)`` of the distinct blocks, in ascending key order with their first
    runs, gives the buffer and each block's start.  A block's first run in
    domain order is copied, keeping a -0.0, and the other one added: an
    interface has two domains, and a two-term sum commutes bit for bit.
    Runs of ``SLICE_MIN`` entries or more are written by slices; the others
    by one gather from the distinct K_D (a tile class shares one), one
    assignment and one indexed sum over all their entries."""
    _check_reduced(reduced, part)
    inc = part.incident
    nk = part.n_kept[inc]
    nd = part.lam_start[1:] - part.lam_start[:-1]    # K_D's order per domain
    # slot s is interface inc[s] of its domain, at row r0[s] of its K_D
    r0 = exclusive_cumsum(nk)[:-1] - part.lam_start[part.slot_domain]
    sa, sb = interface_pairs(part)
    pa, pb = pos[inc[sa]], pos[inc[sb]]
    hi = np.where(pa < pb, sb, sa)              # the slot whose rows the run has
    lo = sa + sb - hi
    # run t: K_D[a[t]:, b[t]:] of domain d[t], n_rows[t] x width[t], into the
    # buffer from dst0[t]; first[t] if it is the first run into its block
    d, n_rows, width, a, b = part.slot_domain[sa], nk[hi], nk[lo], r0[hi], r0[lo]
    p_hi, p_lo = np.maximum(pa, pb), np.minimum(pa, pb)
    key = p_lo * pos.size + p_hi
    by_key = key.argsort(kind="stable")
    new = first_of_runs(key[by_key])
    run0 = by_key[new]
    buf, at = blocks_at(p_hi[run0], p_lo[run0],
                        np.stack([n_rows, width], axis=1)[run0], run0)
    dst0 = np.empty_like(by_key)
    dst0[by_key] = at[np.cumsum(new) - 1]
    first = np.zeros(key.size, dtype=bool)
    first[run0] = True
    size = n_rows * width
    del sa, sb, pa, pb, hi, lo, p_hi, p_lo, key, by_key, new, run0, at

    big = size >= SLICE_MIN
    for t, i, j, n, w, s, f in np.stack([d, a, b, n_rows, width, dst0, first],
                                        axis=1)[big].tolist():
        run = buf[s:s + n * w].reshape(n, w)
        blk = reduced[t][0][i:i + n, j:j + w]
        if f:
            run[...] = blk
        else:
            run += blk

    # the small runs, the first ones and then the others, each in domain
    # order, read from the distinct K_D concatenated from src0; row r of a
    # run starts at src and dst, and holds w entries
    small = np.flatnonzero(~big)
    if small.size:
        distinct = {id(K_D): K_D for K_D, _ in reduced}     # first-seen order
        kd_at = dict(zip(distinct, exclusive_cumsum(
            [K_D.size for K_D in distinct.values()]).tolist()))
        src0 = np.array([kd_at[id(K_D)] for K_D, _ in reduced], dtype=np.int64)[d]
        src0 += a * nd[d] + b
        copied = small[first[small]]
        small = np.concatenate([copied, small[~first[small]]])
        run = small.repeat(n_rows[small])
        r = ragged_arange(n_rows[small])
        src = src0[run] + r * nd[d[run]]
        dst = dst0[run] + r * width[run]
        w = width[run]
        j = ragged_arange(w)
        src = src.repeat(w)
        src += j
        vals = np.concatenate(list(distinct.values()), axis=None).take(src)
        del src
        dst = dst.repeat(w)
        dst += j
        del j
        n_copy = int(size[copied].sum())
        buf[dst[:n_copy]] = vals[:n_copy]
        buf[dst[n_copy:]] += vals[n_copy:]
    g = np.zeros(int(part.n_kept.sum()), dtype=np.complex128)
    np.add.at(g, part.lam_index, np.concatenate([g_d for _, g_d in reduced]))
    return g


def assemble_reduced(reduced, part: Partition) -> ReducedSystem:
    """Add per-domain Schur blocks into the block-sparse reduced system.

    ``reduced[d]`` is the ``(K_D, g_d)`` pair of domain ``d`` with rows and
    columns ordered as its multipliers in :attr:`Partition.lam_index`.  For
    every domain, in domain order, each pair ``(a, b)``, ``a >= b``, of its
    interfaces adds the slice of K_D at their rows and columns to block
    ``(a, b)`` of K: :func:`place_reduced`'s writer with every interface at
    its own position, into one buffer whose views are K's blocks, keyed in
    order of first insertion.  K's symmetry is checked by
    :func:`factor.block_ldlt`.
    """
    K = BlockSparseSym(part.n_kept)

    def blocks_at(hi, lo, shape, run0):
        size = shape[:, 0] * shape[:, 1]
        in_order = run0.argsort()
        at = np.empty_like(in_order)
        at[in_order] = exclusive_cumsum(size[in_order])[:-1]
        buf = np.empty(int(size.sum()), dtype=np.complex128)
        for i, j, s, n, w in np.column_stack([hi, lo, at, shape])[in_order].tolist():
            K.blocks[(i, j)] = buf[s:s + n * w].reshape(n, w)
        return buf, at

    g = _add_schur_blocks(reduced, part, np.arange(part.n_kept.size), blocks_at)
    return ReducedSystem(g, K.sizes, K)


def place_reduced(reduced, part: Partition, layout: PanelLayout) -> ReducedSystem:
    """Add the per-domain Schur blocks straight into the panels of
    ``layout``, whose plan orders the interfaces of ``part``: the blocks of
    :func:`assemble_reduced`'s K, bit for bit, by the same writer at the
    plan's positions, with no K built.  Returns g and the block sizes.  One
    sorted search finds the distinct blocks' slots (:meth:`PanelLayout.slots`),
    and a block with no slot raises
    :class:`~ddsolve.factor.FactorConsistencyError`.  Symmetry and finiteness
    are checked by :func:`~ddsolve.factor.factor_panels`."""
    def blocks_at(hi, lo, shape, run0):
        return layout.buf, layout.slot_at[layout.slots(hi, lo)]

    g = _add_schur_blocks(reduced, part, layout.plan.order.inverse(), blocks_at)
    return ReducedSystem(g, part.n_kept)


def recover_primal(systems: list[SubdomainSystem],
                   lam: np.ndarray) -> np.ndarray:
    """Back-substitute ``E_d = A_d^-1 (f_d - D_d lambda)`` with the cached
    band LU factors and assemble the global vector, averaging the duplicated
    interface values.  ``D_d lambda`` is one product at the interface rows,
    with the entries of the flat ``lam`` that ``lam_index`` names.

    Systems that hold one LU, the members of a tile class after
    :func:`reduce_domains`, are solved together: one product ``D Lambda``
    and one ``zgbtrs``, one column per member, a class of one included.
    Each column has the bits of that member's solve alone, and the columns
    add into the global vector in domain order."""
    cnt = np.bincount(np.concatenate([s.dof_map for s in systems]))
    acc = np.zeros(cnt.size, dtype=np.complex128)
    # an unreduced system is a class of its own, whose solve raises
    classes: dict[int, list[int]] = {}
    for i, s in enumerate(systems):
        classes.setdefault(id(s if s.piv is None else s.piv), []).append(i)
    E = [None] * len(systems)
    for members in classes.values():
        sys = systems[members[0]]
        rhs = np.array([systems[i].f for i in members]).T     # Fortran-ordered
        if sys.D.size:
            lam_cols = lam[np.array([systems[i].lam_index for i in members]).T]
            rhs[sys.interface_rows] -= blas_matmul(sys.D, lam_cols)
        X = sys.solve(rhs)
        for j, i in enumerate(members):
            E[i] = X[:, j]
    for sys, x in zip(systems, E):
        acc[sys.dof_map] += x
    return acc / cnt


def _apply_blocks(blocks: np.ndarray, nodes: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """``blocks[e] @ u[nodes[e]]`` for every row ``e``, as explicit products
    summed in column order."""
    un = u.take(nodes)
    y = blocks[:, :, 0] * un[:, :1]
    for j in range(1, nodes.shape[1]):
        y += blocks[:, :, j] * un[:, j:j + 1]
    return y


def global_residual(mesh: Mesh, cfg: ProblemConfig,
                    solution: np.ndarray) -> float:
    """Relative infinity-norm residual ``|A u - f|_inf / |f|_inf`` of the
    monolithic system, with A never formed.

    A u is taken element by element (Hughes, Levit & Winget 1983): each
    element block and each outer-boundary Robin block of
    :func:`mesh.helmholtz_blocks` is applied to its nodes' values of
    ``solution``.  The element products are summed into the nodes by
    ``np.bincount`` on the real and imaginary parts, and the Robin products
    are then added by ``np.add.at``: every node receives its terms in
    element order, then in boundary-edge order.  f is
    :func:`mesh.incident_boundary_load`.  The check reads only the mesh, the
    config and the element formula, nothing of the decomposition, and holds
    no global matrix.  It rounds differently from a CSR product ``A @ u``,
    so the two agree to rounding, not bit for bit.
    """
    n = mesh.n_nodes
    if solution.shape != (n,):
        raise ValueError(f"solution has shape {solution.shape}, expected ({n},)")
    be = mesh.boundary_edges
    Ae, Be = helmholtz_blocks(mesh, cfg, be)
    ye = _apply_blocks(Ae, mesh.tris, solution).reshape(-1)
    del Ae      # free the element blocks before the sums
    nodes = mesh.tris.reshape(-1)
    r = np.empty(n, dtype=np.complex128)
    r.real = np.bincount(nodes, ye.real, n)
    r.imag = np.bincount(nodes, ye.imag, n)
    np.add.at(r, be.reshape(-1), _apply_blocks(Be, be, solution).reshape(-1))
    f = incident_boundary_load(mesh, be, cfg.k, cfg.theta_inc)
    r -= f
    fnorm = float(np.abs(f).max()) if n else 0.0
    rnorm = float(np.abs(r).max()) if n else 0.0
    if fnorm == 0.0:
        return 0.0 if rnorm == 0.0 else float("inf")
    return rnorm / fnorm
