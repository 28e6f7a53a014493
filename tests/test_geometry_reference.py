"""The array front end against the element-by-element loops it replaced.

``build_rect_mesh``, ``partition_mesh`` (its multiplier numbering included),
``build_subdomain_systems``, ``assemble_helmholtz`` and ``assemble_reduced``
must reproduce these loop versions bit for bit: same dtype, same shape, same
bytes.  The loop partition keeps one object per interface and one edge
array per domain; the array partition must equal their concatenations.
The band ``A`` and the row-restricted coupling blocks of a subdomain are
densified first; the dense copies must equal the loops' dense arrays.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GEOMETRIES, add_block, dense_coupling, dense_matrix, interfaces
from ddsolve import blockmat, mesh as mm, subdomain as sd


# ---------------------------------------------------------------- references

def reference_build_rect_mesh(side_lambda, ppw):
    n = mm.grid_intervals(side_lambda, ppw)
    h = side_lambda / n
    xs = np.arange(n + 1) * h
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.reshape(-1), Y.reshape(-1)])

    def nid(ix, iy):
        return iy * (n + 1) + ix

    tris = np.empty((2 * n * n, 3), dtype=np.int64)
    e = 0
    for iy in range(n):
        for ix in range(n):
            v00 = nid(ix, iy)
            v10 = nid(ix + 1, iy)
            v11 = nid(ix + 1, iy + 1)
            v01 = nid(ix, iy + 1)
            tris[e] = (v00, v10, v11)
            tris[e + 1] = (v00, v11, v01)
            e += 2

    edges = []
    owners = []
    use = {}
    for t, tri in enumerate(tris):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            use.setdefault(key, []).append((t, int(a), int(b)))
    for key in sorted(use):
        hits = use[key]
        if len(hits) == 1:
            t, a, b = hits[0]
            edges.append((a, b))
            owners.append(t)
    return mm.Mesh(nodes, tris,
                   np.array(edges, dtype=np.int64).reshape(-1, 2),
                   np.array(owners, dtype=np.int64))


def reference_edge_use_counts(mesh):
    use = {}
    for e, tri in enumerate(mesh.tris):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            use.setdefault(key, []).append(e)
    return use


def reference_partition_mesh(mesh, px, py):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    span = hi - lo
    centroids = mesh.nodes[mesh.tris].mean(axis=1)
    tx = np.clip(((centroids[:, 0] - lo[0]) / span[0] * px).astype(np.int64), 0, px - 1)
    ty = np.clip(((centroids[:, 1] - lo[1]) / span[1] * py).astype(np.int64), 0, py - 1)
    dom = ty * px + tx
    n_domains = px * py

    pair_edges = {}
    for (a, b), tris in sorted(reference_edge_use_counts(mesh).items()):
        if len(tris) != 2:
            continue
        d0, d1 = int(dom[tris[0]]), int(dom[tris[1]])
        if d0 == d1:
            continue
        key = (min(d0, d1), max(d0, d1))
        pair_edges.setdefault(key, []).append((a, b))

    interfaces = []
    for (dlo, dhi), edge_list in sorted(pair_edges.items()):
        nbr = {}
        for a, b in edge_list:
            nbr.setdefault(a, []).append(b)
            nbr.setdefault(b, []).append(a)
        for node, ns in nbr.items():
            if len(ns) > 2:
                raise mm.PartitionError(
                    f"interface ({dlo}, {dhi}) branches at node {node}")
        remaining = {tuple(sorted(e)) for e in edge_list}
        endpoints = sorted(n for n, ns in nbr.items() if len(ns) == 1)
        chains = []
        for start in endpoints:
            if not any(tuple(sorted((start, u))) in remaining for u in nbr[start]):
                continue
            chain = [start]
            prev = -1
            cur = start
            while True:
                nxt = [u for u in nbr[cur] if u != prev
                       and tuple(sorted((cur, u))) in remaining]
                if not nxt:
                    break
                u = nxt[0]
                remaining.discard(tuple(sorted((cur, u))))
                chain.append(u)
                prev, cur = cur, u
            chains.append(chain)
        if remaining:
            raise mm.PartitionError(
                f"interface ({dlo}, {dhi}) contains a closed loop")
        for chain in sorted(chains, key=lambda c: min(c[0], c[-1])):
            if chain[-1] < chain[0]:
                chain = chain[::-1]
            interfaces.append(SimpleNamespace(dom_lo=dlo, dom_hi=dhi,
                                              nodes=np.array(chain, dtype=np.int64)))

    boundary = []
    boundary_owner = []
    for d in range(n_domains):
        sel = dom[mesh.boundary_owner] == d
        boundary.append(mesh.boundary_edges[sel])
        boundary_owner.append(mesh.boundary_owner[sel])
    return SimpleNamespace(n_domains=n_domains, domain_of_elem=dom, interfaces=interfaces,
                           boundary=boundary, boundary_owner=boundary_owner)


def reference_interface_lambda_nodes(part):
    """The kept multiplier nodes of each interface of a loop partition."""
    node_ifaces = {}
    for idx, itf in enumerate(part.interfaces):
        for v in itf.nodes:
            node_ifaces.setdefault(int(v), []).append(idx)
    drops = set()
    for v in sorted(node_ifaces):
        ifs = node_ifaces[v]
        if len(ifs) < 2:
            continue
        parent = {}

        def find(x):
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
    return [np.array([int(v) for v in itf.nodes if (idx, int(v)) not in drops],
                     dtype=np.int64)
            for idx, itf in enumerate(part.interfaces)]


def reference_incident_boundary_load(mesh, edges, owners, k, theta_inc):
    """The load of one boundary piece, integrated on its own."""
    f = np.zeros(mesh.n_nodes, dtype=np.complex128)
    if edges.size == 0:
        return f
    nrm = mm.boundary_normals(mesh, edges, owners)
    d = np.array([math.cos(theta_inc), math.sin(theta_inc)])
    a = mesh.nodes[edges[:, 0]]
    b = mesh.nodes[edges[:, 1]]
    h = mm.edge_lengths(mesh.nodes, edges)
    coef = -1j * k * (nrm @ d + 1.0)
    for t, w in zip(mm._GAUSS_T, mm._GAUSS_W):
        pts = a + t * (b - a)
        uinc = np.exp(-1j * k * (pts @ d))
        g = coef * uinc
        f_a = w * h * g * (1.0 - t)
        f_b = w * h * g * t
        np.add.at(f, edges[:, 0], f_a)
        np.add.at(f, edges[:, 1], f_b)
    return f


def reference_assemble_reduced(reduced, part):
    """K block by block through ``add_block`` (a copy, then sums), and g
    interface by interface."""
    sizes = np.array([x.size for x in reference_interface_lambda_nodes(part)],
                     dtype=np.int64)
    K = blockmat.BlockSparseSym(sizes)
    g = [np.zeros(int(s), dtype=np.complex128) for s in sizes]
    for d, (K_D, g_d) in enumerate(reduced):
        ifaces = [i for i, itf in enumerate(part.interfaces)
                  if itf.dom_lo == d or itf.dom_hi == d]
        off = np.zeros(len(ifaces) + 1, dtype=np.int64)
        np.cumsum(sizes[ifaces], out=off[1:])
        for a, ia in enumerate(ifaces):
            g[ia] += g_d[off[a]:off[a + 1]]
            for b, ib in enumerate(ifaces):
                if ia >= ib:
                    add_block(K, ia, ib, K_D[off[a]:off[a + 1], off[b]:off[b + 1]])
    return K, g


def reference_interface_mass_matrix(mesh, nodes):
    n = nodes.size
    M = np.zeros((n, n))
    for t in range(n - 1):
        h = float(np.linalg.norm(mesh.nodes[nodes[t + 1]] - mesh.nodes[nodes[t]]))
        M[t:t + 2, t:t + 2] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    return M


def reference_build_subdomain_systems(mesh, part, cfg):
    k = cfg.k
    alpha = cfg.alpha
    Ke, Me = mm.element_matrices(mesh, cfg.mu_r)
    Ae = Ke.astype(np.complex128) - (k * k * cfg.eps_r) * Me
    lam_nodes = reference_interface_lambda_nodes(part)
    systems = []
    for d in range(part.n_domains):
        elems = np.flatnonzero(part.domain_of_elem == d)
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
        incident = [i for i, itf in enumerate(part.interfaces)
                    if itf.dom_lo == d or itf.dom_hi == d]
        for i_itf in incident:
            itf = part.interfaces[i_itf]
            sign = 1 if itf.dom_lo == d else -1
            Mg = reference_interface_mass_matrix(mesh, itf.nodes)
            rows = np.array([g2l[int(v)] for v in itf.nodes])
            A[np.ix_(rows, rows)] += (sign * alpha) * Mg
            kept = lam_nodes[i_itf]
            cols = np.array([int(np.flatnonzero(itf.nodes == v)[0]) for v in kept],
                            dtype=np.int64)
            D = np.zeros((nd, kept.size), dtype=np.complex128)
            if kept.size:
                D[rows[:, None], np.arange(kept.size)[None, :]] = sign * Mg[:, cols]
            couplings.append(SimpleNamespace(interface=i_itf, D=D, sign=sign))
        f = reference_incident_boundary_load(
            mesh, part.boundary[d], part.boundary_owner[d], k, cfg.theta_inc)[loc_nodes]
        systems.append(SimpleNamespace(domain=d, A=A, f=f, dof_map=loc_nodes,
                                       couplings=couplings))
    return systems


def reference_assemble_helmholtz(mesh, cfg):
    k = cfg.k
    Ke, Me = mm.element_matrices(mesh, cfg.mu_r)
    Ae = Ke.astype(np.complex128) - (k * k * cfg.eps_r) * Me
    rows = np.repeat(mesh.tris, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.tris, (1, 3)).reshape(-1)
    vals = Ae.reshape(-1)
    be = mesh.boundary_edges
    a = mesh.nodes[be[:, 0]]
    b = mesh.nodes[be[:, 1]]
    h = np.linalg.norm(b - a, axis=1)
    scale = (-1j * k) * (h / 6.0)
    brows = np.column_stack([be[:, 0], be[:, 0], be[:, 1], be[:, 1]]).reshape(-1)
    bcols = np.column_stack([be[:, 0], be[:, 1], be[:, 0], be[:, 1]]).reshape(-1)
    bvals = np.column_stack([2 * scale, scale, scale, 2 * scale]).reshape(-1)
    A = mm._dedup_sum([rows, brows], [cols, bcols], [vals, bvals], mesh.n_nodes)
    f = reference_incident_boundary_load(mesh, be, mesh.boundary_owner, k, cfg.theta_inc)
    return A, f


# ---------------------------------------------------------------- comparison

def assert_same(a, b, what):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}"
    assert a.tobytes() == b.tobytes(), f"{what}: bytes differ"


def assert_front_end_matches(side, ppw, px, py, theta=0.3):
    m = mm.build_rect_mesh(side, ppw)
    ref_m = reference_build_rect_mesh(side, ppw)
    for name in ("nodes", "tris", "boundary_edges", "boundary_owner"):
        assert_same(getattr(m, name), getattr(ref_m, name), f"mesh.{name}")

    part = mm.partition_mesh(m, px, py)
    ref_p = reference_partition_mesh(m, px, py)
    assert_partition_matches(part, ref_p)

    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py, theta_inc=theta)
    systems = sd.build_subdomain_systems(m, part, cfg)
    ref_s = reference_build_subdomain_systems(m, ref_p, cfg)
    assert len(systems) == len(ref_s)
    for s, r in zip(systems, ref_s):
        assert s.domain == r.domain
        assert_same(dense_matrix(s), r.A, f"A[{s.domain}]")
        assert not s.A[:s.kl].any(), f"LU fill rows of A[{s.domain}]"
        assert_same(s.f, r.f, f"f[{s.domain}]")
        assert_same(s.dof_map, r.dof_map, f"dof_map[{s.domain}]")
        assert [(c.interface, c.sign) for c in s.couplings] == \
            [(c.interface, c.sign) for c in r.couplings]
        for c, rc in zip(s.couplings, r.couplings):
            assert_same(dense_coupling(s, c), rc.D, f"D[{s.domain}, {c.interface}]")

    A, f = mm.assemble_helmholtz(m, cfg)
    ref_A, ref_f = reference_assemble_helmholtz(m, cfg)
    for name in ("data", "indices", "indptr"):
        assert_same(getattr(A, name), getattr(ref_A, name), f"monolithic A.{name}")
    assert_same(f, ref_f, "monolithic f")

    reduced = [sd.reduce_domain(s) for s in systems]
    assert_reduced_matches(sd.assemble_reduced(reduced, part),
                           *reference_assemble_reduced(reduced, ref_p))


def assert_partition_matches(part, ref_p):
    """The flat arrays of ``part`` against the loop partition's
    per-interface and per-domain pieces, concatenated."""
    def cat(pieces, dtype, shape):
        return np.concatenate([np.zeros(shape, dtype=dtype)] + list(pieces))

    itfs = ref_p.interfaces
    assert part.n_domains == ref_p.n_domains
    assert_same(part.domain_of_elem, ref_p.domain_of_elem, "domain_of_elem")
    assert_same(part.ends, cat([[(i.dom_lo, i.dom_hi)] for i in itfs], np.int64, (0, 2)),
                "ends")
    assert_same(part.chain_nodes, cat([i.nodes for i in itfs], np.int64, 0), "chain_nodes")
    assert_same(part.chain_start, np.cumsum([0] + [i.nodes.size for i in itfs]),
                "chain_start")
    assert_same(part.boundary_edges, cat(ref_p.boundary, np.int64, (0, 2)),
                "boundary_edges")
    assert_same(part.boundary_owner, cat(ref_p.boundary_owner, np.int64, 0),
                "boundary_owner")
    assert_same(part.boundary_start, np.cumsum([0] + [b.shape[0] for b in ref_p.boundary]),
                "boundary_start")
    for d in range(part.n_domains):
        start, end = part.incident_start[d:d + 2]
        assert part.incident[start:end].tolist() == [
            i for i, itf in enumerate(itfs) if d in (itf.dom_lo, itf.dom_hi)]
    ref_kept = reference_interface_lambda_nodes(ref_p)
    assert_same(part.n_kept, np.array([x.size for x in ref_kept], dtype=np.int64),
                "kept per interface")
    assert_same(part.chain_nodes[part.kept], cat(ref_kept, np.int64, 0), "lambda nodes")


def assert_reduced_matches(rsys, ref_K, ref_g):
    assert_same(rsys.K.sizes, ref_K.sizes, "K sizes")
    assert list(rsys.K.blocks) == list(ref_K.blocks), "K keys or their order"
    for key, blk in ref_K.blocks.items():
        assert_same(rsys.K.blocks[key], blk, f"K block {key}")
    assert_same(rsys.g, np.concatenate([np.zeros(0, dtype=np.complex128)] + ref_g), "g")


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_front_end_matches_loop_reference(name):
    side, ppw, tiles = GEOMETRIES[name]
    assert_front_end_matches(side, ppw, tiles, tiles)


@pytest.mark.parametrize("side,ppw,px,py", [
    (1.0, 10, 1, 1),      # no interfaces
    (1.3, 11, 3, 2),
    (0.7, 23, 5, 3),
    (1.5, 10, 15, 15),    # one cell per tile
    (1.7, 12, 6, 1),      # strips
])
def test_front_end_matches_loop_reference_on_tilings(side, ppw, px, py):
    assert_front_end_matches(side, ppw, px, py)


@pytest.mark.parametrize("theta_deg", [0.0, 37.0, 123.4, 200.0, 271.9, 333.3])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_loads_and_reduced_system_match_reference_at_angles(name, theta_deg):
    """Every domain's load, K and g at angles whose cos and sin are
    inexact, against each domain's load integrated on its own."""
    side, ppw, tiles = GEOMETRIES[name]
    theta = math.radians(theta_deg)
    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=tiles, py=tiles,
                           theta_inc=theta)
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, tiles, tiles)
    ref_p = reference_partition_mesh(m, tiles, tiles)
    systems = sd.build_subdomain_systems(m, part, cfg)
    for d, s in enumerate(systems):
        ref = reference_incident_boundary_load(
            m, ref_p.boundary[d], ref_p.boundary_owner[d], cfg.k, theta)
        assert_same(s.f, ref[s.dof_map], f"f[{d}]")
    assert_same(mm.incident_boundary_load(m, m.boundary_edges, m.boundary_owner,
                                          cfg.k, theta),
                reference_incident_boundary_load(m, m.boundary_edges,
                                                 m.boundary_owner, cfg.k, theta),
                "monolithic f")
    reduced = [sd.reduce_domain(s) for s in systems]
    assert_reduced_matches(sd.assemble_reduced(reduced, part),
                           *reference_assemble_reduced(reduced, ref_p))


@st.composite
def tilings(draw):
    """(side, ppw, px, py) with at most one tile per grid interval, so
    tile lines may cut through cells (staircase interfaces)."""
    ppw = draw(st.integers(10, 16))
    side = draw(st.integers(2, 25)) / 10.0
    n = mm.grid_intervals(side, ppw)
    px = draw(st.integers(1, min(n, 9)))
    py = draw(st.integers(1, min(n, 9)))
    return side, ppw, px, py


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tilings())
def test_front_end_matches_loop_reference_on_random_tilings(tiling):
    side, ppw, px, py = tiling
    assert_front_end_matches(side, ppw, px, py, theta=math.radians(37.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tilings())
def test_interfaces_partition_the_shared_edges(tiling):
    side, ppw, px, py = tiling
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, px, py)     # never raises on these tilings
    shared = {}
    for edge, tris in reference_edge_use_counts(m).items():
        doms = {int(part.domain_of_elem[t]) for t in tris}
        if len(tris) == 2 and len(doms) == 2:
            shared[edge] = tuple(sorted(doms))
    listed = {}
    for itf in interfaces(part):
        for a, b in zip(itf.nodes[:-1].tolist(), itf.nodes[1:].tolist()):
            edge = (min(a, b), max(a, b))
            assert edge not in listed, f"edge {edge} lies in two chains"
            listed[edge] = (itf.dom_lo, itf.dom_hi)
    assert listed == shared


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tilings())
def test_bandwidth_is_one_tile_row(tiling):
    """kl is the widest local index span of a domain's elements, and at most
    one grid row of the domain's nodes plus one."""
    side, ppw, px, py = tiling
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, px, py)
    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py)
    per_row = mm.grid_intervals(side, ppw) + 1
    for s in sd.build_subdomain_systems(m, part, cfg):
        loc = np.searchsorted(s.dof_map, m.tris[part.domain_of_elem == s.domain])
        assert s.kl == (loc.max(axis=1) - loc.min(axis=1)).max()
        widest_row = np.bincount(s.dof_map // per_row).max()
        assert s.kl <= widest_row + 1, (s.domain, s.kl, widest_row)
        assert s.A.shape == (3 * s.kl + 1, s.n_dofs) and s.A.flags.f_contiguous


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tilings())
def test_every_multiplier_couples_the_two_domains_of_its_interface(tiling):
    """Each multiplier is a column of exactly two domains' D, those of its
    interface's dom_lo and dom_hi, and its node is an interface row of both.
    A domain's D is its couplings side by side, and its ``lam_index`` lists
    their interfaces' multipliers in the same order."""
    side, ppw, px, py = tiling
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, px, py)
    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py)
    node = part.chain_nodes[part.kept]
    owner = np.repeat(np.arange(part.n_kept.size), part.n_kept)
    kept_start = np.concatenate([[0], np.cumsum(part.n_kept)])
    seen = [[] for _ in range(node.size)]
    for s in sd.build_subdomain_systems(m, part, cfg):
        rows = set(s.dof_map[s.interface_rows].tolist())
        for mult in s.lam_index.tolist():
            seen[mult].append(s.domain)
            assert int(node[mult]) in rows, (s.domain, mult)
        assert s.D.flags.c_contiguous
        assert all(np.shares_memory(c.D, s.D) for c in s.couplings)
        empty = np.zeros((s.interface_rows.size, 0), dtype=np.complex128)
        assert_same(np.concatenate([c.D for c in s.couplings] + [empty], axis=1),
                    s.D, f"D[{s.domain}]")
        assert s.lam_index.tolist() == [
            mult for c in s.couplings
            for mult in range(kept_start[c.interface], kept_start[c.interface + 1])]
    for mult, doms in enumerate(seen):
        assert doms == part.ends[owner[mult]].tolist(), mult
