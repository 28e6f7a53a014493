"""Acceptance gates of the whole pipeline on hypothesis-drawn tilings.

The tilings are those of ``test_geometry_reference``: at most one tile per
grid interval, so tile lines may cut through cells (staircase interfaces).
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import graph_edges
from ddsolve import factor, mesh as mm, subdomain as sd
from ddsolve.blockmat import BlockMatrixError, clique_graph
from ddsolve.config import RunConfig
from ddsolve.driver import AGREEMENT_GATE, RESIDUAL_GATE, run_pipeline, run_verify
from ddsolve.factor import SCALAR_MAX, FactorConsistencyError, blas_matmul, \
    block_ldlt, block_solve
from ddsolve.ordering import reorder_with_plan
from test_block_factor import reference_block_ldlt
from test_geometry_reference import tilings


def cycle_rank(pairs) -> int:
    """E - V + C of the multigraph whose edges are the domain ``pairs``."""
    parent = {d: d for pair in pairs for d in pair}

    def root(d):
        while parent[d] != d:
            d = parent[d]
        return d

    for a, b in pairs:
        parent[root(a)] = root(b)
    n_components = len({root(d) for d in parent})
    return len(pairs) - len(parent) + n_components


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tilings())
def test_multiplier_drops_close_the_cycles_at_each_node(tiling):
    """At every node on two or more chains, as many multipliers are dropped
    as the interfaces through it close cycles among its domains, so the
    stacked trace constraints carry no redundancy and K is nonsingular."""
    side, ppw, px, py = tiling
    part = mm.partition_mesh(mm.build_rect_mesh(side, ppw), px, py)
    owner = np.repeat(np.arange(part.ends.shape[0]), np.diff(part.chain_start))
    at_node = {}
    for pos, v in enumerate(part.chain_nodes.tolist()):
        at_node.setdefault(v, []).append(pos)
    for v, positions in at_node.items():
        if len(positions) < 2:
            assert part.kept[positions].all(), v
            continue
        pairs = [tuple(part.ends[owner[p]].tolist()) for p in positions]
        dropped = int((~part.kept[positions]).sum())
        assert dropped == cycle_rank(pairs), (v, pairs)


def test_gates_hold_on_drawn_tilings():
    """The gates hold, and the drawn tilings have diagonal blocks on both
    sides of the cutoff between the scalar and the numpy kernel."""
    sizes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tilings(), st.floats(0.0, 2.0 * math.pi))
    def check(tiling, theta):
        side, ppw, px, py = tiling
        r = run_verify(RunConfig(mm.ProblemConfig(side_lambda=side, ppw=ppw,
                                                  px=px, py=py, theta_inc=theta)))
        assert r.report.residual_inf <= RESIDUAL_GATE
        assert r.report.rel_diff_monolithic <= AGREEMENT_GATE
        F = r.block_factor
        assert F.stats.factor_entries == r.plan.total_factor_entries
        # the panel buffer, diagonal blocks on top, the diagonal L factors and
        # K: one block per interface and per pair of interfaces of a domain
        n = F.plan.sizes_perm
        buffer = sum(p.size for p in F.panels) + int((n * n).sum())
        diag_l = sum(L.size for L in F.L)
        part = mm.partition_mesh(r.mesh, px, py)
        kept = part.n_kept.tolist()
        k_entries = sum(kept[i] * (kept[i] + sum(kept[j] for j in nbrs if j < i))
                        for i, nbrs in enumerate(mm.partition_graph(part)))
        assert F.stats.peak_bytes >= 16 * (buffer + diag_l + k_entries)
        sizes.update(n.tolist())

    check()
    assert any(0 < s <= SCALAR_MAX for s in sizes), sorted(sizes)
    assert any(s > SCALAR_MAX for s in sizes), sorted(sizes)


def library_system(side, ppw, px, py, theta=0.0):
    """The partition, the reduced subdomain systems, their Schur blocks and
    the reduced system, K included, of a tiling, as the library path
    assembles them."""
    problem = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                               theta_inc=theta)
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, px, py)
    systems = sd.build_subdomain_systems(m, part, problem)
    reduced, _ = sd.reduce_domains(systems)
    return part, systems, reduced, sd.assemble_reduced(reduced, part)


def assert_same_factor(F, G):
    """Two block factors hold the same arrays, byte for byte."""
    for name in ("d", "e", "tags", "perm", "growth"):
        assert getattr(F, name).tobytes() == getattr(G, name).tobytes(), name
    for name in ("L", "panels", "panel_rows"):
        assert [a.tobytes() for a in getattr(F, name)] == \
            [a.tobytes() for a in getattr(G, name)], name
    assert F.stats == G.stats


def named_block(err) -> tuple[int, int]:
    return tuple(map(int, re.search(r"block \((\d+), (\d+)\)", str(err)).groups()))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tilings(), st.data())
def test_factor_rejects_a_plan_missing_an_inherited_block(tiling, data):
    """Deleting from a parent's pattern one row that a child passed up to it
    makes the factor raise, before any column is factored, naming a block
    that the plan lacks and that the per-pair reference factor also finds
    missing."""
    side, ppw, px, py = tiling
    r = run_pipeline(RunConfig(mm.ProblemConfig(side_lambda=side, ppw=ppw,
                                                px=px, py=py)))
    inherited = sorted({(int(rows[0]), i) for rows in r.plan.pattern
                        for i in rows[1:].tolist()})
    assume(inherited)
    K = library_system(side, ppw, px, py)[3].K
    p, i = data.draw(st.sampled_from(inherited))
    pattern = list(r.plan.pattern)
    pattern[p] = pattern[p][pattern[p] != i]
    plan = dataclasses.replace(r.plan, pattern=pattern)
    with pytest.raises(FactorConsistencyError) as err:
        block_ldlt(K, plan)
    with pytest.raises(FactorConsistencyError) as ref:
        reference_block_ldlt(K, plan)
    a, b = named_block(err.value)
    assert a > b and a not in pattern[b].tolist()
    assert (a, b) == named_block(ref.value)


def reference_reduce_domain(s):
    """The reduce of one domain on its own: one ``zgbsv`` whose right-hand
    side is D's columns and the load, whatever the load."""
    rows, m = s.interface_rows, s.D.shape[1]
    rhs = np.zeros((s.n_dofs, m + 1), dtype=np.complex128, order="F")
    rhs[rows, :m] = s.D
    rhs[:, m] = s.f
    s.A, s.piv, X, info = sd.zgbsv(s.kl, s.kl, s.A, rhs)
    assert info == 0
    KG = blas_matmul(s.D.T, X[rows])
    return 0.5 * (KG[:, :-1] + KG[:, :-1].T), KG[:, -1].copy()


def reference_recover_primal(systems, lam):
    """Back-substitution domain by domain, one solve each."""
    cnt = np.bincount(np.concatenate([s.dof_map for s in systems]))
    acc = np.zeros(cnt.size, dtype=np.complex128)
    for s in systems:
        rhs = s.f.copy()
        if s.D.size:
            rhs[s.interface_rows] -= blas_matmul(s.D, lam[s.lam_index])[:, 0]
        acc[s.dof_map] += s.solve(rhs)
    return acc / cnt


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tilings(), st.floats(0.0, 2.0 * math.pi))
@example((1.0, 10, 1, 1), 0.3)        # one domain, no interface
@example((2.4, 10, 12, 12), 0.3)      # 9 classes of 144 domains
@example((7.0, 13, 5, 5), 1.1)        # tiles that do not divide the grid
def test_tile_classes_keep_every_bit_of_the_per_domain_path(tiling, theta):
    """Reducing and recovering once per tile class gives K, g, lambda, the
    solution and the residual of the domain-by-domain path bit for bit."""
    side, ppw, px, py = tiling
    problem = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                               theta_inc=theta)
    r = run_pipeline(RunConfig(problem))
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, px, py)
    systems = sd.build_subdomain_systems(m, part, problem)
    rsys = sd.assemble_reduced([reference_reduce_domain(s) for s in systems], part)
    assert_same_factor(r.block_factor, block_ldlt(rsys.K, r.plan))
    assert r.reduced_system.g.tobytes() == rsys.g.tobytes()
    lam = block_solve(r.block_factor, rsys.g)
    assert lam.tobytes() == r.lam.tobytes()
    sol = reference_recover_primal(systems, lam)
    assert sol.tobytes() == r.solution.tobytes()
    assert sd.global_residual(m, problem, sol) == r.report.residual_inf
    assert r.report.n_classes == len({id(s.piv) for s in r.systems}) <= len(systems)


# SLICE_MIN values that place every run by slices, every run by index
# arrays, and by run size as the pipeline does
PLACEMENTS = [0, 10 ** 9, sd.SLICE_MIN]


def placed(reduced, part, plan, slice_min):
    """The panels of ``plan`` with the Schur blocks placed by
    :func:`subdomain.place_reduced` at the given ``SLICE_MIN``."""
    layout = factor.panel_layout(plan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sd, "SLICE_MIN", slice_min)
        sd.place_reduced(reduced, part, layout)
    return layout


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tilings())
@example((1.0, 10, 1, 1))       # one domain, no interface
def test_partition_graph_is_the_clique_graph_of_k(tiling):
    """The block graph read off the partition is the clique graph of the
    assembled K (test_subdomain covers an interface without multipliers,
    which no drawn tiling has)."""
    part, _, _, rsys = library_system(*tiling)
    assert mm.partition_graph(part) == clique_graph(rsys.K)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tilings(), st.floats(0.0, 2.0 * math.pi), st.sampled_from(PLACEMENTS))
@example((2.4, 10, 12, 12), 0.3, sd.SLICE_MIN)   # interface-bound
@example((2.5, 16, 2, 2), 0.3, sd.SLICE_MIN)     # runs of 400 entries and more
@example((1.0, 10, 1, 1), 0.3, sd.SLICE_MIN)     # one domain, no interface
def test_placed_factor_is_the_factor_of_the_assembled_k(tiling, theta, slice_min):
    """The pipeline's block factor, lambda and solution equal those of
    block_ldlt on the assembled K byte for byte, whichever way the Schur
    blocks are placed; so does the factor's FactorStats."""
    side, ppw, px, py = tiling
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sd, "SLICE_MIN", slice_min)
        r = run_pipeline(RunConfig(mm.ProblemConfig(side_lambda=side, ppw=ppw,
                                                    px=px, py=py, theta_inc=theta)))
    part, systems, reduced, rsys = library_system(side, ppw, px, py, theta)
    F = block_ldlt(rsys.K, r.plan)
    assert_same_factor(r.block_factor, F)
    lam = block_solve(F, rsys.g)
    assert lam.tobytes() == r.lam.tobytes()
    assert sd.recover_primal(systems, lam).tobytes() == r.solution.tobytes()
    assert r.reduced_system.K is None
    assert r.reduced_system.sizes.tolist() == rsys.K.sizes.tolist()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tilings(), st.sampled_from(PLACEMENTS))
@example((2.5, 16, 2, 2), 0)
def test_negative_zero_keeps_its_sign_in_its_placed_slot(tiling, slice_min):
    """Schur blocks of -0.0 place -0.0 in every entry of every slot of K, as
    K's copy and sums do, and leave the fill slots +0.0."""
    part, _, reduced, _ = library_system(*tiling)
    reduced = [(np.full_like(K_D, complex(-0.0, -0.0)), g_d) for K_D, g_d in reduced]
    K = sd.assemble_reduced(reduced, part).K
    plan = reorder_with_plan(mm.partition_graph(part), part.n_kept)
    layout = placed(reduced, part, plan, slice_min)
    ref = factor.panel_layout(plan)
    factor.place_blocks(ref, K)
    assert layout.buf.tobytes() == ref.buf.tobytes()
    k_entries = sum(b.size for b in K.blocks.values())
    buf = layout.buf
    assert np.count_nonzero(np.signbit(buf.real) & np.signbit(buf.imag)) == k_entries
    assert not buf.any()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tilings(), st.data())
def test_placement_rejects_a_plan_missing_a_domain_pair(tiling, data):
    """A plan without the block of one pair of a domain's interfaces makes
    the placement raise, naming that block as block_ldlt names it on the
    assembled K."""
    part, _, reduced, rsys = library_system(*tiling)
    g = mm.partition_graph(part)
    edges = graph_edges(g)
    assume(edges)
    i, j = data.draw(st.sampled_from(edges))
    g[i].discard(j)
    g[j].discard(i)
    plan = reorder_with_plan(g, part.n_kept)
    inv = plan.order.inverse()
    lo, hi = sorted((int(inv[i]), int(inv[j])))
    assume(hi not in plan.pattern[lo].tolist())     # no fill brings it back
    message = rf"unconsumed blocks: block \({hi}, {lo}\) of K has no place"
    with pytest.raises(FactorConsistencyError, match=message):
        sd.place_reduced(reduced, part, factor.panel_layout(plan))
    with pytest.raises(FactorConsistencyError, match=message):
        block_ldlt(rsys.K, plan)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tilings(), st.data())
def test_placed_asymmetric_diagonal_block_is_rejected(tiling, data):
    """An asymmetric diagonal block of one K_D reaches its placed slot, and
    the factor rejects it as block_ldlt rejects the assembled K: by the
    interface's number and the same asymmetry."""
    part, _, reduced, _ = library_system(*tiling)
    start = part.incident_start.tolist()
    kept = part.n_kept[part.incident].tolist()
    # (domain, interface, the interface's first row in the domain's K_D)
    slots = [(d, int(part.incident[s]), sum(kept[start[d]:s]))
             for d in range(part.n_domains) for s in range(start[d], start[d + 1])
             if kept[s] >= 2]
    assume(slots)
    d, i, row = data.draw(st.sampled_from(slots))
    K_D = reduced[d][0].copy()
    K_D[row, row + 1] += 1e-6 * np.abs(K_D).max()
    reduced = list(reduced)
    reduced[d] = (K_D, reduced[d][1])
    plan = reorder_with_plan(mm.partition_graph(part), part.n_kept)
    layout = factor.panel_layout(plan)
    sd.place_reduced(reduced, part, layout)
    with pytest.raises(BlockMatrixError, match=rf"diagonal block {i} asymmetric") as err:
        factor.factor_panels(layout)
    with pytest.raises(BlockMatrixError) as ref:
        block_ldlt(sd.assemble_reduced(reduced, part).K, plan)
    assert str(err.value) == str(ref.value)
