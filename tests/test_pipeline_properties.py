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

from ddsolve import mesh as mm, subdomain as sd
from ddsolve.config import RunConfig
from ddsolve.driver import AGREEMENT_GATE, RESIDUAL_GATE, run_pipeline, run_verify
from ddsolve.factor import SCALAR_MAX, FactorConsistencyError, blas_matmul, \
    block_ldlt, block_solve
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
        # the panel buffer, diagonal blocks on top, the diagonal L factors and K
        n = F.plan.sizes_perm
        buffer = sum(p.size for p in F.panels) + int((n * n).sum())
        diag_l = sum(L.size for L in F.L)
        k_entries = sum(b.size for b in r.reduced_system.K.blocks.values())
        assert F.stats.peak_bytes >= 16 * (buffer + diag_l + k_entries)
        sizes.update(n.tolist())

    check()
    assert any(0 < s <= SCALAR_MAX for s in sizes), sorted(sizes)
    assert any(s > SCALAR_MAX for s in sizes), sorted(sizes)


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
    p, i = data.draw(st.sampled_from(inherited))
    pattern = list(r.plan.pattern)
    pattern[p] = pattern[p][pattern[p] != i]
    plan = dataclasses.replace(r.plan, pattern=pattern)
    K = r.reduced_system.K
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
    K = r.reduced_system.K
    assert list(K.blocks) == list(rsys.K.blocks)
    for key, blk in rsys.K.blocks.items():
        assert K.blocks[key].tobytes() == blk.tobytes(), key
    assert r.reduced_system.g.tobytes() == rsys.g.tobytes()
    lam = block_solve(r.block_factor, rsys.g)
    assert lam.tobytes() == r.lam.tobytes()
    sol = reference_recover_primal(systems, lam)
    assert sol.tobytes() == r.solution.tobytes()
    assert sd.global_residual(m, problem, sol) == r.report.residual_inf
    assert r.report.n_classes == len({id(s.piv) for s in r.systems}) <= len(systems)
