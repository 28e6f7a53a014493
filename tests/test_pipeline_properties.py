"""Acceptance gates of the whole pipeline on hypothesis-drawn tilings.

The tilings are those of ``test_geometry_reference``: at most one tile per
grid interval, so tile lines may cut through cells (staircase interfaces).
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ddsolve import mesh as mm
from ddsolve.config import RunConfig
from ddsolve.driver import AGREEMENT_GATE, RESIDUAL_GATE, run_pipeline, run_verify
from ddsolve.factor import SCALAR_MAX, FactorConsistencyError, block_ldlt
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
