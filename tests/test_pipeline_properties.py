"""Acceptance gates of the whole pipeline on hypothesis-drawn tilings.

The tilings are those of ``test_geometry_reference``: at most one tile per
grid interval, so tile lines may cut through cells (staircase interfaces).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ddsolve import mesh as mm
from ddsolve.config import RunConfig
from ddsolve.driver import AGREEMENT_GATE, RESIDUAL_GATE, run_verify
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tilings(), st.floats(0.0, 2.0 * math.pi))
def test_gates_hold_on_drawn_tilings(tiling, theta):
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
    diag_l = sum(f.L.size for f in F.diag)
    k_entries = sum(b.size for b in r.reduced_system.K.blocks.values())
    assert F.stats.peak_bytes >= 16 * (buffer + diag_l + k_entries)
