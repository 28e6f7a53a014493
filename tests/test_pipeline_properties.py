"""Acceptance gates of the whole pipeline on hypothesis-drawn tilings.

The tilings are those of ``test_geometry_reference``: at most one tile per
grid interval, so tile lines may cut through cells (staircase interfaces).
"""

import math

from hypothesis import given, settings, strategies as st

from ddsolve import mesh as mm
from ddsolve.config import RunConfig
from ddsolve.driver import run_verify
from test_geometry_reference import tilings


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tilings(), st.floats(0.0, 2.0 * math.pi))
def test_gates_hold_on_drawn_tilings(tiling, theta):
    side, ppw, px, py = tiling
    r = run_verify(RunConfig(mm.ProblemConfig(side_lambda=side, ppw=ppw,
                                              px=px, py=py, theta_inc=theta)))
    assert r.report.residual_inf <= 1e-10
    assert r.report.rel_diff_monolithic <= 1e-8
    F = r.block_factor
    assert F.stats.factor_entries == r.plan.total_factor_entries
    # the panel buffer, diagonal blocks on top, the diagonal L factors and K
    n = F.plan.sizes_perm
    buffer = sum(p.size for p in F.panels) + int((n * n).sum())
    diag_l = sum(f.L.size for f in F.diag)
    k_entries = sum(b.size for b in r.reduced_system.K.blocks.values())
    assert F.stats.peak_bytes >= 16 * (buffer + diag_l + k_entries)
