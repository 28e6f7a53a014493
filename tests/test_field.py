"""The computed field against the exact one.

The square holds no scatterer and its absorbing boundary carries the load
``g = dn(u_inc) - jk u_inc`` against the same Robin term, so the exact
solution is the incident plane wave ``u_inc = exp(-jk (x cos t + y sin t))``.
P1 elements converge to it at second order in h once ppw resolves the
wave: halving h divides ``max|u_h - u_inc|`` at the nodes by about 4.

This checks the physics, not the linear algebra: a wrong quadrature weight
or point in the boundary load changes the load and the monolithic solve
alike, so the residual and the monolithic-agreement gates still pass, but
the error then stops falling at second order.
"""

import math

import numpy as np
import pytest

from ddsolve.config import RunConfig
from ddsolve.driver import run_pipeline
from ddsolve.mesh import ProblemConfig

PPW = (10, 20, 40)
# max|u_h - u_inc| measured at ppw 10, 20, 40: 0.3757, 0.1010, 0.0257 on
# 2x2 tiles at 0.3 rad, and 0.4770, 0.1302, 0.0334 on 3x3 tiles (80
# intervals over 3 tiles) at 1.1 rad; ratios 3.66-3.93
MIN_RATIO = 3.0
MAX_ERROR_AT_PPW_40 = 0.05


def field_error(side, ppw, tiles, theta) -> float:
    cfg = ProblemConfig(side_lambda=side, ppw=ppw, px=tiles, py=tiles,
                        theta_inc=theta)
    r = run_pipeline(RunConfig(cfg))
    x, y = r.mesh.nodes.T
    u_inc = np.exp(-1j * cfg.k * (x * math.cos(theta) + y * math.sin(theta)))
    return float(np.abs(r.solution - u_inc).max())


@pytest.mark.parametrize("tiles,theta", [(2, 0.3), (3, 1.1)])
def test_field_converges_to_the_incident_wave_at_second_order(tiles, theta):
    errors = [field_error(2.0, ppw, tiles, theta) for ppw in PPW]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= MIN_RATIO for r in ratios), (errors, ratios)
    assert errors[-1] <= MAX_ERROR_AT_PPW_40, errors
