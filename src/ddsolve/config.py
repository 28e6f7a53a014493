"""Plain key=value configuration files.

Recognized keys: wavelength, side_lambda, ppw, px, py, theta_inc_deg,
alpha_imag, pivot_tol, ordering, out_csv.  Lengths are in wavelengths and
angles in degrees in the file (radians internally).  Lines starting with
``#`` and blank lines are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .factor import DEFAULT_PIVOT_TOL
from .mesh import ProblemConfig


class ConfigError(Exception):
    pass


_FLOAT_KEYS = {"wavelength", "side_lambda", "ppw", "theta_inc_deg",
               "alpha_imag", "pivot_tol"}
_INT_KEYS = {"px", "py"}
_STR_KEYS = {"ordering", "out_csv"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


@dataclass
class RunConfig:
    problem: ProblemConfig
    pivot_tol: float = DEFAULT_PIVOT_TOL
    ordering: str = "builtin"
    out_csv: str | None = None
    case_id: str = "case"


def parse_config_file(path) -> RunConfig:
    path = Path(path)
    raw: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    def get_float(key, default=None):
        if key not in raw:
            if default is None:
                raise ConfigError(f"{path}: missing required key {key!r}")
            return default
        try:
            return float(raw[key])
        except ValueError as err:
            raise ConfigError(f"{path}: bad float for {key!r}: {raw[key]!r}") from err

    def get_int(key, default):
        if key not in raw:
            return default
        try:
            return int(raw[key])
        except ValueError as err:
            raise ConfigError(f"{path}: bad int for {key!r}: {raw[key]!r}") from err

    wavelength = get_float("wavelength", 1.0)
    side = get_float("side_lambda")
    ppw = get_float("ppw", 15.0)
    px = get_int("px", 1)
    py = get_int("py", 1)
    theta = math.radians(get_float("theta_inc_deg", 0.0))
    alpha = None
    if "alpha_imag" in raw:
        alpha = 1j * get_float("alpha_imag")
    try:
        problem = ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                                wavelength=wavelength, alpha=alpha,
                                theta_inc=theta)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
    ordering = raw.get("ordering", "builtin")
    if ordering != "builtin" and not ordering.startswith("file:"):
        raise ConfigError(
            f"{path}: ordering must be 'builtin' or 'file:<path>', got {ordering!r}")
    pivot_tol = get_float("pivot_tol", DEFAULT_PIVOT_TOL)
    if not (math.isfinite(pivot_tol) and pivot_tol >= 0.0):
        raise ConfigError(f"{path}: pivot_tol must be finite and non-negative, "
                          f"got {raw['pivot_tol']!r}")
    return RunConfig(problem=problem,
                     pivot_tol=pivot_tol,
                     ordering=ordering,
                     out_csv=raw.get("out_csv"),
                     case_id=path.stem)
