"""Plain key=value configuration files.

Recognized keys: wavelength, side_lambda, ppw, px, py, theta_inc_deg,
alpha_imag, pivot_tol, ordering, out_csv.  Lengths are in wavelengths, so
wavelength may only be 1.0, and angles in degrees in the file (radians
internally).  Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .factor import DEFAULT_PIVOT_TOL, check_pivot_tol
from .mesh import ProblemConfig


class ConfigError(Exception):
    pass


_KEYS = {"wavelength", "side_lambda", "ppw", "px", "py", "theta_inc_deg",
         "alpha_imag", "pivot_tol", "ordering", "out_csv"}


def check_ordering(spec: str) -> str:
    """``spec`` if it names an ordering; config files and CLI flags alike."""
    if spec != "builtin" and not spec.startswith("file:"):
        raise ConfigError(
            f"ordering must be 'builtin' or 'file:<path>', got {spec!r}")
    return spec


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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    def get(key, default=None, kind=float):
        if key not in raw:
            if default is None:
                raise ConfigError(f"{path}: missing required key {key!r}")
            return default
        try:
            return kind(raw[key])
        except ValueError as err:
            raise ConfigError(
                f"{path}: bad {kind.__name__} for {key!r}: {raw[key]!r}") from err

    wavelength = get("wavelength", 1.0)
    side = get("side_lambda")
    ppw = get("ppw", 15.0)
    px = get("px", 1, int)
    py = get("py", 1, int)
    theta = math.radians(get("theta_inc_deg", 0.0))
    alpha = None
    if "alpha_imag" in raw:
        alpha = 1j * get("alpha_imag")
    pivot_tol = get("pivot_tol", DEFAULT_PIVOT_TOL)
    try:
        problem = ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                                wavelength=wavelength, alpha=alpha,
                                theta_inc=theta)
        ordering = check_ordering(raw.get("ordering", "builtin"))
        pivot_tol = check_pivot_tol(pivot_tol)
    except (ValueError, ConfigError) as err:
        raise ConfigError(f"{path}: {err}") from err
    return RunConfig(problem=problem,
                     pivot_tol=pivot_tol,
                     ordering=ordering,
                     out_csv=raw.get("out_csv"),
                     case_id=path.stem)
