"""Facts about the machine and build that every result is printed with.

The BLAS thread setting changes the last bits of the residuals, so it is
recorded next to the BLAS build.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "DDSOLVE_DISABLE_JIT")


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": deps.get("name", "unknown"),
            "version": deps.get("version", "unknown")}


def _git_commit(root: Path) -> str:
    # The ceiling keeps git from reporting an enclosing repository when the
    # benchmark runs from a plain source tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(root),
    }
