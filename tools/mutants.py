"""Mutation checks: small wrong edits of the solver that tier-1 must catch.

Usage, from the root of the source tree::

    python3 tools/mutants.py

Each entry of ``MUTANTS`` is (file, exact old text, new text, what it
guards).  The script first checks that every old text occurs exactly once
in its file.  Then, one mutant at a time, it copies the tree to a temporary
directory, replaces the old text by the new one there and runs tier-1 on
the copy (``python -m pytest -x -q``, the copy's ``src/`` first on
``PYTHONPATH``), leaving out ``tests/test_mutants.py``: that test checks
that every old text occurs in the tree, so on a mutated copy it would fail
for every mutant, and kill it, whatever the solver's tests find.  A mutant
is killed when a test fails.  The script prints one line per mutant and
exits 1 when an old text does not occur exactly once, a mutant survives or
a run ends in neither a pass nor a test failure.

A change that moves mutated code updates its entry.  A surviving mutant is
mended by a test that kills it, never by removing the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    guards: str


MUTANTS = [
    Mutant("src/ddsolve/symbolic.py",
           "            p = min(rows)\n",
           "            p = max(rows)\n",
           "the fill walk passes a column's rows to its parent, the first row"),
    Mutant("src/ddsolve/symbolic.py",
           "            if count >= limit:\n",
           "            if count > limit:\n",
           "a tie between minimum degree and the natural order keeps minimum degree"),
    Mutant("src/ddsolve/factor.py",
           "            for c in range(k, n - 1):\n",
           "            for c in range(k, n - 2):\n",
           "an interchange in the scalar kernel mirrors every trailing column"),
    Mutant("src/ddsolve/factor.py",
           "            A = [abs(W[q]) for q in trail_q]\n",
           "            A = [abs(W[q].real) + abs(W[q].imag) for q in trail_q]\n",
           "the scalar kernel's pivot search compares true moduli, not |Re| + |Im|"),
    Mutant("src/ddsolve/factor.py",
           "    return ztrsm(1.0, L, B, 0, 1, trans, 1, 1)\n",
           "    return ztrsm(1.0, L, B, 0, trans, 1, 1, 1)\n",
           "the triangular solve passes ztrsm's triangle and transpose flags in order"),
    Mutant("src/ddsolve/ordering.py",
           "        if nv & bit[x] and nv & nb[x] != nv:\n",
           "        if nv & nb[x] != nv:\n",
           "minimum degree trusts a simplicial witness only while it is a neighbor"),
    Mutant("src/ddsolve/factor.py",
           "    miss = np.flatnonzero(slot_key[slot_key.searchsorted(key)] != key)\n",
           "    miss = key[:0]\n",
           "block_ldlt rejects a plan that is not closed under the fill"),
    Mutant("src/ddsolve/mesh.py",
           "    nrm = np.column_stack([d[:, 1], -d[:, 0]])\n",
           "    nrm = np.column_stack([-d[:, 1], d[:, 0]])\n",
           "boundary normals point outward"),
    Mutant("src/ddsolve/mesh.py",
           "                 + ragged_arange(n_slot))\n",
           "                 + np.repeat(n_slot, n_slot) - 1 - ragged_arange(n_slot))\n",
           "each interface's multipliers are numbered in chain order"),
    Mutant("src/ddsolve/mesh.py",
           "_GAUSS_ENDS = np.stack([1.0 - _GAUSS_T, _GAUSS_T], axis=1)[:, :, None] + 0j\n",
           "_GAUSS_ENDS = np.stack([_GAUSS_T, 1.0 - _GAUSS_T], axis=1)[:, :, None] + 0j\n",
           "the one-pass boundary load weighs endpoint a by 1 - t and b by t"),
    Mutant("src/ddsolve/mesh.py",
           "    wg = (_GAUSS_W[:, None] * h) * g\n",
           "    wg = _GAUSS_W[:, None] * (h * g)\n",
           "the one-pass boundary load keeps the per-point product order ((w h) g)"),
    Mutant("src/ddsolve/mesh.py",
           "        runs |= (t2 == a) & (t0 == b)\n",
           "",
           "the half-edge check accepts a boundary edge as any of its owner's three"),
    Mutant("src/ddsolve/mesh.py",
           "_P1_MASS = np.ones((3, 3)) + np.eye(3)\n",
           "_P1_MASS = np.ones((3, 3))\n",
           "the P1 mass template has 2 on its diagonal"),
    Mutant("src/ddsolve/mesh.py",
           "_GAUSS_W = np.array([0.17392742256872692,",
           "_GAUSS_W = np.array([0.27392742256872692,",
           "the boundary load's Gauss weights sum to one (the field converges)"),
    Mutant("src/ddsolve/mesh.py",
           "_GAUSS_T = np.array([0.5 - 0.43056815579702629,",
           "_GAUSS_T = np.array([0.5 - 0.33056815579702629,",
           "the boundary load's Gauss points are the Gauss-Legendre points"),
    Mutant("src/ddsolve/subdomain.py",
           "                    and rep.A.T.tobytes() == s.A.T.tobytes()):\n",
           "                    ):\n",
           "a tile class takes a domain only when its whole band buffer is equal"),
    Mutant("src/ddsolve/subdomain.py",
           "            if (rep.D.tobytes() == s.D.tobytes()\n",
           "            if (True\n",
           "a tile class takes a domain only when its coupling rows D are equal"),
    Mutant("src/ddsolve/subdomain.py",
           "    np.maximum.at(kl, dom, np.maximum(np.maximum(p0, p1), p2)\n",
           "    np.maximum.at(kl, dom, np.maximum(p0, p1)\n",
           "a domain's bandwidth spans all three corners of its elements"),
    Mutant("src/ddsolve/driver.py",
           "RESIDUAL_GATE = 1e-10\n",
           "RESIDUAL_GATE = 1e-6\n",
           "the residual gate of the CLI's exit code and the benchmark's check"),
    Mutant("src/ddsolve/driver.py",
           "AGREEMENT_GATE = 1e-8 ",
           "AGREEMENT_GATE = 1e-6 ",
           "the monolithic-agreement gate of the CLI's exit code"),
]


def unmatched() -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    lines = []
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            lines.append(f"{m.file}: old text occurs {count} times: {m.old!r}")
    return lines


def run_mutant(m: Mutant) -> subprocess.CompletedProcess:
    """Tier-1 with ``-x -q`` on a temporary copy of the tree with ``m``
    applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".perfbench_work"))
        path = tree / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py"],
            cwd=tree, env=env, capture_output=True, text=True)


def main() -> int:
    bad = unmatched()
    for line in bad:
        print(line)
    if bad:
        return 1
    failed = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        proc = run_mutant(m)
        took = f"{time.perf_counter() - t0:5.1f} s"
        if proc.returncode == 1:
            print(f"killed    {took}  {m.file}: {m.guards}")
            continue
        failed += 1
        verdict = "SURVIVED" if proc.returncode == 0 else f"ERROR {proc.returncode}"
        print(f"{verdict}  {took}  {m.file}: {m.guards}")
        print("\n".join(proc.stdout.splitlines()[-5:] + proc.stderr.splitlines()[-5:]))
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
