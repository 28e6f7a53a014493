"""``tools/mutants.py``'s mutants still apply to the code they guard."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import mutants  # noqa: E402


def test_every_old_text_occurs_exactly_once():
    # a change that moves mutated code must update its mutant
    assert mutants.unmatched() == []
    assert all(m.old != m.new for m in mutants.MUTANTS)
