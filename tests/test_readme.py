"""The README's library example runs as written."""

import re
from pathlib import Path

from ddsolve.driver import RESIDUAL_GATE

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_residual_within_gate(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    residual = float(capsys.readouterr().out.split()[-1])
    assert residual <= RESIDUAL_GATE
