"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
    lines = capsys.readouterr().out.split()
    assert len(lines) == 2
    rho_hat, ratio = map(float, lines)
    assert abs(rho_hat) <= 1.0
    assert abs(ratio - 0.5) < 0.05      # the expectation ratio at t = 10 nears rho_10
