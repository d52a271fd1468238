"""The README's quick-start block runs and prints the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)


def test_quick_start_values():
    block = quick_start()
    ns: dict = {}
    exec(block, ns)
    # lines such as "dc.rcmi(j)   # direct correlation: 0.030"
    claims = re.findall(r"^(\S[^#\n]*?)\s*#[^\n]*: (\d+\.\d{3})$", block, re.M)
    assert [value for _, value in claims] == ["0.061", "0.030", "0.222"]
    for expr, value in claims:
        assert f"{eval(expr, ns):.3f}" == value, expr
