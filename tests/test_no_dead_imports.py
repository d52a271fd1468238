"""No module of the package imports a name it never uses.

``__init__`` is all re-exports and is skipped.  Every other module
defines the names other modules find in it, so a re-export marker
(``# noqa: F401``) there is itself a failure.  Standard library ``ast``
only.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "directcorr"


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [(a.asname or a.name).split(".")[0] for a in node.names if a.name != "*"]


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "Alphabet"
            try:
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return used


def dead_imports(source: str) -> list[str]:
    """Re-export markers in ``source``, then names it imports and never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    dead = [f"line {i}: noqa: F401" for i, line in enumerate(source.splitlines(), 1) if "noqa: F401" in line]
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        dead += [f"line {node.lineno}: {name}" for name in _bound_names(node) if name not in used]
    return dead


def test_detects_an_unused_import():
    src = "from .engine import BatchContext, mi_rows\n\nBatchContext()\n"
    assert dead_imports(src) == ["line 1: mi_rows"]
    assert dead_imports("from .engine import mi_rows  # noqa: F401\n") == ["line 1: noqa: F401", "line 1: mi_rows"]
    assert dead_imports("from .engine import mi_rows  # noqa: F401\n\nmi_rows()\n") == ["line 1: noqa: F401"]
    assert dead_imports("import numpy as np\n\nx: 'np.ndarray'\n") == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_dead_imports(module):
    assert dead_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
