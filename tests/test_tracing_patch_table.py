"""The benchmark patches and imports names of ``directcorr``; every one must exist.

``perfbench/tracing.py`` wraps functions of ``directcorr`` in spans by
looking each ``(namespace, attribute)`` pair up in ``ns.__dict__``, and the
files of ``perfbench/`` import names from the package.  A rename under
``src/`` that drops one of them would only surface when the benchmark runs;
these tests surface it in the suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    missing = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns, attr, _, _ in table if attr not in ns.__dict__]
    assert not missing, missing


def imported_names() -> list[tuple[str, str, str | None]]:
    """(file, module, name) of every ``directcorr`` import in ``perfbench/*.py``; name None for ``import m``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "directcorr":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "directcorr"]
    return found


def test_every_imported_name_resolves():
    found = imported_names()
    assert {(f, m) for f, m, _ in found} >= {("workloads.py", "directcorr.datasets"), ("tracing.py", "directcorr.bounds")}
    missing = []
    for path, module, name in found:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        if not (hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")):  # a submodule
            missing.append(f"{path}: from {module} import {name}")
    assert not missing, missing
