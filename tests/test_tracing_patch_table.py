"""The benchmark's traced run patches functions by name; every name must exist.

``perfbench/tracing.py`` wraps functions of ``directcorr`` in spans by
looking each ``(namespace, attribute)`` pair up in ``ns.__dict__``.  A
rename under ``src/`` that drops one of them would only surface when the
benchmark runs with ``--trace 1``; this test surfaces it in the suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    missing = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns, attr, _, _ in table if attr not in ns.__dict__]
    assert not missing, missing
