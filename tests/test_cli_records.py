"""Every command of ``scripts/cli_outputs.py`` prints and writes what ``cli_records.json`` records.

The commands run in-process through ``cli.main`` in a directory holding the
script's generated inputs; each record holds the argv, the exit code and
the sha256 of stdout, of stderr and of each file the command writes.  A
change to an output made on purpose is recorded with
``PYTHONPATH=src python scripts/cli_outputs.py --update``.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from directcorr import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("cli_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``directcorr ARGV``, run in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_every_command_matches_its_record(tmp_path, monkeypatch):
    script = load_script()
    expected = json.loads(script.RECORDS.read_text(encoding="utf-8"))
    assert [r["argv"] for r in expected] == script.COMMANDS
    script.write_inputs(tmp_path)
    monkeypatch.setenv("DIRECTCORR_DATA", "data")
    monkeypatch.chdir(tmp_path)
    mismatched = []
    for i, want in enumerate(expected):
        code, out, err = run(want["argv"])
        got = script.record(want["argv"], code, out, err, tmp_path)
        if got != want:
            differ = ", ".join(k for k in want if got[k] != want[k])
            mismatched.append(f"record {i} ({' '.join(want['argv'])}): {differ} differ; exit {code}\n"
                              f"--- stdout\n{out}--- stderr\n{err}")
    assert not mismatched, "\n".join(mismatched)
