"""What every CLI call pays before and after its command runs.

A call is short, so interpreter start-up and exit are a large part of it:
importing the package must not pull in modules only some commands use, and
the records that only hold values are named tuples (a class statement, not a
generated ``__init__``, ``__repr__`` and ``__eq__`` per class).  The process
entry, ``cli.entry``, flushes stdout and stderr and ends with ``os._exit``,
so no exit handler runs and the interpreter's teardown never collects and
frees the import-time heap; with that teardown gone, freezing the heap with
``gc.freeze()`` no longer moved a call's wall time, so the entry does not.
The entry also makes ``hashlib`` use the interpreter's built-in digests:
``numpy.random`` imports ``secrets``, and through it ``hashlib``, whose
OpenSSL module ``_hashlib`` would map libcrypto for digests the CLI never
computes, 3.4 MB of resident memory in each bootstrapping call.
``cli.main(argv)`` leaves the collector and ``hashlib`` as they were.
"""
import dataclasses
import gc
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import directcorr
from directcorr.cli import main
from directcorr.resampling import CiReport

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter that imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_leaves_out_random_masked_arrays_and_hashlib():
    """``numpy.random`` pulls in ``secrets`` and ``hashlib``; only the bootstrap needs it, and imports it late."""
    modules = ("numpy.random", "numpy.ma", "hashlib")
    code = f"import sys, directcorr.cli; print([m for m in {modules!r} if m in sys.modules])"
    assert fresh(code)[-1] == "[]"


def test_every_dataclass_checks_its_fields():
    """A record that checks nothing on construction is a ``NamedTuple``, not a dataclass."""
    unchecked = []
    for info in pkgutil.iter_modules(directcorr.__path__):
        module = importlib.import_module(f"directcorr.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                if "__post_init__" not in vars(obj):
                    unchecked.append(f"{module.__name__}.{obj.__name__}")
    assert not unchecked


def test_record_repr_names_its_fields():
    ci = CiReport("rmi", 0.25, 0.125, 0.5, 1000, 7, "rng", 0)
    assert repr(ci) == ("CiReport(measure='rmi', point=0.25, lower=0.125, upper=0.5, b_resamples=1000, seed=7, "
                        "rng='rng', n_excluded=0)")
    assert ci._replace(n_excluded=60).too_many_excluded and not ci.too_many_excluded


def test_process_entry_skips_teardown_and_keeps_the_exit_code():
    """The entry flushes what the command wrote and ends with its exit code; exit handlers never run."""
    code = ("import atexit, sys; from directcorr.cli import entry; atexit.register(print, 'teardown'); "
            "sys.argv = ['directcorr', *sys.argv[1:]]; entry()")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": ""}  # stdout block-buffered, as in a pipe
    argv = ["sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--points", "600"]
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == "param,param_value,measure,value"
    assert len(done.stdout.splitlines()) == 1 + 600 * 5 and "teardown" not in done.stdout
    usage = subprocess.run([sys.executable, "-c", code, "sweep"], capture_output=True, text=True, env=env)
    assert (usage.returncode, usage.stdout) == (2, "")
    assert usage.stderr.startswith("error: the following arguments are required")


def test_in_process_call_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert main(["analyze", "--builtin", "berkeley", "--measures", "rmi"]) == 0
    assert gc.get_freeze_count() == before


def test_process_entry_bootstraps_without_openssl():
    code = ("import os, sys; from directcorr.cli import entry; codes = []; os._exit = codes.append; "
            "sys.argv = ['directcorr', 'analyze', '--builtin', 'titanic', '--bootstrap', '20', '--measures', 'rmi']; "
            "entry(); import hashlib; "
            "print(codes, 'numpy.random' in sys.modules, sys.modules.get('_hashlib') is None, "
            "hashlib.sha256(b'abc').hexdigest())")
    assert fresh(code)[-1].split() == [
        "[0]", "True", "True", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"]


def test_in_process_call_leaves_hashlib_alone(capsys, monkeypatch):
    importlib.import_module("numpy.random")  # hashlib is imported by now, so nothing below fills the entry
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    assert main(["bootstrap", "--builtin", "berkeley", "-B", "20", "--measures", "rmi"]) == 0
    assert "_hashlib" not in sys.modules
