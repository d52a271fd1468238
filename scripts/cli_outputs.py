#!/usr/bin/env python3
"""Record what a fixed list of CLI commands prints, to compare two versions byte for byte.

Generates its input files into OUTDIR from a fixed seed, then runs each
command of ``COMMANDS`` as ``python -m directcorr.cli`` with OUTDIR as the
working directory, so every path in an argv is relative.  For each command
it writes ``NN_name.txt`` with the argv, the exit code, stdout and stderr;
files a command writes (``--output``) land in OUTDIR beside them.  The
package comes from the interpreter's path, so two versions are compared
by running this script once against each and diffing the directories:

    PYTHONPATH=old/src python scripts/cli_outputs.py /tmp/old
    PYTHONPATH=new/src python scripts/cli_outputs.py /tmp/new
    diff -r /tmp/old /tmp/new

With ``--update`` instead of OUTDIR it runs the same commands in a
temporary directory and rewrites ``tests/cli_records.json``: per command,
its argv, its exit code, and the sha256 of its stdout, of its stderr and of
each file it writes.  ``tests/test_cli_records.py`` runs every command
in-process and compares it with that file, so a change to an output shows
in the test suite; a change made on purpose is recorded with

    PYTHONPATH=src python scripts/cli_outputs.py --update

Standard library and numpy only; the package never imports this script.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 20260419
RECORDS = Path(__file__).resolve().parent.parent / "tests" / "cli_records.json"

# The benchmark's sweep: every registry id except pc, on 201 points under rule c.
SWEEP_IDS = (
    "pcc", "mi", "nmi_y", "nmi_x", "nmi_max", "rmi", "cmi", "cmi_js", "rcmi", "pmi", "rpmi",
    "icmi_xy", "icmi_yx", "ricmi_xy", "ricmi_yx", "ricmi_two",
    "ace", "nace", "ace_kl", "race", "mi_do", "rmi_do",
)

GEN442 = {
    "name": "gen442",
    "csv": {"has_header": True},
    "roles": {
        "x": {"column": "gx", "categories": ["a", "b", "c", "d"]},
        "y": {"column": "gy", "categories": ["no", "yes"]},
        "z": {"column": "gz", "categories": ["p", "q", "r", "s"]},
    },
}
TITANIC = {
    "name": "titanic",
    "csv": {"has_header": True},
    "roles": {
        "x": {"column": "Pclass", "categories": ["1", "2", "3"]},
        "y": {"column": "Survived", "categories": ["0", "1"]},
        "z": {"column": "Sex", "categories": ["female", "male"]},
    },
}
# X = a occurs once in 8 rows, so about a third of the resamples leave pcc undefined
RARE_X_ROWS = ("a,yes,p", "b,no,p", "b,no,p", "b,no,p", "b,yes,q", "b,yes,q", "b,no,q", "b,no,q")

# (file name, base schema, edit) of each schema that must be refused at load
BAD_SCHEMAS = (
    ("bad_boolean_column.json", GEN442, lambda s: s["roles"]["x"].update(column=True)),
    ("bad_negative_column.json", GEN442, lambda s: s["roles"]["x"].update(column=-1)),
    ("bad_fractional_column.json", GEN442, lambda s: s["roles"]["x"].update(column=1.5)),
    ("bad_string_ordinal.json", GEN442, lambda s: s["roles"]["z"].update(ordinal="no")),
    ("bad_string_has_header.json", GEN442, lambda s: s["csv"].update(has_header="false")),
    ("bad_string_strip.json", GEN442, lambda s: s["csv"].update(strip="false")),
    ("bad_numeric_name.json", GEN442, lambda s: s.update(name=5)),
    ("bad_boolean_encoding.json", GEN442, lambda s: s["roles"]["y"].update(encoding=[True, False])),
    ("bad_null_category.json", GEN442, lambda s: s["roles"]["z"]["categories"].insert(0, None)),
    ("bad_numeric_categories.json", TITANIC, lambda s: s["roles"]["y"].update(categories=[0, 1])),
)

BUILTIN_CI = [
    ["analyze", "--builtin", name, "--bounds", "--bootstrap", "1000", *seed]
    for seed in ([], ["--seed", "1"], ["--seed", "2"]) for name in ("titanic", "berkeley")
]

# every id on every built-in under each fill rule
BUILTIN_IDS = [
    ["analyze", "--builtin", name, "--measures", ",".join(("pc", *SWEEP_IDS)), "--strategy", rule]
    for name in ("titanic", "berkeley", "fig5") for rule in "abc"
]

COMMANDS = [
    *BUILTIN_CI,
    *BUILTIN_IDS,
    *(["analyze", "--builtin", name, "--measures", "all"] for name in ("titanic", "berkeley", "fig5")),
    ["analyze", "--builtin", "titanic", "--bounds", "--bootstrap", "200", "--format", "csv", "--output", "report.csv"],
    ["analyze", "--builtin", "berkeley", "--bounds", "--bootstrap", "200", "--format", "json",
     "--output", "report.json"],
    ["analyze", "--csv", "rare_x.csv", "--schema", "rare_x.json", "--measures", "pcc,rmi,nace", "--bootstrap", "100"],
    ["analyze", "--csv", "titanic_bad.csv", "--schema", "titanic", "--measures", "all", "--bootstrap", "200"],
    ["analyze", "--csv", "gen442.csv", "--schema", "gen442.json", "--measures", "all", "--bounds"],
    ["bootstrap", "--builtin", "titanic"],
    ["bootstrap", "--builtin", "berkeley"],
    ["bootstrap", "--builtin", "titanic", "--measures", "all"],
    ["bootstrap", "--builtin", "berkeley", "--measures", "all"],
    ["bootstrap", "--builtin", "titanic", "-B", "0"],
    ["bootstrap", "--builtin", "titanic", "-B", "1"],
    ["bootstrap", "--builtin", "fig5"],
    ["bootstrap", "--csv", "rare_x.csv", "--schema", "rare_x.json", "--measures", "all", "-B", "100"],
    ["bounds", "--builtin", "titanic"],
    ["bounds", "--builtin", "berkeley"],
    ["bounds", "--builtin", "fig5"],
    ["bounds", "--csv", "gen442.csv", "--schema", "gen442.json"],
    ["reproduce"],
    ["sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--strategy", "c",
     "--points", "201", "--measures", ",".join(SWEEP_IDS)],
    ["sweep", "--model", "decision", "--set", "q0=0", "--set", "q1=0.5", "--set", "q2=0.3", "--set", "q4=0.2",
     "--sweep", "q3", "--output", "sweep.csv"],
    # usage and schema errors, then byte-order marks
    ["sweep", "--model", "simple", "--set", "lam0=0.5", "--set", "lam1=0.2", "--sweep", "lam1"],
    *(["analyze", "--csv", "titanic_bad.csv" if base is TITANIC else "gen442.csv", "--schema", name,
       "--measures", "rmi"] for name, base, _ in BAD_SCHEMAS),
    ["analyze", "--csv", "titanic_bom.csv", "--schema", "titanic", "--measures", "all"],
    ["bounds", "--csv", "gen442.csv", "--schema", "gen442_bom.json"],
    # the stratum search under the other fill rules and at the grid ends, then a family past int64 indices
    ["bounds", "--csv", "gen442.csv", "--schema", "gen442.json", "--strategy", "a"],
    ["bounds", "--csv", "gen442.csv", "--schema", "gen442.json", "--strategy", "c"],
    ["bounds", "--csv", "grid_ends.csv", "--schema", "grid_ends.json", "--strategy", "b"],
    ["bounds", "--csv", "grid_ends.csv", "--schema", "grid_ends.json", "--strategy", "c"],
    ["bounds", "--csv", "full828.csv", "--schema", "full828.json", "--cap", str(10**24)],
    # nace and race are undefined where X has one category; the other measures are still bounded
    ["bounds", "--csv", "one_x.csv", "--schema", "one_x.json"],
    # tables with empty (x,y,z) cells, where the observed joint can attain a bound at its reported value
    ["analyze", "--builtin", "fig5", "--bounds"],
    ["analyze", "--csv", "sparse333.csv", "--schema", "sparse333.json", "--bounds"],
    ["bounds", "--csv", "sparse333.csv", "--schema", "sparse333.json"],
    # blank lines are not rows; a short row is skipped with the column it lacks
    ["analyze", "--csv", "titanic_blank.csv", "--schema", "titanic", "--measures", "rmi"],
    # one dataset source per call
    ["analyze", "--builtin", "titanic", "--csv", "gen442.csv", "--schema", "gen442.json"],
    ["analyze", "--builtin", "titanic", "--schema", "titanic"],
    # a CSV that cannot be read: a directory, bytes that are not UTF-8, a field past the csv module's limit
    ["analyze", "--csv", "csv_dir", "--schema", "titanic"],
    ["analyze", "--csv", "titanic_latin1.csv", "--schema", "titanic"],
    ["analyze", "--csv", "titanic_long_field.csv", "--schema", "titanic"],
    # each id once in --measures, and some id in it
    ["analyze", "--builtin", "titanic", "--measures", "rmi,rmi"],
    ["analyze", "--builtin", "titanic", "--measures", ""],
    # a run that stops at a usage error prints no back-door caveat before it
    ["analyze", "--builtin", "titanic", "--bootstrap", "1"],
    ["analyze", "--builtin", "fig5", "--bootstrap", "10"],
    ["reproduce", "--bootstrap", "1"],
    # a schema file read by path whatever its suffix, and one that is not UTF-8
    ["analyze", "--csv", "gen442.csv", "--schema", "gen442.txt", "--measures", "rmi"],
    ["analyze", "--csv", "gen442.csv", "--schema", "gen442_latin1.json", "--measures", "rmi"],
    # a schema path that is a directory, and a seed numpy cannot take
    ["analyze", "--csv", "gen442.csv", "--schema", "csv_dir"],
    ["bootstrap", "--builtin", "titanic", "--seed", "-1"],
    # a full-support 5x2x5 table: a searched family of 2^25 couplings, past the default cap
    ["bounds", "--csv", "gen525.csv", "--schema", "gen525.json", "--cap", str(2**26)],
    # a 600-point grid, with pc undefined at 432 points for two reasons
    ["sweep", "--model", "decision", "--set", "q1=-1", "--set", "q2=-1", "--set", "q3=0.5", "--set", "q4=0",
     "--sweep", "q0", "--start", "-1", "--points", "600", "--measures", "pcc,pc,ricmi_two,nace"],
    # a parameter set twice, and one set to a value that is not a number
    ["sweep", "--model", "simple", "--set", "lam0=0.5", "--set", "lam0=0.2", "--sweep", "lam1"],
    ["sweep", "--model", "simple", "--set", "lam0=abc", "--sweep", "lam1"],
    # a 1500-point grid written to a file, six engine stacks long, with pcc undefined at both ends
    ["sweep", "--model", "decision", "--set", "q1=-1", "--set", "q2=-1", "--set", "q3=0.5", "--set", "q4=0",
     "--sweep", "q0", "--start", "-1", "--points", "1500", "--measures", "pcc,pc,rpmi,ricmi_two,nace,rmi_do",
     "--strategy", "c", "--output", "sweep_long.csv"],
    # a grid that leaves lam1's range part way: no row, and no file
    ["sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--start", "0.5", "--stop", "1.5",
     "--points", "5", "--output", "sweep_range.csv"],
    # q3 is out of range at the first point, and q0 leaves its range later: the error names q3
    ["sweep", "--model", "decision", "--set", "q1=0.5", "--set", "q2=0.3", "--set", "q3=5", "--set", "q4=0.2",
     "--sweep", "q0", "--start", "0", "--stop", "2"],
    # a fixed parameter that is not a number in any range
    ["sweep", "--model", "simple", "--set", "lam0=nan", "--sweep", "lam1"],
    # a descending grid, then a grid of one point
    ["sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--start", "1", "--stop", "0",
     "--points", "7", "--measures", ",".join(SWEEP_IDS)],
    ["sweep", "--model", "decision", "--set", "q0=0", "--set", "q1=0.5", "--set", "q2=0.3", "--set", "q4=0.2",
     "--sweep", "q3", "--start", "0.4", "--points", "1", "--measures", ",".join(SWEEP_IDS)],
    # a full-support 6x2x6 table: 2^36 couplings, bounded by the stratum search past the default cap
    ["bounds", "--csv", "gen626.csv", "--schema", "gen626.json", "--cap", str(2**40),
     "--measures", "rpmi,ricmi_xy,ricmi_yx,ricmi_two"],
]


def _write(path: Path, text: str, encoding: str = "utf-8") -> None:
    path.write_text(text, encoding=encoding, newline="")


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def write_inputs(out: Path) -> None:
    """Every input file the commands read, generated from ``SEED``."""
    rng = np.random.default_rng(SEED)
    # a 4x2x4 table with every cell occupied, shuffled into rows
    shape = (4, 2, 4)
    counts = 1 + rng.multinomial(2000 - 32, rng.dirichlet(np.full(32, 2.0))).reshape(shape)
    codes = np.repeat(np.arange(32), counts.reshape(-1))
    rng.shuffle(codes)
    labels = [np.array(GEN442["roles"][r]["categories"]) for r in "xyz"]
    cells = zip(*(lab[i].tolist() for lab, i in zip(labels, np.unravel_index(codes, shape))))
    _write(out / "gen442.csv", _csv("gx,gy,gz", (",".join(c) for c in cells)))
    _write(out / "gen442.json", json.dumps(GEN442, indent=1) + "\n")
    _write(out / "gen442_bom.json", json.dumps(GEN442, indent=1) + "\n", "utf-8-sig")
    _write(out / "gen442.txt", json.dumps(GEN442, indent=1) + "\n")
    _write(out / "gen442_latin1.json", json.dumps({**GEN442, "name": "gén442"}, indent=1, ensure_ascii=False) + "\n",
           "latin-1")
    # the 8-row table on which over 5% of the resamples exclude pcc
    rare = json.loads(json.dumps(GEN442))
    rare["roles"]["x"]["categories"], rare["roles"]["z"]["categories"] = ["a", "b"], ["p", "q"]
    _write(out / "rare_x.csv", _csv("gx,gy,gz", RARE_X_ROWS))
    _write(out / "rare_x.json", json.dumps(rare, indent=1) + "\n")
    # Titanic columns in 400 rows, with unmapped values and short rows among them
    rows = []
    for i in range(400):
        pclass, survived, sex = rng.choice(["1", "2", "3"]), rng.choice(["0", "1"]), rng.choice(["female", "male"])
        kind = int(rng.integers(0, 40))
        pclass = "4" if kind == 0 else pclass
        survived = "2" if kind == 1 else survived
        sex = "unknown" if kind == 2 else sex
        rows.append(f"{i + 1},{survived}" if kind == 3 else f"{i + 1},{survived},{pclass},{sex},{20 + i % 50}")
    _write(out / "titanic_bad.csv", _csv("PassengerId,Survived,Pclass,Sex,Age", rows))
    # Pclass first, so a byte-order mark would sit in front of a column the schema names
    good = [r.split(",") for r in rows if r.count(",") == 4]
    _write(out / "titanic_bom.csv", _csv("Pclass,Survived,Sex", (f"{c},{s},{x}" for _, s, c, x, _ in good)),
           "utf-8-sig")
    for name, base, edit in BAD_SCHEMAS:
        schema = json.loads(json.dumps(base))
        edit(schema)
        _write(out / name, json.dumps(schema, indent=1) + "\n")
    # Nine strata holding only x = a (11 rows of each y) and one holding only x = b (1 of each):
    # the ricmi_xy maximizers put p(y=0) in an end cell of the search's grid.
    ends = {**json.loads(json.dumps(GEN442)), "name": "grid_ends"}
    ends["roles"]["x"]["categories"], ends["roles"]["z"]["categories"] = ["a", "b"], list("pqrstuvwxy")
    cells = [("a", z, 11) for z in "pqrstuvwx"] + [("b", "y", 1)]
    rows = (f"{x},{y},{z}" for x, z, k in cells for y in ("no", "yes") for _ in range(k))
    _write(out / "grid_ends.csv", _csv("gx,gy,gz", rows))
    _write(out / "grid_ends.json", json.dumps(ends, indent=1) + "\n")
    # an 8x2x8 table with every (x,z) cell occupied: 2^64 couplings
    full = {**json.loads(json.dumps(GEN442)), "name": "full828"}
    full["roles"]["x"]["categories"], full["roles"]["z"]["categories"] = list("abcdefgh"), list("pqrstuvw")
    rows = (f"{x},{('no', 'yes')[(i + k) % 2]},{z}" for i, x in enumerate("abcdefgh") for k, z in enumerate("pqrstuvw"))
    _write(out / "full828.csv", _csv("gx,gy,gz", rows))
    _write(out / "full828.json", json.dumps(full, indent=1) + "\n")
    # a single X category over two strata
    one_x = {**json.loads(json.dumps(GEN442)), "name": "one_x"}
    one_x["roles"]["x"]["categories"], one_x["roles"]["z"]["categories"] = ["a"], ["p", "q"]
    cells = [("no", "p", 4), ("yes", "p", 2), ("no", "q", 1), ("yes", "q", 5)]
    _write(out / "one_x.csv", _csv("gx,gy,gz", (f"a,{y},{z}" for y, z, k in cells for _ in range(k))))
    _write(out / "one_x.json", json.dumps(one_x, indent=1) + "\n")
    # a 3x3x3 table with about 40% of its (x,y,z) cells empty
    sparse = {**json.loads(json.dumps(GEN442)), "name": "sparse333"}
    sparse["roles"]["x"]["categories"], sparse["roles"]["z"]["categories"] = ["a", "b", "c"], ["p", "q", "r"]
    sparse["roles"]["y"]["categories"] = ["u", "v", "w"]
    counts = rng.integers(1, 6, size=(3, 3, 3)) * (rng.random((3, 3, 3)) < 0.6)
    labels = [sparse["roles"][r]["categories"] for r in "xyz"]
    rows = (f"{labels[0][x]},{labels[1][y]},{labels[2][z]}" for (x, y, z), k in np.ndenumerate(counts) for _ in range(k))
    _write(out / "sparse333.csv", _csv("gx,gy,gz", rows))
    _write(out / "sparse333.json", json.dumps(sparse, indent=1) + "\n")
    # Titanic columns with two blank lines and a row that ends before Sex
    _write(out / "titanic_blank.csv", "Pclass,Survived,Sex\n3,0,male\n\n1,1,female\n2,1\n\n1,0,male\n")
    (out / "csv_dir").mkdir()
    _write(out / "titanic_latin1.csv", "Pclass,Survived,Sex\n1,0,male\n2,1,fémale\n", "latin-1")
    _write(out / "titanic_long_field.csv", f"Pclass,Survived,Sex\n1,0,male\n3,0,{'m' * 140_000}\n")
    # a 5x2x5 table with every cell occupied
    wide = {**json.loads(json.dumps(GEN442)), "name": "gen525"}
    wide["roles"]["x"]["categories"], wide["roles"]["z"]["categories"] = list("abcde"), list("pqrst")
    counts = 1 + rng.multinomial(2000 - 50, rng.dirichlet(np.full(50, 2.0))).reshape(5, 2, 5)
    labels = [wide["roles"][r]["categories"] for r in "xyz"]
    rows = (f"{labels[0][x]},{labels[1][y]},{labels[2][z]}" for (x, y, z), k in np.ndenumerate(counts) for _ in range(k))
    _write(out / "gen525.csv", _csv("gx,gy,gz", rows))
    _write(out / "gen525.json", json.dumps(wide, indent=1) + "\n")
    # a 6x2x6 table with every cell occupied
    six = {**json.loads(json.dumps(GEN442)), "name": "gen626"}
    six["roles"]["x"]["categories"], six["roles"]["z"]["categories"] = list("abcdef"), list("pqrstu")
    counts = 1 + rng.multinomial(4000 - 72, rng.dirichlet(np.full(72, 2.0))).reshape(6, 2, 6)
    labels = [six["roles"][r]["categories"] for r in "xyz"]
    rows = (f"{labels[0][x]},{labels[1][y]},{labels[2][z]}" for (x, y, z), k in np.ndenumerate(counts) for _ in range(k))
    _write(out / "gen626.csv", _csv("gx,gy,gz", rows))
    _write(out / "gen626.json", json.dumps(six, indent=1) + "\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(cmd: list[str], code: int, stdout: str, stderr: str, out: Path) -> dict:
    """The entry of ``tests/cli_records.json`` for one command run in ``out``."""
    written = [cmd[cmd.index("--output") + 1]] if "--output" in cmd else []
    return {
        "argv": cmd,
        "exit": code,
        "stdout": _sha(stdout.encode()),
        "stderr": _sha(stderr.encode()),
        "files": {name: _sha((out / name).read_bytes()) for name in written if (out / name).exists()},
    }


def run_all(out: Path) -> list[dict]:
    """Write the inputs into the empty ``out``, run every command there, and write each one's NN_name.txt."""
    write_inputs(out)
    env = {**os.environ, "DIRECTCORR_DATA": "data"}  # no data files: reproduce uses the embedded tables
    if env.get("PYTHONPATH"):  # the commands run in OUTDIR: a relative entry is resolved where it was given
        env["PYTHONPATH"] = os.pathsep.join(str(Path(p).resolve()) for p in env["PYTHONPATH"].split(os.pathsep) if p)
    records = []
    for i, cmd in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-m", "directcorr.cli", *cmd], cwd=out, env=env,
                              capture_output=True, text=True)
        text = f"argv: {' '.join(cmd)}\nexit: {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        _write(out / f"{i:02d}_{cmd[0]}.txt", text)
        records.append(record(cmd, proc.returncode, proc.stdout, proc.stderr, out))
    return records


def main(argv: list[str]) -> int:
    if argv == ["--update"]:
        with tempfile.TemporaryDirectory() as tmp:
            records = run_all(Path(tmp))
        RECORDS.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n", encoding="utf-8")
        print(f"{len(records)} records written to {RECORDS}")
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    run_all(out)
    print(f"{len(COMMANDS)} commands recorded in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
