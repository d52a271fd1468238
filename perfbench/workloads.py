"""The four benchmark workloads: seeded inputs, CLI argv and output checkers.

Every input is generated from the run's seed; the program under test sees
only the generated files and its argv.  Each checker takes the captured
``(exit code, stdout, stderr)`` of every CLI call of one workload run and
returns a list of problems (empty when the output is correct).

Checks are independent of the code under test wherever that is cheap:
``ci`` compares against the published reference table, ``ingest`` against
counts the benchmark tallies from its own generated codes, and ``bounds``
and ``sweep`` against the exact-rational evaluator in ``tests/oracle.py``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("ci", "bounds", "ingest", "sweep")

# Every registry id except ``pc``: the partial correlation is undefined on
# some points of the simple model, and ``sweep`` aborts with exit 2 there.
SWEEP_IDS = (
    "pcc", "mi", "nmi_y", "nmi_x", "nmi_max", "rmi", "cmi", "cmi_js", "rcmi", "pmi", "rpmi",
    "icmi_xy", "icmi_yx", "ricmi_xy", "ricmi_yx", "ricmi_two",
    "ace", "nace", "ace_kl", "race", "mi_do", "rmi_do",
)
SWEEP_POINTS = 201
SWEEP_LAM0 = Fraction(1, 2)

BOUND_IDS = ("rmi", "rcmi", "rpmi", "ricmi_xy", "ricmi_yx", "ricmi_two", "nace", "race", "rmi_do")
BOUNDS_SHAPE = (4, 2, 4)
BOUNDS_COUPLINGS = 2 ** (BOUNDS_SHAPE[0] * BOUNDS_SHAPE[2])
BOUNDS_N = 20_000

INGEST_ROWS = 1_000_000
INGEST_BAD_FRACTION = 0.01
INGEST_HEADER = "PassengerId,Survived,Pclass,Sex,Age"
TITANIC_LABELS = (("1", "2", "3"), ("0", "1"), ("female", "male"))

CI_DATASETS = ("titanic", "berkeley")
CI_B = 1000
# Bound cells the program does not reproduce (the known-red rpmi and
# ricmi_yx columns).  They are checked only as ceilings of the point value,
# so a later fix does not break the benchmark.
RED_BOUND_CELLS = {("titanic", "rpmi"), ("titanic", "ricmi_yx"),
                   ("berkeley", "rpmi"), ("berkeley", "ricmi_yx")}

PRINTED_TOL = 0.5e-6 + 1e-9  # six printed decimals

# Lines that carry one checked value, as printed by each command; the
# self-test tampers with the first such line.
ROW_PATTERNS = {
    "ci": re.compile(r"^  \w+ +(?P<v>-?\d+\.\d{6}) "),
    "ingest": re.compile(r"^  \w+ +(?P<v>-?\d+\.\d{6}) "),
    "bounds": re.compile(r"^  bound \w+ +(?P<v>\d+\.\d{6})  "),
    "sweep": re.compile(r"^lam1,[^,]+,\w+,(?P<v>-?\d+\.\d{6})$"),
}


@dataclass
class Case:
    """One workload instance: the CLI calls to make and what to check them against."""

    workload: str
    argvs: list[list[str]]
    items: int  # work items per workload run
    item: str
    digests: dict[str, str] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    tables: list[dict] = field(default_factory=list)  # joints for the per-layer micro cases


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _table(probs: np.ndarray, strategy: str) -> dict:
    return {"probs": probs.tolist(), "strategy": strategy}


def make_case(workload: str, seed: int, work: Path) -> Case:
    """Generate the inputs of one workload from ``seed`` into ``work``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"ci": _make_ci, "bounds": _make_bounds, "ingest": _make_ingest, "sweep": _make_sweep}[workload](
        rng, seed, work
    )


def _make_ci(rng, seed: int, work: Path) -> Case:
    from directcorr.datasets import berkeley_counts, titanic_counts

    argvs = [["analyze", "--builtin", name, "--bounds", "--bootstrap", str(CI_B), "--seed", str(seed)]
             for name in CI_DATASETS]
    tables = [_table(c / c.sum(), "b") for c in (titanic_counts(), berkeley_counts())]
    return Case("ci", argvs, items=CI_B * len(CI_DATASETS), item="resample", tables=tables)


def _make_bounds(rng, seed: int, work: Path) -> Case:
    dx, dy, dz = BOUNDS_SHAPE
    cells = dx * dy * dz
    # Every (x, y, z) cell is occupied, so all 16 (x, z) cells are
    # enumerated: 2**16 couplings, eight 8192-coupling chunks.
    counts = 1 + rng.multinomial(BOUNDS_N - cells, rng.dirichlet(np.full(cells, 2.0))).reshape(BOUNDS_SHAPE)
    labels = (("a", "b", "c", "d"), ("no", "yes"), ("p", "q", "r", "s"))
    codes = np.repeat(np.arange(cells), counts.reshape(-1))
    rng.shuffle(codes)
    x, y, z = np.unravel_index(codes, BOUNDS_SHAPE)
    lx, ly, lz = (np.array(lab) for lab in labels)
    lines = ["id,gx,gy,gz"] + [
        f"{i},{a},{b},{c}" for i, (a, b, c) in enumerate(zip(lx[x].tolist(), ly[y].tolist(), lz[z].tolist()))
    ]
    csv_path = work / "bounds.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = {
        "name": "gen442",
        "csv": {"has_header": True},
        "roles": {role: {"column": col, "categories": list(lab)}
                  for role, col, lab in zip("xyz", ("gx", "gy", "gz"), labels)},
    }
    schema_path = work / "bounds_schema.json"
    schema_path.write_text(json.dumps(schema, indent=1) + "\n", encoding="utf-8")
    return Case(
        "bounds",
        [["bounds", "--csv", str(csv_path), "--schema", str(schema_path)]],
        items=BOUNDS_COUPLINGS, item="coupling",
        digests={"bounds.csv": sha256_file(csv_path), "bounds_schema.json": sha256_file(schema_path)},
        expect={"counts": counts},
        tables=[_table(counts / counts.sum(), "b")],
    )


def _make_ingest(rng, seed: int, work: Path) -> Case:
    n = INGEST_ROWS
    probs = rng.dirichlet(np.full(12, 4.0))
    x, y, z = np.unravel_index(rng.choice(12, size=n, p=probs), (3, 2, 2))
    pclass = np.array(TITANIC_LABELS[0], dtype=object)[x]
    survived = np.array(TITANIC_LABELS[1], dtype=object)[y]
    sex = np.array(TITANIC_LABELS[2], dtype=object)[z]
    age = rng.integers(1, 80, size=n).tolist()
    # About 1% of rows are bad: three kinds of unmapped category, and rows
    # too short to hold the Sex column.  All of them must be skipped.
    bad = rng.random(n) < INGEST_BAD_FRACTION
    kind = rng.integers(0, 4, size=n)
    pclass[bad & (kind == 0)] = "4"
    survived[bad & (kind == 1)] = "2"
    sex[bad & (kind == 2)] = "unknown"
    lines = [f"{i + 1},{s},{c},{g},{a}" for i, (s, c, g, a) in
             enumerate(zip(survived.tolist(), pclass.tolist(), sex.tolist(), age))]
    for i in np.flatnonzero(bad & (kind == 3)).tolist():
        lines[i] = f"{i + 1},{survived[i]}"
    csv_path = work / "ingest.csv"
    csv_path.write_text(INGEST_HEADER + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    good = ~bad
    counts = np.bincount(np.ravel_multi_index((x[good], y[good], z[good]), (3, 2, 2)), minlength=12)
    counts = counts.reshape(3, 2, 2)
    return Case(
        "ingest",
        [["analyze", "--csv", str(csv_path), "--schema", "titanic"]],
        items=n, item="csv row",
        digests={"ingest.csv": sha256_file(csv_path)},
        expect={"counts": counts, "skipped": int(bad.sum())},
        tables=[_table(counts / counts.sum(), "b")],
    )


def _make_sweep(rng, seed: int, work: Path) -> Case:
    # The seed fixes the order in which the 22 ids are passed (and so the
    # row order of the output); the grid and the amount of work are fixed.
    order = [SWEEP_IDS[i] for i in rng.permutation(len(SWEEP_IDS))]
    argv = ["sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--strategy", "c",
            "--points", str(SWEEP_POINTS), "--measures", ",".join(order)]
    mid = _simple_model(SWEEP_LAM0, Fraction(1, 2))
    probs = np.array([[[float(v) for v in row] for row in plane] for plane in mid])
    return Case("sweep", [argv], items=SWEEP_POINTS * len(SWEEP_IDS), item="measure evaluation",
                expect={"order": order}, tables=[_table(probs, "c")])


# ---------------------------------------------------------------------------
# Checkers.
# ---------------------------------------------------------------------------


def check(case: Case, results: list[tuple[int, str, str]], oracle) -> list[str]:
    """Problems found in one workload run's outputs; empty when all is correct."""
    if len(results) != len(case.argvs):
        return [f"expected {len(case.argvs)} calls, got {len(results)}"]
    problems = [f"call {i}: exit {rc}: {err.strip()[-200:]}" for i, (rc, _, err) in enumerate(results) if rc != 0]
    if problems:
        return problems
    fn = {"ci": _check_ci, "bounds": _check_bounds, "ingest": _check_ingest, "sweep": _check_sweep}
    try:
        return fn[case.workload](case, results, oracle)
    except (ValueError, KeyError, IndexError, StopIteration, SyntaxError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def _table_rows(stdout: str) -> dict[str, tuple[str, ...]]:
    """Rows of the analyze table: measure -> (value, ci_low, ci_high, bound, note)."""
    rows = {}
    lines = stdout.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("  measure "))
    for ln in lines[start + 1:]:
        cells = (ln[2:12], ln[13:23], ln[24:34], ln[35:45], ln[46:56], ln[58:])
        rows[cells[0].strip()] = tuple(c.strip() for c in cells[1:])
    return rows


def _num(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _check_ci(case: Case, results, oracle) -> list[str]:
    from directcorr import benchmarks

    problems = []
    for name, (_, out, _) in zip(CI_DATASETS, results):
        if not out.startswith(f"dataset: {name}\n"):
            problems.append(f"{name}: missing dataset header")
        rows = _table_rows(out)
        ref = benchmarks.REFERENCE[name]
        wanted = [m for m, cell in ref.items() if cell.value is not None]
        if sorted(rows) != sorted(wanted):
            problems.append(f"{name}: rows {sorted(rows)} != {sorted(wanted)}")
            continue
        for m in wanted:
            cell = ref[m]
            value, lo, hi, bound, _ = rows[m]
            v = _num(value)
            if abs(v - cell.value) > benchmarks.POINT_TOL:
                problems.append(f"{name}.{m}: value {value} vs reference {cell.value}")
            if abs(_num(lo) - cell.ci[0]) > benchmarks.CI_TOL or abs(_num(hi) - cell.ci[1]) > benchmarks.CI_TOL:
                problems.append(f"{name}.{m}: ci [{lo}, {hi}] vs reference {list(cell.ci)}")
            if cell.bound is None:
                if bound:
                    problems.append(f"{name}.{m}: unexpected bound {bound}")
                continue
            b = _num(bound)
            if not v - PRINTED_TOL <= b <= 1.0:
                problems.append(f"{name}.{m}: bound {bound} is not a ceiling of value {value}")
            if (name, m) not in RED_BOUND_CELLS and abs(b - cell.bound) > benchmarks.POINT_TOL:
                problems.append(f"{name}.{m}: bound {bound} vs reference {cell.bound}")
    return problems


_BOUND_LINE = re.compile(r"^  bound (\w+) +(\S+)  attained by (.*)$")


def _check_bounds(case: Case, results, oracle) -> list[str]:
    from directcorr import evaluate
    from directcorr.prob import Alphabet, from_counts

    out = results[0][1]
    lines = out.splitlines()
    problems = []
    head = re.match(r"^dataset: \S+ \((\d+) couplings examined\)$", lines[0])
    if head is None or int(head.group(1)) != BOUNDS_COUPLINGS:
        problems.append(f"header {lines[0]!r} does not report {BOUNDS_COUPLINGS} couplings")
    found = [m for m in (_BOUND_LINE.match(ln) for ln in lines[1:]) if m]
    if [m.group(1) for m in found] != list(BOUND_IDS) or len(found) != len(lines) - 1:
        return problems + [f"bound lines {[m.group(1) for m in found]} != {list(BOUND_IDS)}"]
    counts = case.expect["counts"]
    full = from_counts(counts, [Alphabet.of_size(d) for d in counts.shape])
    n = int(counts.sum())
    pxz = [[Fraction(int(counts[x, :, z].sum()), n) for z in range(counts.shape[2])] for x in range(counts.shape[0])]
    for m in found:
        measure, b, attained = m.group(1), _num(m.group(2)), m.group(3)
        if b < evaluate(full, measure) - PRINTED_TOL:
            problems.append(f"bound {measure} {b} below the observed value")
        # The reported maximum must be attained: re-evaluate the named
        # candidate exactly, in the bound convention.
        if attained == "observed joint":
            p = [[[Fraction(int(v), n) for v in row] for row in plane] for plane in counts]
        else:
            fmap = ast.literal_eval(attained.removeprefix("f="))
            p = [[[pxz[x][z] if fmap[x][z] == y else Fraction(0) for z in range(len(pxz[0]))]
                  for y in range(counts.shape[1])] for x in range(len(pxz))]
        exact = bound_convention_value(oracle, p, measure)
        if abs(b - exact) > PRINTED_TOL:
            problems.append(f"bound {measure} {b} != {exact:.9f}, its value at the reported argmax")
    return problems


def _js_on_support(p, q, support) -> float:
    terms = []
    for a, b, s in zip(p, q, support):
        if not s:
            continue
        m = (a + b) / 2
        if a > 0:
            terms.append(float(a) * math.log1p(float((a - m) / m)))
        if b > 0:
            terms.append(float(b) * math.log1p(float((b - m) / m)))
    return min(max(math.fsum(terms) / (2.0 * math.log(2.0)), 0.0), 1.0)


def bound_convention_value(oracle, p, measure: str, strategy: str = "b") -> float:
    """Exact value of a bound measure on one candidate joint.

    Two-variable measures use the plain divergences; the removal family
    sums its JS terms only over the candidate's support pattern, which is
    the convention the bounds are defined in.
    """
    flat = oracle._flat
    if measure == "rmi":
        return oracle.rmi(p)
    if measure in ("nace", "race", "rmi_do"):
        return getattr(oracle, measure)(p, strategy)
    if measure == "ricmi_two":
        return (bound_convention_value(oracle, p, "ricmi_xy", strategy)
                + bound_convention_value(oracle, p, "ricmi_yx", strategy)) / 2.0
    if measure == "rcmi":
        a, b = p, oracle.q_cmi(p)
        support = [v > 0 for v in flat(p)]
    elif measure == "rpmi":
        a, b = p, oracle.q_pmi(p, strategy)
        support = [v > 0 for v in flat(p)]
    else:
        a, b = (oracle.icmi_pair_xy if measure == "ricmi_xy" else oracle.icmi_pair_yx)(p, strategy)
        support = [v > 0 for v in flat(a)]
    return math.sqrt(_js_on_support(flat(a), flat(b), support))


def _check_ingest(case: Case, results, oracle) -> list[str]:
    from directcorr import evaluate
    from directcorr.datasets import TITANIC_ALPHABETS
    from directcorr.prob import from_counts
    from directcorr.report import fmt

    _, out, err = results[0]
    problems = []
    skipped = re.search(r"^note: skipped (\d+) rows", err, re.M)
    if skipped is None or int(skipped.group(1)) != case.expect["skipped"]:
        problems.append(f"skipped-row note {skipped and skipped.group(0)!r}, injected {case.expect['skipped']}")
    joint = from_counts(case.expect["counts"], TITANIC_ALPHABETS)
    rows = _table_rows(out)
    wanted = ("pcc", "pc", "rmi", "rcmi", "rpmi", "ricmi_xy", "ricmi_yx", "ricmi_two", "nace", "race", "rmi_do")
    if sorted(rows) != sorted(wanted):
        return problems + [f"rows {sorted(rows)} != {sorted(wanted)}"]
    for m in wanted:
        expected = fmt(evaluate(joint, m))
        if rows[m][0] != expected:
            problems.append(f"{m}: {rows[m][0]} != {expected} from the generated codes")
    return problems


def _simple_model(lam0: Fraction, lam1: Fraction):
    """Exact p[x][y][z] of the two-parameter voter model."""
    p = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    for z in (0, 1):
        p[z][z][z] = (1 + lam0) / 4
        p[1 - z][1 - z][z] = (1 - lam0) * lam1 / 4
        p[1 - z][z][z] = (1 - lam0) * (1 - lam1) / 4
    return p


_ORACLE_SWEEP = {
    "pcc": lambda o, p: o.pcc_xy(p), "mi": lambda o, p: o.mi_xy(p),
    "nmi_y": lambda o, p: o.nmi(p)[0], "nmi_x": lambda o, p: o.nmi(p)[1], "nmi_max": lambda o, p: o.nmi(p)[2],
    "rmi": lambda o, p: o.rmi(p), "cmi": lambda o, p: o.cmi(p), "cmi_js": lambda o, p: o.cmi_js(p),
    "rcmi": lambda o, p: o.rcmi(p),
}


def _oracle_sweep_value(oracle, p, measure: str) -> float:
    if measure in _ORACLE_SWEEP:
        return _ORACLE_SWEEP[measure](oracle, p)
    return getattr(oracle, measure)(p, "c")


def _check_sweep(case: Case, results, oracle) -> list[str]:
    lines = results[0][1].splitlines()
    order = case.expect["order"]
    if not lines or lines[0] != "param,param_value,measure,value":
        return ["missing sweep header"]
    rows = lines[1:]
    if len(rows) != SWEEP_POINTS * len(order):
        return [f"{len(rows)} rows, expected {SWEEP_POINTS} points x {len(order)} measures"]
    problems = []
    grid = np.linspace(0.0, 1.0, SWEEP_POINTS).tolist()
    for k, lam1 in enumerate(grid):
        p = _simple_model(SWEEP_LAM0, Fraction(lam1))
        for i, m in enumerate(order):
            row = rows[k * len(order) + i].split(",")
            if row[:3] != ["lam1", f"{lam1:.6f}", m]:
                problems.append(f"row {k * len(order) + i}: {row[:3]} out of order")
                continue
            exact = _oracle_sweep_value(oracle, p, m)
            got = _num(row[3])
            if not (got == exact or abs(got - exact) <= PRINTED_TOL):
                problems.append(f"lam1={lam1:.6f} {m}: {row[3]} vs oracle {exact!r}")
    return problems


# ---------------------------------------------------------------------------
# Self-test: a checker that accepts a tampered output is broken.
# ---------------------------------------------------------------------------


def tampered(workload: str, results: list[tuple[int, str, str]]) -> dict[str, list[tuple[int, str, str]]]:
    """Two corruptions of a correct output: one value off by 0.01, one row missing."""
    pattern = ROW_PATTERNS[workload]
    out = {}
    for kind in ("value_off", "missing_row"):
        copy = list(results)
        for ci, (rc, stdout, err) in enumerate(results):
            lines = stdout.splitlines(keepends=True)
            hit = next((i for i, ln in enumerate(lines) if pattern.match(ln)), None)
            if hit is None:
                continue
            if kind == "value_off":
                mt = pattern.match(lines[hit])
                v = f"{float(mt.group('v')) + 0.01:.6f}"
                lines[hit] = lines[hit][:mt.start("v")] + v + lines[hit][mt.end("v"):]
            else:
                del lines[hit]
            copy[ci] = (rc, "".join(lines), err)
            break
        out[kind] = copy
    return out
