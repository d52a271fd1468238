"""Command-line front end: analyze, reproduce, sweep, bounds, bootstrap.

Exit codes: 0 success, 1 data error (files, schemas, empty data),
2 usage or computation error.  Human tables go to stdout; --format
csv|json writes machine-readable files; stderr carries caveats.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import benchmarks
from .bounds import BOUND_MEASURES, DEFAULT_CAP, achievable_bounds
from .datasets import (
    Dataset,
    data_dir,
    dataset_from_builtin,
    dataset_from_csv,
    load_schema,
)
from .engine import PAIR_KERNELS, BatchContext
from .errors import (
    DegenerateVariable,
    DirectCorrError,
    EmptyAfterFiltering,
    MissingColumn,
    SingleCategory,
    SingularDenominator,
    UnknownMeasure,
    ZeroTotal,
)
from .models import (
    DecisionParams,
    SimpleParams,
    decision_model_joint,
    fig5_corpus,
    simple_model_joint,
)
from .registry import (
    TABLE_MEASURES,
    NumericEncoding,
    argmax_pair,
    do_conditional,
    evaluate,
    get_measure,
)
from .report import MeasureEntry, MeasureReport, fmt, human_table, to_csv, to_json
from .resampling import RNG_ID, CiReport, bootstrap_cis
from .sparse import SparseStrategy

BACKDOOR_CAVEAT = (
    "note: do-family measures assume Z is a sufficient back-door adjustment set; "
    "this is a modeling assumption the data cannot verify."
)

DATA_ERRORS = (FileNotFoundError, MissingColumn, EmptyAfterFiltering, ZeroTotal)

# What ``evaluate`` raises where a measure has no value.  Only analyze's point
# values catch it (bootstrap shares them); sweep reads the engine's NaN instead.
UNDEFINED = (DegenerateVariable, SingularDenominator, SingleCategory)

PC_OMITTED = "a variable has no ordinal interpretation"

SWEEP_DEFAULT_MEASURES = ("rcmi", "ricmi_two", "nace", "race", "rmi_do")


def _parse_measures(text: str | None, default=TABLE_MEASURES) -> list[str]:
    if not text or text == "all":
        return list(default)
    ids = [m.strip() for m in text.split(",") if m.strip()]
    if not ids:
        raise ValueError(f"--measures {text!r} names no measure")
    for m in ids:
        get_measure(m)
    return ids


def _resolve_dataset(args) -> Dataset:
    if args.builtin:
        if args.builtin == "fig5":
            name, joint = fig5_corpus()[0]
            return Dataset(
                name="fig5",
                joint=joint,
                observations=None,
                encoding=NumericEncoding(),
                pc_allowed=True,
                source=f"exact model ({name})",
            )
        return dataset_from_builtin(args.builtin)
    if args.csv:
        if not args.schema:
            raise ValueError("--csv needs --schema")
        schema = load_schema(args.schema)
        ds, report = dataset_from_csv(args.csv, schema)
        if report.n_skipped:
            print(
                f"note: skipped {report.n_skipped} rows ({'; '.join(report.skipped_examples)})",
                file=sys.stderr,
            )
        return ds
    raise ValueError("one of --builtin or --csv is required")


def _point_values(ds: Dataset, measures, strategy: SparseStrategy) -> tuple[dict[str, float], dict[str, str]]:
    """The value of each measure on the dataset, and why each undefined one has none.

    pc is in neither when a variable has no ordinal interpretation: it is
    omitted.  Only the measures with a value are resampled or bounded.
    """
    values, undefined = {}, {}
    for m in measures:
        if m == "pc" and not ds.pc_allowed:
            continue
        try:
            values[m] = evaluate(ds.joint, m, strategy, ds.encoding)
        except UNDEFINED as exc:
            undefined[m] = str(exc)
    return values, undefined


def _interval(ci: CiReport) -> tuple[tuple[float, float] | None, str]:
    """The CI's endpoints, None where over 5% of the resamples were excluded, and the note on its exclusions."""
    if ci.too_many_excluded:
        return None, f"excluded={ci.n_excluded} (> 5% of {ci.b_resamples} resamples; no CI)"
    return (ci.lower, ci.upper), f"excluded={ci.n_excluded}" if ci.n_excluded else ""


def _build_report(ds: Dataset, measures, strategy, bootstrap_b, seed, with_bounds, cap) -> MeasureReport:
    strategy = SparseStrategy.parse(strategy)
    if bootstrap_b and ds.observations is None:
        raise DirectCorrError(f"dataset {ds.name!r} has no observation-level records to resample")
    values, undefined = _point_values(ds, measures, strategy)
    cis = {}
    if bootstrap_b:
        cis = bootstrap_cis(ds.observations, list(values), bootstrap_b, seed, strategy, ds.encoding)
    wanted = [m for m in values if m in BOUND_MEASURES] if with_bounds else []
    bounds = achievable_bounds(ds.joint, wanted, strategy, cap) if wanted else {}
    entries = []
    notes = [f"source: {ds.source}", f"strategy: {strategy.value}"]
    dc = None
    for m in measures:
        if m not in values and m not in undefined:
            notes.append(f"pc omitted: {PC_OMITTED}")
            continue
        value = values.get(m)
        ci, excluded = _interval(cis[m]) if m in cis else (None, "")
        if value is None:
            note = [undefined[m]]
        else:
            note = ["+infinity (singular reconstruction)"] if math.isinf(value) else []
            if m in PAIR_KERNELS:
                dc = dc or do_conditional(ds.joint, strategy)
                i, k = argmax_pair(dc, m)
                labels = ds.joint.alphabets[0].labels
                note.append(f"pair=({labels[i]},{labels[k]})" + (f" fills={dc.fill_count}" if dc.fill_count else ""))
        if excluded:
            note.append(excluded)
        entries.append(MeasureEntry(
            measure=m, value=value, ci=ci,
            bound=bounds[m].max_value if m in bounds else None, strategy=strategy.value, note=" ".join(note),
        ))
    return MeasureReport(dataset=ds.name, entries=tuple(entries), notes=tuple(notes))


def cmd_analyze(args) -> int:
    if bool(args.format) != bool(args.output):
        raise ValueError("--format and --output must be given together")
    ds = _resolve_dataset(args)
    measures = _parse_measures(args.measures)
    if any(get_measure(m).do_family for m in measures):
        print(BACKDOOR_CAVEAT, file=sys.stderr)
    report = _build_report(ds, measures, args.strategy, args.bootstrap, args.seed, args.bounds, args.cap)
    if args.format:
        text = to_csv([report]) if args.format == "csv" else to_json([report])
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(human_table(report))
    return 0


def cmd_bounds(args) -> int:
    ds = _resolve_dataset(args)
    measures = _parse_measures(args.measures, default=BOUND_MEASURES)
    bad = [m for m in measures if m not in BOUND_MEASURES]
    if bad:
        raise UnknownMeasure(f"no achievable bound for {bad}; choose from {sorted(BOUND_MEASURES)}")
    reports = achievable_bounds(ds.joint, measures, SparseStrategy.parse(args.strategy), args.cap)
    print(f"dataset: {ds.name} ({reports[measures[0]].n_enumerated} couplings examined)")
    for m in measures:
        r = reports[m]
        attained = "observed joint" if r.argmax_fmap is None else f"f={r.argmax_fmap}"
        print(f"  bound {m:<10} {fmt(r.max_value)}  attained by {attained}")
    return 0


def cmd_bootstrap(args) -> int:
    ds = _resolve_dataset(args)
    if ds.observations is None:
        raise DirectCorrError(f"dataset {ds.name!r} has no observation-level records to resample")
    measures = _parse_measures(args.measures)
    if any(get_measure(m).do_family for m in measures):
        print(BACKDOOR_CAVEAT, file=sys.stderr)
    strategy = SparseStrategy.parse(args.strategy)
    values, undefined = _point_values(ds, measures, strategy)
    cis = bootstrap_cis(ds.observations, list(values), args.bootstrap, args.seed, strategy, ds.encoding)
    print(f"dataset: {ds.name} (B={args.bootstrap}, seed={args.seed}, rng={RNG_ID})")
    for m in measures:
        if m in cis:
            ci, note = _interval(cis[m])
            shown = "---" if ci is None else f"[{fmt(ci[0])}, {fmt(ci[1])}]"
            print(f"  {m:<10} {fmt(cis[m].point)}  ci={shown}" + (f" {note}" if note else ""))
        elif m in undefined:
            print(f"  {m:<10} ---  {undefined[m]}")
        else:
            print(f"  {m:<10} omitted: {PC_OMITTED}")
    return 0


def _sweep_params(args) -> dict[str, float]:
    fixed = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects name=value, got {item!r}")
        k, v = item.split("=", 1)
        fixed[k.strip()] = float(v)
    return fixed


def cmd_sweep(args) -> int:
    measures = _parse_measures(args.measures, default=SWEEP_DEFAULT_MEASURES)
    fixed = _sweep_params(args)
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    grid = np.linspace(args.start, args.stop, args.points)
    params_type, model = {
        "simple": (SimpleParams, simple_model_joint),
        "decision": (DecisionParams, decision_model_joint),
    }[args.model]
    names = sorted(f.name for f in dataclasses.fields(params_type))
    if sorted({*fixed, args.sweep}) != names:
        raise ValueError(f"the {args.model} model takes {', '.join(names)}; --sweep one and --set the others")
    joints = [model(params_type(**fixed, **{args.sweep: float(value)})) for value in grid]
    ctx = BatchContext(np.stack([j.probs for j in joints]), args.strategy)
    values = {m: ctx.value(m) for m in measures}
    cells = [(float(value), m, float(values[m][i])) for i, value in enumerate(grid) for m in measures]
    lines = ["param,param_value,measure,value"] + [
        f"{args.sweep},{v:.6f},{m},{fmt(None if math.isnan(x) else x)}" for v, m, x in cells
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    # an undefined value is NaN in its row; one note per measure, by the first point it is undefined at
    undefined = {m: np.flatnonzero(np.isnan(values[m])) for m in measures}
    for m in sorted((m for m, rows in undefined.items() if rows.size), key=lambda m: undefined[m][0]):
        rows = undefined[m]
        why = " / ".join(dict.fromkeys(str(ctx.undefined_error(m, row)) for row in rows))
        print(f"note: {m} undefined at {rows.size} of {len(grid)} points, left empty ({why})", file=sys.stderr)
    return 0


def _reproduce_dataset(name: str, args) -> tuple[Dataset | None, str]:
    if name == "berkeley":
        return dataset_from_builtin("berkeley"), "embedded counts"
    flag = getattr(args, name)
    candidates = [flag] if flag else []
    default_file = {"titanic": "titanic.csv", "adult": "adult.data"}[name]
    candidates.append(os.path.join(data_dir(), default_file))
    for path in candidates:
        if path and Path(path).exists():
            ds, _ = dataset_from_csv(path, load_schema(name))
            return ds, f"csv:{path}"
    if name == "titanic":
        return dataset_from_builtin("titanic"), "embedded counts (no CSV found)"
    return None, f"skipped: no file at {candidates[-1]} (fetch with scripts/fetch_data.py)"


def _compare(entry: MeasureEntry | None, ref: benchmarks.ReferenceCell, with_ci: bool) -> tuple[bool, str]:
    """Whether one analyze entry (None when omitted) matches its reference cell, and the line saying so."""
    if ref.value is None:
        ok = entry is None
        return ok, f"{'---':>10}  expected ---  {'pass' if ok else 'FAIL (expected no value)'}"
    if entry is None:
        return False, "omitted but reference has a value: FAIL"
    if entry.value is None:
        return False, f"value --- vs {ref.value:+.3f} FAIL"
    point_tol, ci_tol = benchmarks.POINT_TOL, benchmarks.CI_TOL
    checks = [(f"value {fmt(entry.value)} vs {ref.value:+.3f}", abs(entry.value - ref.value) <= point_tol)]
    if ref.ci is not None and with_ci:  # with bootstrap on, an entry left without a CI fails (NaN compares false)
        (lo, hi), (ref_lo, ref_hi) = entry.ci or (math.nan, math.nan), ref.ci
        shown = "---" if entry.ci is None else f"[{fmt(lo)},{fmt(hi)}]"
        checks.append((f"ci {shown} vs {list(ref.ci)}", abs(lo - ref_lo) <= ci_tol and abs(hi - ref_hi) <= ci_tol))
    if ref.bound is not None:
        checks.append((f"bound {fmt(entry.bound)} vs {ref.bound:.3f}", abs(entry.bound - ref.bound) <= point_tol))
    return all(ok for _, ok in checks), "; ".join(f"{text} {'ok' if ok else 'FAIL'}" for text, ok in checks)


def cmd_reproduce(args) -> int:
    print(BACKDOOR_CAVEAT, file=sys.stderr)
    n_pass = n_fail = n_skip = 0
    for name in ("titanic", "adult", "berkeley"):
        expected = benchmarks.REFERENCE[name]
        ds, source = _reproduce_dataset(name, args)
        print(f"== {name} [{source}]")
        if ds is None:
            n_skip += len(expected)
            continue
        report = _build_report(ds, TABLE_MEASURES, args.strategy, args.bootstrap, args.seed, True, args.cap)
        entries = {e.measure: e for e in report.entries}
        for m in TABLE_MEASURES:
            ok, line = _compare(entries.get(m), expected[m], args.bootstrap > 0)
            n_pass += ok
            n_fail += not ok
            print(f"  {m:<10} {line}")
    print(f"reproduce summary: {n_pass} cells ok, {n_fail} failed, {n_skip} skipped")
    return 0 if n_fail == 0 else 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit 2, like every other usage error."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="directcorr",
        description="Total- and direct-correlation measures on three-variable categorical data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument("--builtin", choices=("berkeley", "titanic", "fig5"), help="embedded dataset")
        p.add_argument("--csv", help="path to a CSV file")
        p.add_argument("--schema", help="canned schema name (titanic, adult, berkeley) or schema JSON path")

    def add_common(p, *flags):
        """--strategy, plus those of --seed and --cap that the command reads."""
        p.add_argument("--strategy", default="b", choices=("a", "b", "c"), help="sparse-cell fill rule")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=benchmarks.SEED)
        if "cap" in flags:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="coupling enumeration cap")

    p = sub.add_parser("analyze", help="compute measures on one dataset")
    add_dataset_args(p)
    add_common(p, "seed", "cap")
    p.add_argument("--measures", default=None, help="comma-separated measure ids (default: the standard table)")
    p.add_argument("--bootstrap", type=int, default=0, metavar="B", help="bootstrap resamples (0 = off)")
    p.add_argument("--bounds", action="store_true", help="also compute achievable upper bounds")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output", help="file to write in --format (give both or neither)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="achievable upper bounds by coupling enumeration")
    add_dataset_args(p)
    add_common(p, "cap")
    p.add_argument("--measures", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bootstrap", help="bootstrap confidence intervals")
    add_dataset_args(p)
    add_common(p, "seed")
    p.add_argument("--measures", default=None)
    p.add_argument("--bootstrap", "-B", type=int, default=benchmarks.B_RESAMPLES)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("sweep", help="toy-model parameter sweeps (plot-ready table)")
    add_common(p)
    p.add_argument("--model", required=True, choices=("simple", "decision"))
    p.add_argument("--set", action="append", metavar="NAME=VALUE", help="fixed parameter (repeatable)")
    p.add_argument("--sweep", required=True, help="parameter to sweep")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--measures", default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="recompute the benchmark table and compare to reference values")
    add_common(p, "seed", "cap")
    p.add_argument("--titanic", help="path to titanic.csv (default: $DIRECTCORR_DATA/titanic.csv)")
    p.add_argument("--adult", help="path to adult.data (default: $DIRECTCORR_DATA/adult.data)")
    p.add_argument("--bootstrap", type=int, default=benchmarks.B_RESAMPLES, metavar="B")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except (DirectCorrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
