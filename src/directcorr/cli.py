"""Command-line front end: analyze, reproduce, sweep, bounds, bootstrap.

Exit codes: 0 success, 1 data error (files, schemas, empty data),
2 usage or computation error.  Human tables go to stdout; --format
csv|json writes machine-readable files; stderr carries caveats.
"""

from __future__ import annotations

import argparse
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
from .docalc import argmax_pair, do_conditional
from .errors import (
    DirectCorrError,
    EmptyAfterFiltering,
    MissingColumn,
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
from .registry import TABLE_MEASURES, evaluate, get_measure
from .report import MeasureEntry, MeasureReport, fmt, human_table, to_csv, to_json
from .resampling import bootstrap_cis
from .sparse import SparseStrategy
from .totalcorr import NumericEncoding

BACKDOOR_CAVEAT = (
    "note: do-family measures assume Z is a sufficient back-door adjustment set; "
    "this is a modeling assumption the data cannot verify."
)

DATA_ERRORS = (FileNotFoundError, MissingColumn, EmptyAfterFiltering, ZeroTotal)

SWEEP_DEFAULT_MEASURES = ("rcmi", "ricmi_two", "nace", "race", "rmi_do")


def _parse_measures(text: str | None, default=TABLE_MEASURES) -> list[str]:
    if not text or text == "all":
        return list(default)
    ids = [m.strip() for m in text.split(",") if m.strip()]
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
                encoding=NumericEncoding.ordinal(),
                pc_allowed=True,
                source=f"exact model ({name})",
            )
        return dataset_from_builtin(args.builtin)
    if args.csv:
        schema = load_schema(args.schema)
        ds, report = dataset_from_csv(args.csv, schema)
        if report.n_skipped:
            print(
                f"note: skipped {report.n_skipped} rows ({'; '.join(report.skipped_examples)})",
                file=sys.stderr,
            )
        return ds
    raise SystemExit("one of --builtin or --csv is required")


def _emit(reports: list[MeasureReport], args) -> None:
    if args.format and args.output:
        text = to_csv(reports) if args.format == "csv" else to_json(reports)
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        for r in reports:
            print(human_table(r))


def _build_report(ds: Dataset, measures, strategy, bootstrap_b, seed, with_bounds, cap) -> MeasureReport:
    strategy = SparseStrategy.parse(strategy)
    if any(get_measure(m).do_family for m in measures):
        print(BACKDOOR_CAVEAT, file=sys.stderr)
    cis = {}
    if bootstrap_b:
        if ds.observations is None:
            raise DirectCorrError(f"dataset {ds.name!r} has no observation-level records to resample")
        # pc is left out of the report below, so it is not resampled either
        reported = [m for m in measures if m != "pc" or ds.pc_allowed]
        cis = bootstrap_cis(ds.observations, reported, bootstrap_b, seed, strategy, ds.encoding)
    bounds = {}
    if with_bounds:
        wanted = [m for m in measures if m in BOUND_MEASURES]
        if wanted:
            bounds = achievable_bounds(ds.joint, wanted, strategy, cap)
    entries = []
    notes = [f"source: {ds.source}", f"strategy: {strategy.value}"]
    dc = None
    for m in measures:
        spec = get_measure(m)
        if m == "pc" and not ds.pc_allowed:
            notes.append("pc omitted: a variable has no ordinal interpretation")
            continue
        value = evaluate(ds.joint, m, strategy, ds.encoding)
        note = ""
        if math.isinf(value):
            note = "+infinity (singular reconstruction)"
        if spec.do_family and m in ("ace", "nace", "ace_kl", "race"):
            if dc is None:
                dc = do_conditional(ds.joint, strategy)
            i, k = argmax_pair(dc, m)
            labels = ds.joint.alphabets[0].labels
            note = (note + " " if note else "") + f"pair=({labels[i]},{labels[k]})"
            if dc.fill_count:
                note += f" fills={dc.fill_count}"
        ci = None
        if m in cis:
            ci = (cis[m].lower, cis[m].upper)
            if cis[m].n_excluded:
                note = (note + " " if note else "") + f"excluded={cis[m].n_excluded}"
        bound = bounds[m].max_value if m in bounds else None
        entries.append(
            MeasureEntry(measure=m, value=value, ci=ci, bound=bound, strategy=strategy.value, note=note)
        )
    return MeasureReport(dataset=ds.name, entries=tuple(entries), notes=tuple(notes))


def cmd_analyze(args) -> int:
    ds = _resolve_dataset(args)
    measures = _parse_measures(args.measures)
    report = _build_report(ds, measures, args.strategy, args.bootstrap, args.seed, args.bounds, args.cap)
    _emit([report], args)
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
    cis = bootstrap_cis(
        ds.observations, measures, args.bootstrap, args.seed, SparseStrategy.parse(args.strategy), ds.encoding
    )
    print(f"dataset: {ds.name} (B={args.bootstrap}, seed={args.seed}, rng={next(iter(cis.values())).rng})")
    for m in measures:
        c = cis[m]
        note = f" excluded={c.n_excluded}" if c.n_excluded else ""
        print(f"  {m:<10} {fmt(c.point)}  ci=[{fmt(c.lower)}, {fmt(c.upper)}]{note}")
    return 0


def _sweep_params(args) -> dict[str, float]:
    fixed = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects name=value, got {item!r}")
        k, v = item.split("=", 1)
        fixed[k.strip()] = float(v)
    return fixed


def cmd_sweep(args) -> int:
    measures = _parse_measures(args.measures, default=SWEEP_DEFAULT_MEASURES)
    fixed = _sweep_params(args)
    grid = np.linspace(args.start, args.stop, args.points)
    strategy = SparseStrategy.parse(args.strategy)
    rows = []
    for value in grid:
        params = dict(fixed)
        params[args.sweep] = float(value)
        if args.model == "simple":
            joint = simple_model_joint(SimpleParams(**params))
        elif args.model == "decision":
            joint = decision_model_joint(DecisionParams(**params))
        else:
            raise SystemExit(f"unknown model {args.model!r}; choose simple or decision")
        for m in measures:
            rows.append((args.sweep, float(value), m, evaluate(joint, m, strategy)))
    header = "param,param_value,measure,value"
    lines = [header] + [f"{p},{v:.6f},{m},{fmt(val)}" for p, v, m, val in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
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


def cmd_reproduce(args) -> int:
    strategy = SparseStrategy.parse(args.strategy)
    print(BACKDOOR_CAVEAT, file=sys.stderr)
    n_pass = n_fail = n_skip = 0
    for name in ("titanic", "adult", "berkeley"):
        expected = benchmarks.REFERENCE[name]
        ds, source = _reproduce_dataset(name, args)
        print(f"== {name} [{source}]")
        if ds is None:
            n_skip += len(expected)
            continue
        cis = {}
        if args.bootstrap:
            cis = bootstrap_cis(
                ds.observations, [m for m in TABLE_MEASURES if m != "pc" or ds.pc_allowed],
                args.bootstrap, args.seed, strategy, ds.encoding,
            )
        bounds = achievable_bounds(ds.joint, BOUND_MEASURES, strategy, args.cap)
        for m in TABLE_MEASURES:
            ref = expected[m]
            if ref.value is None:
                status = "pass" if not ds.pc_allowed else "FAIL (expected no value)"
                n_pass += status == "pass"
                n_fail += status != "pass"
                print(f"  {m:<10} {'---':>10}  expected ---  {status}")
                continue
            if m == "pc" and not ds.pc_allowed:
                print(f"  {m:<10} omitted but reference has a value: FAIL")
                n_fail += 1
                continue
            value = evaluate(ds.joint, m, strategy, ds.encoding)
            parts = []
            ok = abs(value - ref.value) <= benchmarks.POINT_TOL
            parts.append(f"value {fmt(value)} vs {ref.value:+.3f} {'ok' if ok else 'FAIL'}")
            cell_ok = ok
            if ref.ci is not None and m in cis:
                lo, hi = cis[m].lower, cis[m].upper
                ci_ok = abs(lo - ref.ci[0]) <= benchmarks.CI_TOL and abs(hi - ref.ci[1]) <= benchmarks.CI_TOL
                parts.append(f"ci [{fmt(lo)},{fmt(hi)}] vs {list(ref.ci)} {'ok' if ci_ok else 'FAIL'}")
                cell_ok = cell_ok and ci_ok
            if ref.bound is not None:
                b = bounds[m].max_value
                b_ok = abs(b - ref.bound) <= benchmarks.POINT_TOL
                parts.append(f"bound {fmt(b)} vs {ref.bound:.3f} {'ok' if b_ok else 'FAIL'}")
                cell_ok = cell_ok and b_ok
            n_pass += cell_ok
            n_fail += not cell_ok
            print(f"  {m:<10} " + "; ".join(parts))
    print(f"reproduce summary: {n_pass} cells ok, {n_fail} failed, {n_skip} skipped")
    return 0 if n_fail == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="directcorr",
        description="Total- and direct-correlation measures on three-variable categorical data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument("--builtin", choices=("berkeley", "titanic", "fig5"), help="embedded dataset")
        p.add_argument("--csv", help="path to a CSV file")
        p.add_argument("--schema", help="canned schema name (titanic, adult, berkeley) or schema JSON path")

    def add_common(p):
        p.add_argument("--strategy", default="b", choices=("a", "b", "c"), help="sparse-cell fill rule")
        p.add_argument("--seed", type=int, default=benchmarks.SEED)
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="coupling enumeration cap")

    p = sub.add_parser("analyze", help="compute measures on one dataset")
    add_dataset_args(p)
    add_common(p)
    p.add_argument("--measures", default=None, help="comma-separated measure ids (default: the standard table)")
    p.add_argument("--bootstrap", type=int, default=0, metavar="B", help="bootstrap resamples (0 = off)")
    p.add_argument("--bounds", action="store_true", help="also compute achievable upper bounds")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output", help="file to write when --format is given")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="achievable upper bounds by coupling enumeration")
    add_dataset_args(p)
    add_common(p)
    p.add_argument("--measures", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bootstrap", help="bootstrap confidence intervals")
    add_dataset_args(p)
    add_common(p)
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
    add_common(p)
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
