"""Traced in-process runs: per-layer spans recorded from outside the program.

Run as ``python3 perfbench/tracing.py SPEC.json``.  The spec names the CLI
argv of one workload run, the number of seconds to keep repeating it, the
joints for the per-layer micro cases and where to write the result.

Each repetition runs the argv through ``directcorr.cli.main`` twice: once
untraced, then once with the public functions of each module wrapped in
spans.  Nothing under ``src/`` changes.  Modules import functions by name,
so each function is patched in every module namespace it is looked up in
(``directcorr.cli.evaluate`` and ``directcorr.resampling.evaluate`` are the
same function reached through two names).  Methods are patched on their
class.  Spans stay in memory and are reduced to metrics at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNDEFINED = {"DegenerateVariable", "SingularDenominator", "SingleCategory"}
MICRO_ID_REPS = 15
MICRO_KERNEL_REPS = 3
CHUNK = 8192


class Tracer:
    """Spans in parallel lists; ``parents[i]`` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[object] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, tag=None):
        names, starts, ends, parents, tags, stack = (
            self.names, self.starts, self.ends, self.parents, self.tags, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            tags.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[i] = clock()
                stack.pop()
                tags[i] = type(exc).__name__
                raise
            ends[i] = clock()
            stack.pop()
            if tag is not None:
                tags[i] = tag(args, kwargs, result)
            return result

        return span


def _eval_tag(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["measure_id"], "inf" if math.isinf(result) else "ok")


def _boot_tag(args, kwargs, result):
    return (next(iter(result.values())).b_resamples if result else 0,
            sum(r.n_excluded for r in result.values()))


def _patch_table():
    """(namespace, attribute, span name, tag) for every wrapped function."""
    cli = importlib.import_module("directcorr.cli")
    registry = importlib.import_module("directcorr.registry")
    resampling = importlib.import_module("directcorr.resampling")
    datasets = importlib.import_module("directcorr.datasets")
    bounds = importlib.import_module("directcorr.bounds")
    prob = importlib.import_module("directcorr.prob")
    report = importlib.import_module("directcorr.report")
    package = importlib.import_module("directcorr")
    table = [(prob.Joint3, "__post_init__", "prob.joint3", None)]
    for ns in (cli, resampling, registry, package):
        table.append((ns, "evaluate", "registry.evaluate", _eval_tag))
    # The measure bodies behind each registry entry, looked up by the
    # registry's lambdas in its own namespace; the CLI also calls two
    # do-calculus helpers directly for its notes.
    for attr in ("cmi", "cmi_js", "rcmi", "pmi", "rpmi", "icmi_oneway", "ricmi",
                 "ace", "ace_kl", "do_conditional", "do_joint", "mi_do", "nace", "race", "rmi_do",
                 "pcc", "partial_correlation", "mutual_information", "normalized_mi", "regularized_mi"):
        layer = getattr(registry, attr).__module__.rsplit(".", 1)[1]
        table.append((registry, attr, f"{layer}.{attr}", None))
    for attr in ("do_conditional", "argmax_pair"):
        table.append((cli, attr, f"docalc.{attr}", None))
    table += [
        (cli, "bootstrap_cis", "resampling.bootstrap", _boot_tag),
        (resampling.ObservationTable, "counts", "resampling.counts", None),
        (resampling.ObservationTable, "joint", "resampling.counts", None),
        (cli, "achievable_bounds", "bounds.achievable",
         lambda a, k, r: next(iter(r.values())).n_enumerated if r else 0),
        (bounds.CouplingIterator, "digits_chunk", "bounds.digits_chunk", None),
        (bounds.CouplingIterator, "joints_chunk", "bounds.joints_chunk", None),
        (datasets, "load_csv_report", "datasets.load_csv", lambda a, k, r: (r.n_rows, r.n_skipped)),
    ]
    for attr in ("dataset_from_builtin", "dataset_from_csv", "load_schema"):
        table.append((cli, attr, "datasets.resolve", None))
    for attr in ("simple_model_joint", "decision_model_joint", "fig5_corpus"):
        table.append((cli, attr, "models.joint", None))
    for attr in ("fmt", "human_table", "to_csv", "to_json"):
        table.append((cli, attr, "report.format", None))
    table.append((report.MeasureEntry, "__post_init__", "report.entry", None))
    return table


@contextlib.contextmanager
def patched(tracer: Tracer, table):
    saved = [(ns, attr, ns.__dict__[attr]) for ns, attr, _, _ in table]
    try:
        for ns, attr, name, tag in table:
            setattr(ns, attr, tracer.wrap(name, ns.__dict__[attr], tag))
        yield
    finally:
        for ns, attr, fn in reversed(saved):
            setattr(ns, attr, fn)


def run_argvs(argvs, main) -> tuple[list[tuple[int, str, str]], float, float]:
    """Run each argv through ``main``; returns the outputs, wall seconds and CPU seconds."""
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return outputs, time.perf_counter() - wall0, time.process_time() - cpu0


def span_metrics(tr: Tracer, root: int) -> dict[str, float]:
    """Reduce one traced pass to per-layer totals, self times and counts."""
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tr.parents[i] >= 0:
            child[tr.parents[i]] += dur[i]
    own = [dur[i] - child[i] for i in range(n)]

    def total(prefix: str) -> float:
        """Time in spans named ``prefix*``, counting nested ones once."""
        out = 0.0
        for i in range(n):
            if tr.names[i].startswith(prefix):
                p = tr.parents[i]
                while p >= 0 and not tr.names[p].startswith(prefix):
                    p = tr.parents[p]
                if p < 0:
                    out += dur[i]
        return out

    def spans(name: str) -> list[int]:
        return [i for i in range(n) if tr.names[i] == name]

    ev, boot, ach, csv = (spans(s) for s in ("registry.evaluate", "resampling.bootstrap",
                                              "bounds.achievable", "datasets.load_csv"))
    boot_set = set(boot)
    rows = sum(tr.tags[i][0] for i in csv if isinstance(tr.tags[i], tuple))
    skipped = sum(tr.tags[i][1] for i in csv if isinstance(tr.tags[i], tuple))
    load_s = sum(dur[i] for i in csv)
    return {
        "cli.self_s": own[root],
        "prob.joint3_count": len(spans("prob.joint3")),
        "prob.joint3_s": total("prob."),
        "registry.evaluate_count": len(ev),
        "registry.evaluate_s": sum(dur[i] for i in ev),
        "registry.undefined_count": sum(tr.tags[i] in UNDEFINED for i in ev),
        "registry.inf_count": sum(isinstance(tr.tags[i], tuple) and tr.tags[i][1] == "inf" for i in ev),
        "removal.fn_s": total("removal."),
        "docalc.fn_s": total("docalc."),
        "totalcorr.fn_s": total("totalcorr."),
        "resampling.bootstrap_s": sum(dur[i] for i in boot),
        "resampling.draw_s": sum(own[i] for i in boot),
        "resampling.eval_s": sum(dur[i] for i in ev if tr.parents[i] in boot_set),
        "resampling.resamples": sum(tr.tags[i][0] for i in boot if isinstance(tr.tags[i], tuple)),
        "resampling.excluded": sum(tr.tags[i][1] for i in boot if isinstance(tr.tags[i], tuple)),
        "resampling.counts_s": total("resampling.counts"),
        "bounds.achievable_s": sum(dur[i] for i in ach),
        "bounds.couplings": sum(tr.tags[i] for i in ach if isinstance(tr.tags[i], int)),
        "bounds.chunks": len(spans("bounds.digits_chunk")),
        "bounds.chunk_build_s": total("bounds.digits_chunk") + total("bounds.joints_chunk"),
        "bounds.kernel_s": sum(own[i] for i in ach),
        "datasets.resolve_s": total("datasets."),
        "datasets.load_csv_s": load_s,
        "datasets.rows": rows,
        "datasets.rows_skipped": skipped,
        "datasets.rows_per_s": (rows + skipped) / load_s if load_s > 0 else 0.0,
        "models.joint_count": len(spans("models.joint")),
        "models.joint_s": total("models."),
        "report.fmt_s": total("report."),
    }


def micro_cases(tables: list[dict]) -> dict[str, float]:
    """Untraced per-call cost of each registry id and each bound kernel on the workload's joints."""
    import numpy as np

    from directcorr.bounds import BOUND_MEASURES, CouplingIterator, candidate_values
    from directcorr.errors import DirectCorrError
    from directcorr.prob import Alphabet, Joint3
    from directcorr.registry import MEASURES, evaluate

    joints = []
    for t in tables:
        probs = np.array(t["probs"])
        joints.append((Joint3(tuple(Alphabet.of_size(d) for d in probs.shape), probs), t["strategy"]))
    clock = time.perf_counter
    per_id: dict[str, list[float]] = {m: [] for m in MEASURES}
    for _ in range(MICRO_ID_REPS):
        for j, s in joints:
            for m in MEASURES:
                t0 = clock()
                try:
                    evaluate(j, m, s)
                except DirectCorrError:
                    pass  # undefined on this joint; the time to find that out still counts
                per_id[m].append(clock() - t0)
    out = {f"registry.{m}.us": statistics.median(v) * 1e6 for m, v in per_id.items()}
    # One 8192-coupling chunk of the first joint; tables with fewer
    # couplings repeat theirs to fill the chunk.
    j, s = joints[0]
    it = CouplingIterator(j)
    digits = np.resize(it.digits_chunk(0, min(CHUNK, len(it))), (CHUNK, len(it.cells)))
    stack = it.joints_chunk(digits)
    for m in BOUND_MEASURES:
        times = []
        for _ in range(MICRO_KERNEL_REPS):
            t0 = clock()
            candidate_values(j, stack, [m], s)
            times.append(clock() - t0)
        out[f"bounds.kernel.{m}.ms"] = statistics.median(times) * 1e3
    out["bounds.chunk_mb"] = stack.nbytes / 1e6
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("directcorr.cli")
    table = _patch_table()
    passes, outputs = [], []
    # A warm-up pass first, so that both passes of every pair start from
    # the same interpreter state (allocator, caches); a fresh CLI process
    # pays the cold state on every call and is timed by the untraced runs.
    t0 = time.perf_counter()
    run_argvs(spec["argvs"], cli.main)
    while True:
        t_pair = time.perf_counter()
        _, wall, cpu = run_argvs(spec["argvs"], cli.main)
        tracer = Tracer()
        with patched(tracer, table):
            root = tracer.wrap("cli.main", lambda: run_argvs(spec["argvs"], cli.main))
            traced_out, traced_wall, _ = root()
        metrics = span_metrics(tracer, 0)
        metrics["cli.cpu_s"] = cpu
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        passes.append(metrics)
        outputs.append(traced_out)
        del tracer
        now = time.perf_counter()
        if now + (now - t_pair) - t0 > spec["seconds"]:
            break
    result = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    result.update(micro_cases(spec["tables"]))
    Path(spec["result"]).write_text(
        json.dumps({"metrics": result, "passes": len(passes), "outputs": outputs}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
