"""Benchmark of the directcorr CLI on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ci,bounds,ingest,sweep} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload's CLI calls run as subprocesses, one at a
time, repeated while another repetition fits in ``--seconds`` seconds, and
the end-to-end metrics are medians over those repetitions.  With
``--trace 1`` the same argv runs in a child interpreter through
``directcorr.cli.main``, untraced and then with per-layer spans (see
``tracing.py``), and the per-layer metrics are reported.  Every output is checked (see ``workloads.py``), and each
checker is fed two tampered copies of a correct output, which it must
reject.  Metric names and units come from ``BENCHMARK.json``, whose
workloads (``ci``, ``bounds``, ``sweep``) are the gated ones; ``ingest``
runs only when asked for by name (see ``README.md`` why).

The first line of stdout is the run record (run conditions, argv, input
digests and per-repetition figures), then one line per metric for people,
and last one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SHARE = 0.1
SETUP_MIN_SAMPLES = 7
CALL_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Every CLI call imports the package from its bytecode cache, which the
    # set-up warm-up writes, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Runs commands through ``launch.py``, which stays small (see there why)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def run(self, cmd: list[str], out_dir: Path) -> tuple[int, str, str, dict]:
        """Exit code, stdout, stderr and the timing record of one command."""
        out_path, err_path = out_dir / "stdout", out_dir / "stderr"
        req = {"cmd": cmd, "cwd": str(ROOT), "stdout": str(out_path), "stderr": str(err_path),
               "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        rec = json.loads(line)
        return (rec.pop("rc"), out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"), rec)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "directcorr").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def conditions() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3] if Path("/proc/loadavg").exists() else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "threads": THREAD_VARS,
    }


class Checker:
    """Checks outputs once per distinct output, and self-tests on the first correct one."""

    def __init__(self, case, oracle):
        self.case, self.oracle = case, oracle
        self.seen: dict[str, list[str]] = {}
        self.selftest: dict[str, bool] | None = None

    def __call__(self, results: list[tuple[int, str, str]]) -> list[str]:
        from workloads import check, tampered

        key = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        if key not in self.seen:
            problems = check(self.case, results, self.oracle)
            if not problems and self.selftest is None:
                self.selftest = {kind: bool(check(self.case, bad, self.oracle))
                                 for kind, bad in tampered(self.case.workload, results).items()}
            self.seen[key] = problems
        return self.seen[key]


def import_wall(launcher: Launcher, tmp: Path) -> float:
    """Wall seconds of one fresh interpreter importing the CLI module."""
    rc, _, err, rec = launcher.run([sys.executable, "-c", "import directcorr.cli"], tmp)
    if rc != 0:
        raise RuntimeError(f"import directcorr.cli failed: {err.strip()[-300:]}")
    return rec["wall_s"]


def run_untraced(launcher: Launcher, case, seconds: float, tmp: Path, checker: Checker):
    """Repeat the workload's calls while another repetition fits in ``seconds``.

    Set-up samples are taken between repetitions, about ``SETUP_SHARE`` of
    the time, so that they see the same machine as the repetitions do.
    """
    runs, setup = [], []
    t0 = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        runs.append([launcher.run([sys.executable, "-m", "directcorr.cli", *argv], tmp) for argv in case.argvs])
        while sum(setup) < SETUP_SHARE * (time.perf_counter() - t0):
            setup.append(import_wall(launcher, tmp))
        now = time.perf_counter()
        if now + (now - t_rep) - t0 > seconds:
            break
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(import_wall(launcher, tmp))
    reps = [{
        "wall_s": sum(c[3]["wall_s"] for c in calls),
        "peak_rss_mb": max(c[3]["peak_rss_mb"] for c in calls),
        "cpu_s": sum(c[3]["cpu_s"] for c in calls),
        "problems": checker([c[:3] for c in calls])[:5],
    } for calls in runs]
    wall = statistics.median(r["wall_s"] for r in reps)
    metrics = {
        "wall_s": wall,
        "items_per_s": case.items / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setup),
    }
    return metrics, reps, setup


def run_traced(launcher: Launcher, case, seconds: float, tmp: Path, checker: Checker):
    spec = tmp / "trace_spec.json"
    result = tmp / "trace_result.json"
    spec.write_text(json.dumps({"argvs": case.argvs, "seconds": seconds, "tables": case.tables,
                                "result": str(result)}), encoding="utf-8")
    rc, _, err, _ = launcher.run([sys.executable, str(HERE / "tracing.py"), str(spec)], tmp)
    if rc != 0:
        raise RuntimeError(f"traced run failed (exit {rc}): {err.strip()[-500:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    reps = [{"problems": checker([tuple(r) for r in out])[:5]} for out in data["outputs"]]
    return data["metrics"], reps, []


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns the run record and the result object."""
    launcher = Launcher()  # before the benchmark process grows
    os.environ.update(THREAD_VARS)
    if str(ROOT / "tests") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import oracle
    import workloads

    record = {"workload": workload, "seed": seed, "trace": trace, "conditions": conditions()}
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import_wall(launcher, work)  # warm-up: writes the bytecode caches
        case = workloads.make_case(workload, seed, work)
        record["argvs"] = case.argvs
        record["inputs_sha256"] = case.digests
        record["items"] = {"count": case.items, "item": case.item}
        checker = Checker(case, oracle)
        run = run_traced if trace else run_untraced
        metrics, reps, record["setup_samples_s"] = run(launcher, case, seconds, work, checker)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = sum(bool(r["problems"]) for r in reps)
    selftest_ok = checker.selftest is not None and all(checker.selftest.values())
    record.update(reps=reps, selftest_rejected=checker.selftest, error_rate=failed / len(reps))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for r in reps:
        for p in r["problems"]:
            print(f"{workload}: check failed: {p}", file=sys.stderr)
    if not selftest_ok:
        print(f"{workload}: self-test failed, a checker accepted a tampered output: {checker.selftest}",
              file=sys.stderr)
    return record, {"correct": failed == 0 and selftest_ok, "attempted": len(reps), "failed": failed,
                    "metrics": out}


def print_summary(workload: str, result: dict) -> None:
    for name, v in result["metrics"].items():
        print(f"{workload:<7} {name:<28} {v['value']:>14.6g} {v['unit']}")
    n, failed = result["attempted"], result["failed"]
    print(f"{workload:<7} {'error_rate':<28} {failed / n:>14.6g} fraction ({failed}/{n} runs)")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or every workload of BENCHMARK.json in turn (a summary for people)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "directcorr" / "cli.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2
    if args.workload != "all":
        record, result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(record))
        print_summary(args.workload, result)
        print(json.dumps(result))
        return 0
    results = {w: run_workload(spec, w, args.seed, args.seconds, args.trace)[1] for w in names}
    for w, result in results.items():
        print_summary(w, result)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
