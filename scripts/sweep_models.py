#!/usr/bin/env python3
"""Emit the toy-model sweep tables used for the monotonicity figures.

Writes one long-format CSV per sweep into the output directory:
the two-parameter model swept in lam1 at lam0 in {0, 0.5, 0.99}, and the
five-parameter model swept in q3 at the documented fixed set
(q0=0, q1=0.5, q2=0.3, q4=0.2).

Usage:
    python scripts/sweep_models.py [--out sweeps] [--points 21]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from directcorr.cli import main as cli_main

DECISION_FIXED = ("q0=0", "q1=0.5", "q2=0.3", "q4=0.2")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweeps")
    parser.add_argument("--points", type=int, default=21)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rc = 0
    for lam0 in ("0", "0.5", "0.99"):
        rc |= cli_main(
            [
                "sweep", "--model", "simple", "--set", f"lam0={lam0}", "--sweep", "lam1",
                "--points", str(args.points), "--output", str(out / f"simple_lam0_{lam0}.csv"),
            ]
        )
    argv = ["sweep", "--model", "decision", "--sweep", "q3", "--points", str(args.points)]
    for item in DECISION_FIXED:
        argv += ["--set", item]
    rc |= cli_main(argv + ["--output", str(out / "decision_q3.csv")])
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
