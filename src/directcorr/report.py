"""Measure reports and their rendering for the CLI.

Values print with six decimals; the infinity sentinel prints as "inf".
An undefined value prints as "---" in the human table and as an empty
field in CSV and JSON.  CSV and JSON emissions round-trip at the printed
precision.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .registry import get_measure


def fmt(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value:.6f}"


@dataclass(frozen=True)
class MeasureEntry:
    measure: str
    value: float | None  # None where the measure is undefined; the note says why
    ci: tuple[float, float] | None = None
    bound: float | None = None
    strategy: str = "b"
    note: str = ""

    def __post_init__(self) -> None:
        spec = get_measure(self.measure)
        v = self.value
        if v is None:
            return
        if not math.isinf(v) and not (spec.lo - 1e-9 <= v <= spec.hi + 1e-9):
            raise ValueError(f"{self.measure} value {v} outside documented range [{spec.lo}, {spec.hi}]")
        if self.bound is not None and not math.isinf(v) and v > self.bound + 1e-9:
            raise ValueError(f"{self.measure} value {v} exceeds its achievable bound {self.bound}")


class MeasureReport(NamedTuple):
    dataset: str
    entries: tuple[MeasureEntry, ...]
    notes: tuple[str, ...] = ()


def human_table(report: MeasureReport) -> str:
    lines = [f"dataset: {report.dataset}"]
    for note in report.notes:
        lines.append(f"  note: {note}")
    header = f"  {'measure':<10} {'value':>10} {'ci_low':>10} {'ci_high':>10} {'bound':>10}  note"
    lines.append(header)
    for e in report.entries:
        lo, hi = (e.ci if e.ci is not None else (None, None))
        value = "---" if e.value is None else fmt(e.value)
        lines.append(
            f"  {e.measure:<10} {value:>10} {fmt(lo):>10} {fmt(hi):>10} {fmt(e.bound):>10}  {e.note}"
        )
    return "\n".join(lines)


CSV_FIELDS = ("dataset", "measure", "value", "ci_low", "ci_high", "bound", "strategy", "note")


def csv_rows(report: MeasureReport) -> list[dict[str, str]]:
    rows = []
    for e in report.entries:
        lo, hi = (e.ci if e.ci is not None else (None, None))
        rows.append(
            {
                "dataset": report.dataset,
                "measure": e.measure,
                "value": fmt(e.value),
                "ci_low": fmt(lo),
                "ci_high": fmt(hi),
                "bound": fmt(e.bound),
                "strategy": e.strategy,
                "note": e.note,
            }
        )
    return rows


def to_csv(reports: list[MeasureReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        for row in csv_rows(r):
            writer.writerow(row)
    return buf.getvalue()


def to_json(reports: list[MeasureReport]) -> str:
    out = []
    for r in reports:
        rec = {"dataset": r.dataset, "notes": list(r.notes), "entries": []}
        for e in r.entries:
            d = asdict(e)
            d["value"] = fmt(e.value)
            d["ci"] = [fmt(e.ci[0]), fmt(e.ci[1])] if e.ci else None
            d["bound"] = fmt(e.bound) if e.bound is not None else None
            rec["entries"].append(d)
        out.append(rec)
    return json.dumps(out, indent=2) + "\n"
