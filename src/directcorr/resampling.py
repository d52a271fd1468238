"""Nonparametric bootstrap confidence intervals over a table of observed counts.

Each resample is a multinomial draw of n observations over the cells of
a ``prob.ObservationTable``, which is exactly what drawing n observations
with replacement would give.  Resample b uses the RNG stream seeded by
the pair (seed, b), so results do not depend on evaluation order and
resamples may safely be drawn in parallel.  All resamples are then
evaluated as one stack by the batched measure engine, which treats every
resample exactly as ``registry.evaluate`` treats a single joint; a
resample on which a measure is undefined comes back as NaN and is
excluded for that measure.

The interval is the empirical 2.5th / 97.5th percentile of the resampled
values, interpolated linearly between order statistics at plotting
positions p * (B + 1) and clamped to the extremes; with B = 2 this
degenerates to [min, max].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import measure_values
from .errors import MeasureFailure
from .prob import ObservationTable
from .registry import DEFAULT_ENCODING, NumericEncoding, evaluate, label_codes
from .sparse import DEFAULT_STRATEGY, SparseStrategy

RNG_ID = "numpy-pcg64/seedseq(seed,b)"
MAX_EXCLUDED_FRACTION = 0.05
STACK_CELLS = 2**18  # table cells evaluated per engine call; bounds memory for large B


@dataclass(frozen=True)
class CiReport:
    """Point estimate with a percentile bootstrap interval (NaN where over 5% of resamples were excluded)."""

    measure: str
    point: float
    lower: float
    upper: float
    b_resamples: int
    seed: int
    rng: str
    n_excluded: int

    @property
    def too_many_excluded(self) -> bool:
        return self.n_excluded > MAX_EXCLUDED_FRACTION * self.b_resamples


def _percentile_pair(values: np.ndarray, b: int) -> tuple[float, float]:
    srt = np.sort(values)
    out = []
    for pct in (2.5, 97.5):
        h = pct / 100.0 * (b + 1)
        if h <= 1.0:
            out.append(float(srt[0]))
        elif h >= len(srt):
            out.append(float(srt[-1]))
        else:
            k = int(math.floor(h))
            lo, hi = srt[k - 1], srt[k]
            # between equal infinite neighbours, interpolating would compute inf - inf = NaN
            out.append(float(lo if lo == hi and math.isinf(lo) else lo + (h - k) * (hi - lo)))
    return out[0], out[1]


def _resample_counts(counts: np.ndarray, n: int, seed: int, b: int) -> np.ndarray:
    rng = np.random.default_rng((seed, b))
    pvals = counts.reshape(-1).astype(float)
    pvals /= pvals.sum()
    return rng.multinomial(n, pvals).reshape(counts.shape)


def bootstrap_cis(
    obs: ObservationTable,
    measures: Sequence[str],
    b_resamples: int,
    seed: int,
    s: SparseStrategy = DEFAULT_STRATEGY,
    enc: NumericEncoding = DEFAULT_ENCODING,
) -> dict[str, CiReport]:
    """Bootstrap several measures over one shared set of resamples.

    A resample on which a measure is undefined (degenerate variable,
    singular denominator) is excluded for that measure and counted.  With
    more than 5% excluded, the measure's interval is undefined too: its
    lower and upper are NaN rather than a CI from a truncated distribution.
    """
    if b_resamples < 2:
        raise ValueError("need at least 2 bootstrap resamples")
    s = SparseStrategy.parse(s)
    counts = obs.counts()
    n = obs.n
    full = obs.joint()
    points = {m: evaluate(full, m, s, enc) for m in measures}
    codes = label_codes(obs.alphabets, measures, enc)
    step = max(1, STACK_CELLS // counts.size)
    chunks: dict[str, list[np.ndarray]] = {m: [] for m in measures}
    for start in range(0, b_resamples, step):
        draws = [_resample_counts(counts, n, seed, b) for b in range(start, min(start + step, b_resamples))]
        for m, v in measure_values(np.stack(draws) / n, measures, s, codes).items():
            chunks[m].append(v)
    out = {}
    for m in measures:
        values = np.concatenate(chunks[m])
        kept = values[~np.isnan(values)]
        excluded = b_resamples - kept.size
        if excluded > MAX_EXCLUDED_FRACTION * b_resamples:
            lo = hi = math.nan
        else:
            lo, hi = _percentile_pair(kept, kept.size)
        out[m] = CiReport(
            measure=m,
            point=points[m],
            lower=lo,
            upper=hi,
            b_resamples=b_resamples,
            seed=seed,
            rng=RNG_ID,
            n_excluded=excluded,
        )
    return out


def bootstrap_ci(
    obs: ObservationTable,
    measure: str,
    b_resamples: int,
    seed: int,
    s: SparseStrategy = DEFAULT_STRATEGY,
    enc: NumericEncoding = DEFAULT_ENCODING,
) -> CiReport:
    """Percentile bootstrap CI of a single measure; deterministic for a fixed seed.

    Raises ``MeasureFailure`` where over 5% of the resamples leave the measure undefined.
    """
    ci = bootstrap_cis(obs, (measure,), b_resamples, seed, s, enc)[measure]
    if ci.too_many_excluded:
        raise MeasureFailure(f"{ci.n_excluded}/{b_resamples} resamples left {measure!r} undefined (> 5% excluded)")
    return ci
