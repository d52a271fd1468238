"""Nonparametric bootstrap confidence intervals over observation-level records.

Each resample draws n records with replacement from the observed table,
which for categorical triples is exactly a multinomial draw over the
occupied cells.  Resample b uses the RNG stream seeded by the pair
(seed, b), so results do not depend on evaluation order and resamples
may safely be drawn in parallel.  All resamples are then evaluated as one
stack by the batched measure engine, which treats every resample exactly
as ``registry.evaluate`` treats a single joint; a resample on which a
measure is undefined comes back as NaN and is excluded for that measure.

The interval is the empirical 2.5th / 97.5th percentile of the resampled
values, interpolated linearly between order statistics at plotting
positions p * (B + 1) and clamped to the extremes; with B = 2 this
degenerates to [min, max].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .engine import measure_values
from .errors import InvalidDistribution, MeasureFailure
from .prob import Alphabet, Joint3
from .registry import evaluate, label_codes
from .sparse import DEFAULT_STRATEGY, SparseStrategy
from .totalcorr import DEFAULT_ENCODING, NumericEncoding

RNG_ID = "numpy-pcg64/seedseq(seed,b)"
MAX_EXCLUDED_FRACTION = 0.05
STACK_CELLS = 2**18  # table cells evaluated per engine call; bounds memory for large B


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Raw categorical records (x, y, z), index-coded against fixed alphabets."""

    alphabets: tuple[Alphabet, Alphabet, Alphabet]
    codes: np.ndarray  # (n, 3) int

    def __post_init__(self) -> None:
        arr = np.asarray(self.codes, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise InvalidDistribution(f"codes must be a nonempty (n, 3) array, got {arr.shape}")
        for axis, alphabet in enumerate(self.alphabets):
            col = arr[:, axis]
            if col.min() < 0 or col.max() >= alphabet.size:
                raise InvalidDistribution(f"axis {axis} codes outside alphabet of size {alphabet.size}")
        arr.setflags(write=False)
        object.__setattr__(self, "codes", arr)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def records(self) -> list[tuple[Hashable, Hashable, Hashable]]:
        labs = [a.labels for a in self.alphabets]
        return [(labs[0][i], labs[1][k], labs[2][m]) for i, k, m in self.codes]

    @classmethod
    def from_records(
        cls, records: Sequence[tuple[Hashable, Hashable, Hashable]], alphabets: Sequence[Alphabet]
    ) -> "ObservationTable":
        alphabets = tuple(alphabets)
        idx = [{lab: i for i, lab in enumerate(a.labels)} for a in alphabets]
        codes = np.array([[idx[0][r[0]], idx[1][r[1]], idx[2][r[2]]] for r in records], dtype=np.int64)
        return cls(alphabets=alphabets, codes=codes)  # type: ignore[arg-type]

    @classmethod
    def from_counts(cls, counts, alphabets: Sequence[Alphabet]) -> "ObservationTable":
        counts = np.asarray(counts, dtype=np.int64)
        triples = np.argwhere(counts > 0)
        codes = np.repeat(triples, counts[counts > 0], axis=0)
        return cls(alphabets=tuple(alphabets), codes=codes)  # type: ignore[arg-type]

    def counts(self) -> np.ndarray:
        shape = tuple(a.size for a in self.alphabets)
        flat = np.ravel_multi_index((self.codes[:, 0], self.codes[:, 1], self.codes[:, 2]), shape)
        return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)

    def joint(self) -> Joint3:
        return Joint3(self.alphabets, self.counts() / self.n)


@dataclass(frozen=True)
class CiReport:
    """Point estimate with a percentile bootstrap interval."""

    measure: str
    point: float
    lower: float
    upper: float
    b_resamples: int
    seed: int
    rng: str
    n_excluded: int


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
            frac = h - k
            out.append(float(srt[k - 1] + frac * (srt[k] - srt[k - 1])))
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
    singular denominator) is excluded for that measure and counted; more
    than 5% exclusions fails loudly rather than quietly reporting a CI
    from a truncated distribution.
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
            raise MeasureFailure(
                f"{excluded}/{b_resamples} resamples left {m!r} undefined (> 5% excluded)"
            )
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
    """Percentile bootstrap CI of a single measure; deterministic for a fixed seed."""
    return bootstrap_cis(obs, (measure,), b_resamples, seed, s, enc)[measure]
