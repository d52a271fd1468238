"""Exact probability tables over finite alphabets, plus the divergences everything else is built on.

Conventions used throughout the package:

* all logarithms are base 2, with ``0 * log 0 = 0`` by continuity;
* probabilities are finite, nonnegative 64-bit floats, normalized to 1
  within ``NORM_TOL`` at construction time;
* the Kullback-Leibler divergence returns ``math.inf`` (rather than
  raising) when the second argument has a zero inside the support of the
  first, so downstream measures can report singularity explicitly;
* entropy and the divergences are computed row-wise over a leading stack
  axis (``_entropy_rows``, ``_kl_rows``, ``_js_rows``, ``_tv_rows``, used by
  the measure engine); the scalar functions are the one-row case of the
  same code;
* every table is an immutable value object and every operation is pure,
  so everything here is safe to share across threads.

The two value types have axes ordered (X, Y, Z).  ``Joint3`` is a
probability table; a marginal is a plain sum of its ``probs`` over the
other axes.  ``ObservationTable`` stores observed triples as their table of
integer counts, their sufficient statistic, in one int64 per cell whatever
the number of observations; it is the one place counts are checked and
normalized.  The divergences and entropy also accept plain arrays, checked
as ``Joint3`` checks its table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, Union

import numpy as np

from .errors import (
    InvalidDistribution,
    ShapeMismatch,
    UnknownCategory,
    ZeroTotal,
)

LN2 = math.log(2.0)
NORM_TOL = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Ordered category labels of one variable."""

    labels: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 1:
            raise InvalidDistribution("alphabet needs at least one label")
        if len(set(labels)) != len(labels):
            raise InvalidDistribution(f"alphabet labels not unique: {labels!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: Hashable) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownCategory(f"label {label!r} not in alphabet {self.labels!r}") from None

    @classmethod
    def of_size(cls, d: int, prefix: str = "") -> "Alphabet":
        return cls(tuple(f"{prefix}{i}" if prefix else i for i in range(d)))


def _checked_probs(arr: np.ndarray) -> np.ndarray:
    """``arr`` if its entries are finite, nonnegative and sum to 1 within ``NORM_TOL``."""
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution("non-finite probability entry")
    if np.any(arr < 0):
        raise InvalidDistribution("negative probability entry")
    total = float(arr.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
    return arr


def _check_alphabets(alphabets: Sequence[Alphabet], shape: tuple[int, ...]) -> tuple[Alphabet, ...]:
    alphabets = tuple(alphabets)
    if tuple(a.size for a in alphabets) != shape:
        raise InvalidDistribution(
            f"alphabet sizes {tuple(a.size for a in alphabets)} do not match table shape {shape}"
        )
    return alphabets


@dataclass(frozen=True, eq=False)
class Joint3:
    """Joint distribution of three variables (X, Y, Z); the universal input."""

    alphabets: tuple[Alphabet, Alphabet, Alphabet]
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 3:
            raise InvalidDistribution(f"expected a 3-dimensional table, got shape {arr.shape}")
        _checked_probs(arr).setflags(write=False)
        object.__setattr__(self, "alphabets", _check_alphabets(self.alphabets, arr.shape))
        object.__setattr__(self, "probs", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.probs.shape  # type: ignore[return-value]


Distribution = Union[Joint3, np.ndarray]


def _probs_of(d: Distribution) -> np.ndarray:
    return np.asarray(getattr(d, "probs", d), dtype=float)


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Observed categorical triples (x, y, z) as a (d_X, d_Y, d_Z) table of integer counts."""

    alphabets: tuple[Alphabet, Alphabet, Alphabet]
    count_table: np.ndarray

    def __post_init__(self) -> None:
        alphabets = tuple(self.alphabets)
        shape = tuple(a.size for a in alphabets)
        arr = np.asarray(self.count_table)
        if arr.dtype.kind not in "iuf" or arr.shape != shape:
            raise InvalidDistribution(
                f"expected a numeric count table of shape {shape}, got {arr.dtype} of shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidDistribution("non-finite count")
        if np.any(arr < 0):
            raise InvalidDistribution("negative count")
        with np.errstate(invalid="ignore"):
            ints = arr.astype(np.int64)
        if np.any(ints != arr):
            raise InvalidDistribution("counts must be whole numbers below 2**63")
        total = sum(ints.ravel().tolist())  # Python ints: an overflowing total is caught, not wrapped
        if total == 0:
            raise ZeroTotal("count table is all zeros")
        if total >= 2**63:
            raise InvalidDistribution(f"{total} observations do not fit in int64")
        ints.setflags(write=False)
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "count_table", ints)

    @property
    def n(self) -> int:
        return int(self.count_table.sum())

    def counts(self) -> np.ndarray:
        return self.count_table

    def joint(self) -> Joint3:
        return Joint3(self.alphabets, self.count_table / self.n)


def from_counts(counts: Iterable, alphabets: Sequence[Alphabet]) -> Joint3:
    """Empirical joint distribution from a table of nonnegative whole-number counts."""
    return ObservationTable(tuple(alphabets), counts).joint()  # type: ignore[arg-type]


def _axes(p: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, np.ndim(p)))


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each table along the leading axis."""
    # p + (p == 0) takes the log of 1 on empty cells, which then add 0
    return -(p * np.log2(p + (p == 0))).sum(axis=_axes(p))


def entropy(d: Distribution) -> float:
    """Shannon entropy in bits."""
    return float(_entropy_rows(_checked_probs(_probs_of(d))[None])[0])


def _pair(p: Distribution, q: Distribution) -> tuple[np.ndarray, np.ndarray]:
    pa, qa = _probs_of(p), _probs_of(q)
    if pa.shape != qa.shape:
        raise ShapeMismatch(f"shapes differ: {pa.shape} vs {qa.shape}")
    return _checked_probs(pa), _checked_probs(qa)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p || q) in bits per leading-axis row; inf where q misses the support of p."""
    axes = _axes(p)
    pos = p > 0
    empty = q == 0
    # Cells outside the common support take the log of 1 on both sides:
    # they add 0 where p = 0 and only occur in infinite rows otherwise.
    # A difference of logs rather than the log of the ratio is immune to
    # the overflow a normal/subnormal entry pair produces.
    pad = ~pos | empty
    terms = p * (np.log2(p + pad) - np.log2(q + pad))
    return np.where((pos & empty).any(axis=axes), math.inf, terms.sum(axis=axes))


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence D(p || q) in bits; inf when q misses the support of p."""
    pa, qa = _pair(p, q)
    return float(_kl_rows(pa[None], qa[None])[0])


def _js_nat_terms(a: np.ndarray, other: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Per-cell a * ln(a / m) with m = (a + other) / 2, as an array.

    Near-equal cells go through log1p of (a - m) / m, which stays
    accurate down to ~1e-30 total when the two distributions are nearly
    identical (the sqrt taken by the regularized measures would amplify
    plain-log noise there).  Extreme cells, where that ratio rounds to
    -1, use the direct log difference instead.
    """
    mask = a > 0
    extreme = mask & (np.abs(ratio) >= 0.5)
    near = mask & ~extreme
    out = np.zeros_like(a)
    safe_a = np.where(extreme, a, 1.0)
    safe_m = np.where(extreme, 0.5 * (a + other), 1.0)
    out[extreme] = (a * (np.log(2.0 * safe_a) - np.log(2.0 * safe_m)))[extreme]
    out[near] = (a * np.log1p(np.where(near, ratio, 0.0)))[near]
    return out


def _js_rows(p: np.ndarray, q: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """Jensen-Shannon divergence in bits per leading-axis row, clipped to [0, 1].

    With a boolean ``support``, both KL sums run only over its true cells.
    """
    axes = _axes(p)
    m = 0.5 * (p + q)
    h = 0.5 * (p - q)  # p - m; exact in IEEE arithmetic
    ratio = np.divide(h, m, out=np.zeros_like(m), where=m > 0)
    tp = _js_nat_terms(p, q, ratio)
    tq = _js_nat_terms(q, p, -ratio)
    if support is not None:
        tp = np.where(support, tp, 0.0)
        tq = np.where(support, tq, 0.0)
    return np.minimum(np.maximum((tp.sum(axis=axes) + tq.sum(axis=axes)) / (2.0 * LN2), 0.0), 1.0)


def js_divergence(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence in bits, always in [0, 1]."""
    pa, qa = _pair(p, q)
    return float(_js_rows(pa[None], qa[None])[0])


def sqrt_js(p: Distribution, q: Distribution) -> float:
    """Square root of the Jensen-Shannon divergence: a bounded metric in [0, 1]."""
    return math.sqrt(js_divergence(p, q))


def _tv_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation distance per leading-axis row."""
    return 0.5 * np.abs(p - q).sum(axis=_axes(p))


def total_variation(p: Distribution, q: Distribution) -> float:
    """Total variation distance, in [0, 1]."""
    pa, qa = _pair(p, q)
    return float(_tv_rows(pa[None], qa[None])[0])
