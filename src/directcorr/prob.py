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
  the measure engine and the bounds);
* every table is an immutable value object and every operation is pure,
  so everything here is safe to share across threads.

The two value types have axes ordered (X, Y, Z).  ``Joint3`` is a
probability table; a marginal is a plain sum of its ``probs`` over the
other axes.  ``ObservationTable`` stores observed triples as their table of
integer counts, their sufficient statistic, in one int64 per cell whatever
the number of observations; it is the one place counts are checked and
normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    InvalidDistribution,
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
    def of_size(cls, d: int) -> "Alphabet":
        return cls(tuple(range(d)))


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
    # p + (p == 0) takes the log of 1 on empty cells, which then add 0, and is p elsewhere
    terms = np.where(p == 0, 1.0, p)
    np.log2(terms, out=terms)
    terms *= p
    return -terms.sum(axis=_axes(p))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p || q) in bits per leading-axis row; inf where q misses the support of p."""
    axes = _axes(p)
    pos = p > 0
    empty = q == 0
    # Cells outside the common support take the log of 1 on both sides:
    # they add 0 where p = 0 and only occur in infinite rows otherwise.
    # A difference of logs rather than the log of the ratio is immune to
    # the overflow a normal/subnormal entry pair produces.
    common = pos & ~empty
    terms, log_q = p + 1.0, q + 1.0
    for buf, x in ((terms, p), (log_q, q)):
        np.putmask(buf, common, x)  # x + 0 is x on the common support
        np.log2(buf, out=buf)
    terms -= log_q
    terms *= p
    return np.where((pos & empty).any(axis=axes), math.inf, terms.sum(axis=axes))


def _js_nat_terms(a: np.ndarray, m: np.ndarray, ratio: np.ndarray, support: np.ndarray | None) -> np.ndarray:
    """Per-cell a * ln(a / m) with m = (a + other) / 2 and ratio = (a - m) / m, as an array.

    Near-equal cells go through log1p of the ratio, which stays accurate
    down to ~1e-30 total when the two distributions are nearly identical
    (the sqrt taken by the regularized measures would amplify plain-log
    noise there).  Extreme cells, where the ratio rounds to -1, use the
    direct log difference instead.  Cells outside a boolean ``support``
    are 0.

    Every point value, bootstrap resample, bound candidate and sweep point
    runs this twice, so it works in two stack-sized buffers, rewritten in
    place, with nothing else live but boolean masks; each cell still goes
    through the same operations as it would with a fresh array per step.
    """
    near = a > 0
    if support is not None:
        near &= support
    extreme = (ratio >= 0.5) | (ratio <= -0.5)
    extreme &= near
    off = ~near  # the cells of neither branch
    near ^= extreme
    # Off its own cells each branch takes log(2) - log(2) or log1p(0), so none warns.
    far, out = np.where(extreme, a, 1.0), np.where(extreme, m, 1.0)
    for buf in (far, out):
        buf *= 2.0
        np.log(buf, out=buf)
    far -= out
    far *= a
    out.fill(0.0)
    np.putmask(out, near, ratio)
    np.log1p(out, out=out)
    out *= a
    np.putmask(out, extreme, far)
    np.putmask(out, off, 0.0)
    return out


def _js_rows(p: np.ndarray, q: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """Jensen-Shannon divergence in bits per leading-axis row, clipped to [0, 1].

    With a boolean ``support``, both KL sums run only over its true cells.
    """
    axes = _axes(p)
    m = p + q
    m *= 0.5
    ratio = p - q
    ratio *= 0.5  # p - m; exact in IEEE arithmetic
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= m
    np.putmask(ratio, ~(m > 0), 0.0)
    tp = _js_nat_terms(p, m, ratio, support).sum(axis=axes)
    np.negative(ratio, out=ratio)  # (q - m) / m
    tq = _js_nat_terms(q, m, ratio, support).sum(axis=axes)
    return np.minimum(np.maximum((tp + tq) / (2.0 * LN2), 0.0), 1.0)


def _tv_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation distance per leading-axis row."""
    return 0.5 * np.abs(p - q).sum(axis=_axes(p))
