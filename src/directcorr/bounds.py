"""Achievable upper bounds of the regularized measures under the observed p(x,z).

The trivial upper bound of every root-JS measure is 1, but the maximum
attainable by joints sharing the observed (x,z) marginal is usually far
below 1 and depends on the marginals and alphabet sizes.  This module
computes that achievable bound by exhaustively evaluating a candidate
family: every deterministic coupling y = f(x,z) (each keeps p(x,z)
bitwise and concentrates each cell's mass on a single y), plus the
observed joint itself, which trivially shares its own marginals and
keeps the bound a true upper bound of the reported value.

Candidates are scored by the batched measure engine (``engine.py``), each
with its own marginals, under its ``on_support`` convention, chosen to
keep the bound scale meaningful:

* measures of two-variable objects (the (x,y) marginal for rmi, the
  do-rows for nace / race / rmi_do) use the standard divergences;
* measures comparing a three-variable candidate against its own
  reconstruction (rcmi, rpmi, ricmi_*) accumulate the JS sums over the
  candidate's support pattern only.  For a full-support candidate this
  is exactly the plain measure; for a deterministic coupling it scores
  the divergence on the outcome pattern the coupling can realize, which
  keeps the bound on the scale of the observed values instead of the
  near-saturated values any deterministic table produces off-support.

f is irrelevant on zero-mass (x,z) cells, so those are canonicalized to
y = 0 and only supported cells are enumerated; the enumeration refuses
(rather than sampling) beyond the configured cap, because the bound is
an exact maximum over the family.  Enumeration indices decode
independently, so the index range can be partitioned across workers and
reduced by max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .engine import BatchContext, measure_values
from .errors import ExplosionGuard, ShapeMismatch, UnknownMeasure
from .prob import Joint3
from .sparse import DEFAULT_STRATEGY, SparseStrategy

BOUND_MEASURES = (
    "rmi",
    "rcmi",
    "rpmi",
    "ricmi_xy",
    "ricmi_yx",
    "ricmi_two",
    "nace",
    "race",
    "rmi_do",
)

DEFAULT_CAP = 2**24
_CHUNK = 8192


def rmi_max_uniform(k: int) -> float:
    """Closed-form maximum of the regularized MI for uniform marginals of size k.

    This is the root-JS distance between the identity coupling y = x on a
    uniform k-letter alphabet and the product of its marginals.  Monotone
    increasing in k, 0 at k = 1, and approaching 1 as k grows.
    """
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    kf = float(k)
    inner = math.log2(2.0 * kf / (kf + 1.0)) + math.log2(2.0 / (kf + 1.0)) / kf + (1.0 - 1.0 / kf)
    return math.sqrt(max(inner, 0.0) / 2.0)


@dataclass(frozen=True, eq=False)
class Coupling:
    """One deterministic map f:(x,z) -> y together with its induced joint."""

    fmap: np.ndarray  # (d_X, d_Z) int; 0 on unsupported cells
    joint: Joint3


class CouplingIterator:
    """Enumerator over the deterministic couplings compatible with a base joint.

    ``len()`` is the number of distinct couplings actually enumerated
    (d_Y to the number of supported (x,z) cells); ``total_raw`` is the
    naive count d_Y ** (d_X * d_Z) before canonicalization.
    """

    def __init__(self, base: Joint3, cap: int = DEFAULT_CAP):
        self.base = base
        self.pxz = base.probs.sum(axis=1)
        self.d_x, self.d_y, self.d_z = base.shape
        self.cells: list[tuple[int, int]] = [
            (x, z) for x in range(self.d_x) for z in range(self.d_z) if self.pxz[x, z] > 0
        ]
        self.total_raw = self.d_y ** (self.d_x * self.d_z)
        count = self.d_y ** len(self.cells)
        if count > cap:
            raise ExplosionGuard(
                f"{count} couplings exceed the cap of {cap}; raise the cap to enumerate anyway"
            )
        self._count = count

    def __len__(self) -> int:
        return self._count

    def digits(self, index: int) -> list[int]:
        out = []
        for _ in self.cells:
            out.append(index % self.d_y)
            index //= self.d_y
        return out

    def at(self, index: int) -> Coupling:
        if not 0 <= index < self._count:
            raise IndexError(index)
        fmap = np.zeros((self.d_x, self.d_z), dtype=int)
        probs = np.zeros((self.d_x, self.d_y, self.d_z))
        for (x, z), y in zip(self.cells, self.digits(index)):
            fmap[x, z] = y
            probs[x, y, z] = self.pxz[x, z]
        fmap.setflags(write=False)
        return Coupling(fmap=fmap, joint=Joint3(self.base.alphabets, probs))

    def __iter__(self) -> Iterator[Coupling]:
        return (self.at(i) for i in range(self._count))

    def digits_chunk(self, start: int, stop: int) -> np.ndarray:
        idx = np.arange(start, stop, dtype=np.int64)
        powers = self.d_y ** np.arange(len(self.cells), dtype=np.int64)
        return (idx[:, None] // powers[None, :]) % self.d_y

    def joints_chunk(self, digits: np.ndarray) -> np.ndarray:
        """Stack of coupling joints, shape (n, d_X, d_Y, d_Z)."""
        n = digits.shape[0]
        q = np.zeros((n, self.d_x, self.d_y, self.d_z))
        rng = np.arange(n)
        for c, (x, z) in enumerate(self.cells):
            q[rng, x, digits[:, c], z] = self.pxz[x, z]
        return q


def enumerate_couplings(j: Joint3, cap: int = DEFAULT_CAP) -> CouplingIterator:
    return CouplingIterator(j, cap=cap)


@dataclass(frozen=True)
class BoundReport:
    """Achievable upper bound of one measure and the coupling attaining it.

    ``argmax_fmap`` is None when the observed joint itself attains the
    maximum of the candidate family.
    """

    measure: str
    max_value: float
    argmax_fmap: tuple[tuple[int, ...], ...] | None
    n_enumerated: int


def candidate_values(
    j: Joint3,
    stack: np.ndarray,
    measures: Sequence[str],
    s: SparseStrategy = DEFAULT_STRATEGY,
) -> dict[str, np.ndarray]:
    """Bound-convention values of several measures on a stack of candidates shaped like ``j``.

    Every candidate is evaluated with its own marginals.  Exposed so tests
    can re-check reported maxima against per-candidate evaluations.
    """
    if stack.shape[1:] != j.shape:
        raise ShapeMismatch(f"candidates of shape {stack.shape[1:]} for a joint of shape {j.shape}")
    return measure_values(stack, measures, s, support="on_support")


def achievable_bounds(
    j: Joint3,
    measures: Sequence[str] = BOUND_MEASURES,
    s: SparseStrategy = DEFAULT_STRATEGY,
    cap: int = DEFAULT_CAP,
) -> dict[str, BoundReport]:
    """Exact achievable bounds of several measures in a single enumeration pass."""
    strategy = SparseStrategy.parse(s)
    for m in measures:
        if m not in BOUND_MEASURES:
            raise UnknownMeasure(f"no achievable bound for {m!r}; choose from {sorted(BOUND_MEASURES)}")
    it = CouplingIterator(j, cap=cap)
    n = len(it)
    # The observed joint is always a candidate: it shares its own marginals,
    # so the reported bound can never fall below the reported value.
    own = BatchContext(j.probs[None], strategy, support="on_support")
    best = {m: float(own.value(m)[0]) for m in measures}
    for m in measures:
        if math.isnan(best[m]):
            raise own.undefined_error(m)
    best_idx: dict[str, int | None] = {m: None for m in measures}
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        vals = candidate_values(j, it.joints_chunk(it.digits_chunk(start, stop)), measures, strategy)
        for m in measures:
            k = int(np.argmax(vals[m]))
            if float(vals[m][k]) > best[m]:
                best[m] = float(vals[m][k])
                best_idx[m] = start + k
    out = {}
    for m in measures:
        idx = best_idx[m]
        fmap = None
        if idx is not None:
            fm = it.at(idx).fmap
            fmap = tuple(tuple(int(v) for v in row) for row in fm)
        out[m] = BoundReport(
            measure=m, max_value=best[m], argmax_fmap=fmap, n_enumerated=n
        )
    return out


def achievable_bound(
    j: Joint3,
    measure: str,
    s: SparseStrategy = DEFAULT_STRATEGY,
    cap: int = DEFAULT_CAP,
) -> BoundReport:
    """Exact achievable upper bound of one regularized measure under the observed p(x,z)."""
    return achievable_bounds(j, (measure,), s=s, cap=cap)[measure]
