"""The measure ids, their ranges and families, and one public function per measure.

Every id is evaluated by the batched engine (``engine.py``); ``evaluate``
is its stack-of-1 call on one joint, so the bootstrap engine, the bound
cross-checks and the CLI all dispatch by id and get the same numbers.
``lo``/``hi`` document the measure's range; ``hi = inf`` marks the
KL-valued measures that may legitimately report the infinity sentinel.

The named functions below are that same call for one id each, in the
paper's three groups:

* Total correlation (pcc, pc, mi, nmi_*, rmi).  All but the partial
  correlation depend only on the (x,y) marginal.
* Removal family: the joint against a reconstruction of "the same joint
  with no direct X-Y correlation".  CMI: q(x,y,z) = p(x|z) p(y|z) p(z),
  always well defined.  PMI: the stratum conditionals are rebuilt
  through the partner variable's unconditional marginal,
  q(x|z) = sum_y p(x|y,z) p(y) and symmetrically, then multiplied as in
  the CMI reconstruction.  ICMI, in two steps: first the X-Z correlation
  is severed, p1(x,y,z) = p(y|x,z) p(x) p(z), then the X-Y link as well,
  p2(x,y,z) = p(x) p(y,z); the one-way value is the divergence of p2
  from p1, and the mirrored construction gives the Y-to-X direction.
  KL-based values may be +inf on sparse data (reported, never clamped);
  each has a root-JS regularized analogue bounded in [0, 1].
* Do family, through the back-door formula
  p(y | do(x)) = sum_z p(y|x,z) p(z), with undefined p(y|x,z) cells
  filled by the chosen sparse strategy.  Z is taken to be a sufficient
  back-door adjustment set for X -> Y; that is not checkable from the
  joint and is not checked here (the CLI prints a caveat instead).  The
  pairwise measures (``ace``, ``nace``, ``ace_kl``, ``race``) also take
  hand-made do-rows, as a ``DoConditional``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .engine import SINGLE, BatchContext, Codes, pair_max
from .errors import SingleCategory, UnknownMeasure
from .prob import Alphabet, Joint3
from .sparse import DEFAULT_STRATEGY, SparseStrategy


class MeasureSpec(NamedTuple):
    id: str
    lo: float
    hi: float
    do_family: bool


_SPECS: list[MeasureSpec] = [
    MeasureSpec("pcc", -1, 1, False),
    MeasureSpec("pc", -1, 1, False),
    MeasureSpec("mi", 0, math.inf, False),
    MeasureSpec("nmi_y", 0, 1, False),
    MeasureSpec("nmi_x", 0, 1, False),
    MeasureSpec("nmi_max", 0, 1, False),
    MeasureSpec("rmi", 0, 1, False),
    MeasureSpec("cmi", 0, math.inf, False),
    MeasureSpec("cmi_js", 0, 1, False),
    MeasureSpec("rcmi", 0, 1, False),
    MeasureSpec("pmi", 0, math.inf, False),
    MeasureSpec("rpmi", 0, 1, False),
    MeasureSpec("icmi_xy", 0, math.inf, False),
    MeasureSpec("icmi_yx", 0, math.inf, False),
    MeasureSpec("ricmi_xy", 0, 1, False),
    MeasureSpec("ricmi_yx", 0, 1, False),
    MeasureSpec("ricmi_two", 0, 1, False),
    MeasureSpec("ace", 0, 1, True),
    MeasureSpec("nace", 0, 1, True),
    MeasureSpec("ace_kl", 0, math.inf, True),
    MeasureSpec("race", 0, 1, True),
    MeasureSpec("mi_do", 0, 1, True),
    MeasureSpec("rmi_do", 0, 1, True),
]

MEASURES: dict[str, MeasureSpec] = {m.id: m for m in _SPECS}

TABLE_MEASURES = (
    "pcc", "pc", "rmi",
    "rcmi", "rpmi", "ricmi_xy", "ricmi_yx", "ricmi_two", "nace", "race", "rmi_do",
)


def get_measure(measure_id: str) -> MeasureSpec:
    spec = MEASURES.get(measure_id)
    if spec is None:
        raise UnknownMeasure(
            f"unknown measure {measure_id!r}; valid ids: {', '.join(sorted(MEASURES))}"
        )
    return spec


class NumericEncoding(NamedTuple):
    """Real values for the labels of X, Y and Z, in label order; used by pcc and pc only.

    A role left as None keeps the ordinal codes 0, 1, 2, ... of its labels.
    """

    x: tuple[float, ...] | None = None
    y: tuple[float, ...] | None = None
    z: tuple[float, ...] | None = None

    def codes(self, alphabets: Sequence[Alphabet]) -> Codes:
        out = []
        for vals, alphabet in zip((self.x, self.y, self.z), alphabets):
            if vals is None:
                out.append(np.arange(alphabet.size, dtype=float))
                continue
            arr = np.asarray(vals, dtype=float)
            if arr.shape != (alphabet.size,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"encoding for {alphabet.labels!r} must be {alphabet.size} finite values")
            out.append(arr)
        return tuple(out)  # type: ignore[return-value]


DEFAULT_ENCODING = NumericEncoding()


def evaluate(
    j: Joint3,
    measure_id: str,
    s: SparseStrategy = DEFAULT_STRATEGY,
    enc: NumericEncoding = DEFAULT_ENCODING,
) -> float:
    """One measure on one joint (the engine's stack-of-1 call); raises where undefined, or on a malformed ``enc``."""
    ctx = BatchContext(j.probs[None], s, enc.codes(j.alphabets))
    v = float(ctx.value(measure_id)[0])
    if math.isnan(v):
        raise ctx.undefined_error(measure_id)
    return v


# ---------------------------------------------------------------------------
# Total correlation.
# ---------------------------------------------------------------------------


def pcc(j: Joint3, enc: NumericEncoding = DEFAULT_ENCODING) -> float:
    """Pearson correlation coefficient of the encoded X and Y, in [-1, 1]; undefined if one is constant."""
    return evaluate(j, "pcc", enc=enc)


def partial_correlation(j: Joint3, enc: NumericEncoding = DEFAULT_ENCODING) -> float:
    """Direct linear correlation of X and Y with Z partialled out, in [-1, 1]."""
    return evaluate(j, "pc", enc=enc)


def mutual_information(j: Joint3) -> float:
    """Mutual information H(X) + H(Y) - H(X,Y), in bits (never negative)."""
    return evaluate(j, "mi")


class NormalizedMi(NamedTuple):
    """Directional normalized mutual information; ``max`` is the larger direction."""

    to_y: float
    to_x: float
    max: float


def normalized_mi(j: Joint3) -> NormalizedMi:
    """Mutual information as a fraction of each variable's own entropy.

    A direction whose denominator entropy is zero carries no uncertainty
    to explain, so that component is defined as 0.
    """
    ctx = BatchContext(j.probs[None])
    return NormalizedMi(*(float(ctx.value(m)[0]) for m in ("nmi_y", "nmi_x", "nmi_max")))


def regularized_mi(j: Joint3) -> float:
    """Root-JS distance between p(x,y) and the product of its marginals, in [0, 1).

    Zero exactly when X and Y are independent; the supports of the joint
    and the product always overlap, so the value 1 is never attained.
    """
    return evaluate(j, "rmi")


# ---------------------------------------------------------------------------
# Removal family.
# ---------------------------------------------------------------------------


def cmi(j: Joint3) -> float:
    """Conditional mutual information H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z), in bits."""
    return evaluate(j, "cmi")


def cmi_js(j: Joint3) -> float:
    """JS divergence between the joint and its CMI reconstruction, in [0, 1]."""
    return evaluate(j, "cmi_js")


def rcmi(j: Joint3) -> float:
    """Regularized CMI: root-JS distance to the CMI reconstruction, in [0, 1]."""
    return evaluate(j, "rcmi")


def pmi(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """Part mutual information: KL distance to the PMI reconstruction; may be +inf."""
    return evaluate(j, "pmi", s)


def rpmi(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """Regularized PMI: root-JS distance to the PMI reconstruction, in [0, 1]."""
    return evaluate(j, "rpmi", s)


def icmi_oneway(j: Joint3, direction: str = "xy", s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """One-way independent CMI in bits (KL of the two-step pair); may be +inf."""
    if direction not in ("xy", "yx"):
        raise ValueError(f"direction must be 'xy' or 'yx', got {direction!r}")
    return evaluate(j, f"icmi_{direction}", s)


class RicmiResult(NamedTuple):
    xy: float
    yx: float
    two_way: float


def ricmi(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> RicmiResult:
    """Regularized one-way ICMIs and their two-way average, each in [0, 1]."""
    ctx = BatchContext(j.probs[None], s)
    return RicmiResult(*(float(ctx.value(m)[0]) for m in ("ricmi_xy", "ricmi_yx", "ricmi_two")))


# ---------------------------------------------------------------------------
# Do family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DoConditional:
    """Rows p(y | do(x)); one distribution over Y per value of X."""

    rows: np.ndarray  # shape (d_X, d_Y)
    strategy: SparseStrategy
    fill_count: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.rows, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def d_x(self) -> int:
        return self.rows.shape[0]


def do_conditional(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> DoConditional:
    ctx = BatchContext(j.probs[None], s)
    fill_count = int(np.count_nonzero(ctx.pxz[0] == 0))
    return DoConditional(rows=ctx.do_rows[0], strategy=ctx.strategy, fill_count=fill_count)


def _best_pair(dc: DoConditional, measure: str) -> tuple[float, tuple[int, int]]:
    if dc.d_x < 2:
        raise SingleCategory(SINGLE)
    v, pair = pair_max(dc.rows[None], measure)
    return float(v[0]), (int(pair[0, 0]), int(pair[0, 1]))


def ace(dc: DoConditional) -> float:
    """Average causal effect: largest single-outcome probability shift, in [0, 1]."""
    return _best_pair(dc, "ace")[0]


def nace(dc: DoConditional) -> float:
    """Normalized ACE: largest total-variation distance between do-rows, in [0, 1]."""
    return _best_pair(dc, "nace")[0]


def ace_kl(dc: DoConditional) -> float:
    """Largest KL divergence between do-rows, in bits; unbounded and possibly +inf."""
    return _best_pair(dc, "ace_kl")[0]


def race(dc: DoConditional) -> float:
    """Regularized ACE: largest root-JS distance between do-rows, in [0, 1]."""
    return _best_pair(dc, "race")[0]


def argmax_pair(dc: DoConditional, measure: str = "nace") -> tuple[int, int]:
    """Which (x, x') pair attains the maximum for one of the pairwise measures."""
    return _best_pair(dc, measure)[1]


def do_joint(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> np.ndarray:
    """The intervened joint p_do(x,y) = p(y|do(x)) p(x), a read-only (d_X, d_Y) array.

    Its X marginal is the observational p(x) up to rounding; its Y
    marginal in general differs from the observational p(y).
    """
    pdo = BatchContext(j.probs[None], s).pdo[0]
    pdo.setflags(write=False)
    return pdo


def mi_do(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """Normalized mutual information of the intervened joint, in [0, 1].

    Zero when H(p_do(y)) is zero: a deterministic intervened outcome
    leaves nothing for X to explain.
    """
    return evaluate(j, "mi_do", s)


def rmi_do(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """Root-JS distance between p_do(x,y) and the product of its marginals, in [0, 1)."""
    return evaluate(j, "rmi_do", s)
