"""Direct-correlation measures built by removing the X-Y link and measuring the shift.

Three reconstructions of "the same joint with no direct X-Y correlation":

* CMI family: q(x,y,z) = p(x|z) p(y|z) p(z).  Always well defined, even
  for sparse data.
* PMI family: the stratum conditionals are themselves rebuilt through
  the partner variable's unconditional marginal,
  q(x|z) = sum_y p(x|y,z) p(y) and symmetrically, then multiplied as in
  the CMI reconstruction.
* ICMI family: a two-step construction.  First the X-Z correlation is
  severed, p1(x,y,z) = p(y|x,z) p(x) p(z); then the X-Y link as well,
  p2(x,y,z) = p(x) p(y,z).  The one-way value is the divergence of p2
  from p1; the mirrored construction gives the Y-to-X direction.

KL-based values may be +inf on sparse data (reported, never clamped);
each has a root-JS regularized analogue bounded in [0, 1].  The
arithmetic lives in the batched engine (``engine.py``); these are its
one-joint calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import BatchContext, evaluate_one
from .prob import Joint3
from .sparse import DEFAULT_STRATEGY, SparseStrategy


def reconstruct_q_cmi(j: Joint3) -> Joint3:
    """The joint p(x|z) p(y|z) p(z): X-Y correlation removed within every stratum.

    Preserves the (x,z) and (y,z) marginals; strata with p(z) = 0 carry
    zero mass in both the input and the reconstruction, so no fill rule
    is ever needed here.
    """
    return Joint3(j.alphabets, BatchContext(j.probs[None]).q_cmi()[0])


def cmi(j: Joint3) -> float:
    """Conditional mutual information H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z), in bits."""
    return evaluate_one(j, "cmi")


def cmi_js(j: Joint3) -> float:
    """JS divergence between the joint and its CMI reconstruction, in [0, 1]."""
    return evaluate_one(j, "cmi_js")


def rcmi(j: Joint3) -> float:
    """Regularized CMI: root-JS distance to the CMI reconstruction, in [0, 1]."""
    return evaluate_one(j, "rcmi")


def reconstruct_q_pmi(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> Joint3:
    """The PMI reconstruction q(x|z) q(y|z) p(z), renormalized within each stratum."""
    return Joint3(j.alphabets, BatchContext(j.probs[None], s).q_pmi()[0][0])


def pmi(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """Part mutual information: KL distance to the PMI reconstruction; may be +inf."""
    return evaluate_one(j, "pmi", s)


def rpmi(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """Regularized PMI: root-JS distance to the PMI reconstruction, in [0, 1]."""
    return evaluate_one(j, "rpmi", s)


def icmi_oneway(j: Joint3, direction: str = "xy", s: SparseStrategy = DEFAULT_STRATEGY) -> float:
    """One-way independent CMI in bits (KL of the two-step pair); may be +inf."""
    if direction not in ("xy", "yx"):
        raise ValueError(f"direction must be 'xy' or 'yx', got {direction!r}")
    return evaluate_one(j, f"icmi_{direction}", s)


@dataclass(frozen=True)
class RicmiResult:
    xy: float
    yx: float
    two_way: float


def ricmi(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> RicmiResult:
    """Regularized one-way ICMIs and their two-way average, each in [0, 1]."""
    ctx = BatchContext(j.probs[None], s)
    return RicmiResult(*(float(ctx.value(m)[0]) for m in ("ricmi_xy", "ricmi_yx", "ricmi_two")))


@dataclass(frozen=True)
class RemovalReport:
    """All removal-family values for one joint under one sparse strategy."""

    cmi: float
    cmi_js: float
    rcmi: float
    pmi: float
    rpmi: float
    icmi_xy: float
    icmi_yx: float
    ricmi_xy: float
    ricmi_yx: float
    ricmi_two: float
    strategy: SparseStrategy
    pmi_stratum_masses: tuple[float, ...]


_REPORTED = ("cmi", "cmi_js", "rcmi", "pmi", "rpmi", "icmi_xy", "icmi_yx", "ricmi_xy", "ricmi_yx", "ricmi_two")


def removal_report(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> RemovalReport:
    ctx = BatchContext(j.probs[None], s)
    return RemovalReport(
        **{m: float(ctx.value(m)[0]) for m in _REPORTED},
        strategy=ctx.strategy,
        pmi_stratum_masses=tuple(float(m) for m in ctx.q_pmi()[1][0]),
    )
