"""Single registry of measure ids, their ranges and their families.

Every id is evaluated by the batched engine (``engine.py``); ``evaluate``
is its stack-of-1 call on one joint, so the bootstrap engine, the bound
cross-checks and the CLI all dispatch by id and get the same numbers.
``lo``/``hi`` document the measure's range; ``hi = inf`` marks the
KL-valued measures that may legitimately report the infinity sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# The single-object function behind each id stays importable from here.
from .docalc import ace, ace_kl, do_conditional, do_joint, mi_do, nace, race, rmi_do  # noqa: F401
from .engine import Codes, evaluate_one
from .errors import UnknownMeasure
from .prob import Alphabet, Joint3
from .removal import cmi, cmi_js, icmi_oneway, pmi, rcmi, ricmi, rpmi  # noqa: F401
from .sparse import DEFAULT_STRATEGY, SparseStrategy
from .totalcorr import (  # noqa: F401
    DEFAULT_ENCODING,
    NumericEncoding,
    mutual_information,
    normalized_mi,
    partial_correlation,
    pcc,
    regularized_mi,
)


@dataclass(frozen=True)
class MeasureSpec:
    id: str
    label: str
    lo: float
    hi: float
    needs_encoding: bool
    boundable: bool
    do_family: bool


_SPECS: list[MeasureSpec] = [
    MeasureSpec("pcc", "Pearson correlation", -1, 1, True, False, False),
    MeasureSpec("pc", "partial correlation", -1, 1, True, False, False),
    MeasureSpec("mi", "mutual information (bits)", 0, math.inf, False, False, False),
    MeasureSpec("nmi_y", "normalized MI toward Y", 0, 1, False, False, False),
    MeasureSpec("nmi_x", "normalized MI toward X", 0, 1, False, False, False),
    MeasureSpec("nmi_max", "normalized MI (larger direction)", 0, 1, False, False, False),
    MeasureSpec("rmi", "regularized MI", 0, 1, False, True, False),
    MeasureSpec("cmi", "conditional MI (bits)", 0, math.inf, False, False, False),
    MeasureSpec("cmi_js", "JS-normalized CMI", 0, 1, False, False, False),
    MeasureSpec("rcmi", "regularized CMI", 0, 1, False, True, False),
    MeasureSpec("pmi", "part MI (bits)", 0, math.inf, False, False, False),
    MeasureSpec("rpmi", "regularized part MI", 0, 1, False, True, False),
    MeasureSpec("icmi_xy", "one-way independent CMI X->Y (bits)", 0, math.inf, False, False, False),
    MeasureSpec("icmi_yx", "one-way independent CMI Y->X (bits)", 0, math.inf, False, False, False),
    MeasureSpec("ricmi_xy", "regularized ICMI X->Y", 0, 1, False, True, False),
    MeasureSpec("ricmi_yx", "regularized ICMI Y->X", 0, 1, False, True, False),
    MeasureSpec("ricmi_two", "regularized ICMI two-way", 0, 1, False, True, False),
    MeasureSpec("ace", "average causal effect", 0, 1, False, False, True),
    MeasureSpec("nace", "normalized ACE", 0, 1, False, True, True),
    MeasureSpec("ace_kl", "KL ACE (bits)", 0, math.inf, False, False, True),
    MeasureSpec("race", "regularized ACE", 0, 1, False, True, True),
    MeasureSpec("mi_do", "normalized MI of the intervened joint", 0, 1, False, False, True),
    MeasureSpec("rmi_do", "regularized MI of the intervened joint", 0, 1, False, True, True),
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


def label_codes(
    alphabets: Sequence[Alphabet], measure_ids: Sequence[str], enc: NumericEncoding
) -> Codes | None:
    """Numeric codes of the X, Y and Z labels when one of the measures is linear, else None."""
    if any(get_measure(m).needs_encoding for m in measure_ids):
        return tuple(enc.codes(a) for a in alphabets)  # type: ignore[return-value]
    return None


def evaluate(
    j: Joint3,
    measure_id: str,
    s: SparseStrategy = DEFAULT_STRATEGY,
    enc: NumericEncoding = DEFAULT_ENCODING,
) -> float:
    return evaluate_one(j, measure_id, s, label_codes(j.alphabets, (measure_id,), enc))
