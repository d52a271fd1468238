"""Total (not-necessarily-direct) correlation measures between X and Y.

Each takes the three-variable joint and is one call into the batched
engine (``engine.py``) on it, so its value is the one ``registry.evaluate``
reports for the same id.  All but the partial correlation depend only on
the (x,y) marginal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .engine import BatchContext, Codes, evaluate_one
from .prob import Alphabet, Joint3


@dataclass(frozen=True)
class NumericEncoding:
    """Real values assigned to the labels of one or more alphabets.

    Needed only by the linear measures (Pearson and partial correlation);
    defaults to the ordinal position 0, 1, 2, ... of each label.
    """

    values: Mapping[Alphabet, tuple[float, ...]]

    def codes(self, alphabet: Alphabet) -> np.ndarray:
        vals = self.values.get(alphabet)
        if vals is None:
            return np.arange(alphabet.size, dtype=float)
        arr = np.asarray(vals, dtype=float)
        if arr.shape != (alphabet.size,) or not np.all(np.isfinite(arr)):
            raise ValueError(f"encoding for {alphabet.labels!r} must be {alphabet.size} finite values")
        return arr

    @classmethod
    def ordinal(cls) -> "NumericEncoding":
        return cls(values={})

    @classmethod
    def explicit(
        cls, mapping: Mapping[Alphabet, Sequence[float]] | Mapping[Alphabet, Mapping[Hashable, float]]
    ) -> "NumericEncoding":
        fixed: dict[Alphabet, tuple[float, ...]] = {}
        for alphabet, vals in mapping.items():
            if isinstance(vals, Mapping):
                fixed[alphabet] = tuple(float(vals[lab]) for lab in alphabet.labels)
            else:
                fixed[alphabet] = tuple(float(v) for v in vals)
        return cls(values=fixed)


DEFAULT_ENCODING = NumericEncoding.ordinal()


def _codes(j: Joint3, enc: NumericEncoding) -> Codes:
    return tuple(enc.codes(a) for a in j.alphabets)  # type: ignore[return-value]


def pcc(j: Joint3, enc: NumericEncoding = DEFAULT_ENCODING) -> float:
    """Pearson correlation coefficient of the encoded X and Y, in [-1, 1]; undefined if one is constant."""
    return evaluate_one(j, "pcc", codes=_codes(j, enc))


def partial_correlation(jxyz: Joint3, enc: NumericEncoding = DEFAULT_ENCODING) -> float:
    """Direct linear correlation of X and Y with Z partialled out, in [-1, 1]."""
    return evaluate_one(jxyz, "pc", codes=_codes(jxyz, enc))


def mutual_information(j: Joint3) -> float:
    """Mutual information H(X) + H(Y) - H(X,Y), in bits (never negative)."""
    return evaluate_one(j, "mi")


@dataclass(frozen=True)
class NormalizedMi:
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
    return evaluate_one(j, "rmi")
