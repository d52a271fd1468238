"""Total (not-necessarily-direct) correlation measures between X and Y.

The arithmetic lives in the batched engine (``engine.py``); these are its
one-table calls on a Joint2 (or, for the partial correlation, a Joint3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .engine import DEGENERATE, evaluate_one, mi_rows, pcc_rows, rmi_rows
from .errors import DegenerateVariable
from .prob import Alphabet, Joint2, Joint3


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


def pcc(j: Joint2, enc: NumericEncoding = DEFAULT_ENCODING) -> float:
    """Pearson correlation coefficient of the two encoded variables, in [-1, 1]."""
    v = float(pcc_rows(j.probs[None], enc.codes(j.alphabets[0]), enc.codes(j.alphabets[1]))[0])
    if math.isnan(v):
        raise DegenerateVariable(DEGENERATE)
    return v


def partial_correlation(jxyz: Joint3, enc: NumericEncoding = DEFAULT_ENCODING) -> float:
    """Direct linear correlation of X and Y with Z partialled out, in [-1, 1]."""
    return evaluate_one(jxyz, "pc", codes=tuple(enc.codes(a) for a in jxyz.alphabets))


def _mi_parts(j: Joint2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = j.probs[None]
    return mi_rows(p, p.sum(axis=2), p.sum(axis=1))


def mutual_information(j: Joint2) -> float:
    """Mutual information H(X) + H(Y) - H(X,Y), in bits (never negative)."""
    return float(_mi_parts(j)[0][0])


@dataclass(frozen=True)
class NormalizedMi:
    """Directional normalized mutual information; ``max`` is the larger direction."""

    to_y: float
    to_x: float
    max: float


def normalized_mi(j: Joint2) -> NormalizedMi:
    """Mutual information as a fraction of each variable's own entropy.

    A direction whose denominator entropy is zero carries no uncertainty
    to explain, so that component is defined as 0.
    """
    _, to_y, to_x = (float(v[0]) for v in _mi_parts(j))
    return NormalizedMi(to_y=to_y, to_x=to_x, max=max(to_y, to_x))


def regularized_mi(j: Joint2) -> float:
    """Root-JS distance between p(x,y) and the product of its marginals, in [0, 1).

    Zero exactly when X and Y are independent; the supports of the joint
    and the product always overlap, so the value 1 is never attained.
    """
    p = j.probs[None]
    return float(rmi_rows(p, p.sum(axis=2), p.sum(axis=1))[0])
