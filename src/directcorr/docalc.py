"""Intervention-based direct-correlation measures via the back-door formula.

All of these treat Z as a sufficient back-door adjustment set for X -> Y;
that assumption is not checkable from the joint distribution and is not
checked here (the CLI prints a caveat instead).  The intervened
conditional is p(y | do(x)) = sum_z p(y|x,z) p(z), with undefined
p(y|x,z) cells filled by the chosen sparse strategy.  The arithmetic lives
in the batched engine (``engine.py``); these are its one-table calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SINGLE, BatchContext, mi_rows, pair_max, rmi_rows
from .errors import SingleCategory
from .prob import Joint3, marginal
from .sparse import DEFAULT_STRATEGY, SparseStrategy


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


@dataclass(frozen=True, eq=False)
class DoJoint:
    """The intervened joint p_do(x,y) = p(y|do(x)) p(x) and its marginals.

    p_do(x) is the observational p(x) exactly (it is stored, not
    recomputed); p_do(y) in general differs from the observational p(y).
    """

    probs: np.ndarray  # (d_X, d_Y)
    p_x: np.ndarray
    p_y: np.ndarray
    strategy: SparseStrategy

    def __post_init__(self) -> None:
        for name in ("probs", "p_x", "p_y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def do_joint(j: Joint3, s: SparseStrategy = DEFAULT_STRATEGY) -> DoJoint:
    s = SparseStrategy.parse(s)
    dc = do_conditional(j, s)
    px = marginal(j, "x").probs
    pdo = dc.rows * px[:, None]
    return DoJoint(probs=pdo, p_x=px, p_y=pdo.sum(axis=0), strategy=s)


def mi_do(dj: DoJoint) -> float:
    """Normalized mutual information of the intervened joint, in [0, 1].

    Zero when H(p_do(y)) is zero: a deterministic intervened outcome
    leaves nothing for X to explain.
    """
    return float(mi_rows(dj.probs[None], dj.p_x[None], dj.p_y[None])[1][0])


def rmi_do(dj: DoJoint) -> float:
    """Root-JS distance between p_do(x,y) and the product of its marginals, in [0, 1)."""
    return float(rmi_rows(dj.probs[None], dj.p_x[None], dj.p_y[None])[0])
