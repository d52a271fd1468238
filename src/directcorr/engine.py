"""One batched evaluator for every measure in the registry.

The input is a stack of joint tables of shape (n, d_X, d_Y, d_Z), and
every candidate along the leading axis is evaluated with its own
marginals.  ``registry.evaluate`` is the stack-of-1 call, the bootstrap
evaluates all of its resamples as one stack, and the achievable bounds
evaluate each chunk of deterministic couplings as one stack.  What several
measures share (marginals, the filled conditionals, the do-rows, and each
measure's own values, so ricmi_two reuses both ICMI directions) is computed
lazily and at most once per stack; a reconstruction that serves a single
measure pair is rebuilt on request instead of kept, which holds the memory
of a large stack near that of its most expensive measure.
Rows never interact: every reduction runs inside one row, so row b of a
stack gives the same value as the stack-of-1 call on that row.

Two conventions, chosen by ``support``:

* ``"dense"`` - the plain measures, as ``registry.evaluate`` reports them;
* ``"on_support"`` - the achievable-bound convention (see ``bounds``):
  measures comparing a three-variable table with its reconstruction
  (cmi_js, rcmi, rpmi, ricmi_*) accumulate their JS sums only over the
  support of the first table.  On full-support tables both agree.

A value that is undefined for a candidate is NaN: pcc when an encoded
variable is constant, pc also when a conditioning correlation is +-1,
and the pairwise do-measures when d_X < 2.  ``BatchContext.undefined_error``
names the exception the single-joint path raises instead.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateVariable,
    DirectCorrError,
    SingleCategory,
    SingularDenominator,
    UnknownMeasure,
)
from .prob import Joint3, _entropy_rows, _js_rows, _kl_rows, _tv_rows
from .sparse import DEFAULT_STRATEGY, SparseStrategy

SUPPORTS = ("dense", "on_support")

DEGENERATE = "a variable is constant under its encoding; PCC undefined"
SINGULAR = "a conditioning correlation has magnitude 1; PC undefined"
SINGLE = "X has a single category; no pair of interventions to contrast"

Codes = tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Row kernels, shared with the single-object functions of totalcorr/docalc.
# ---------------------------------------------------------------------------


def pcc_rows(pab: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of each (n, d_A, d_B) table under codes a, b; NaN if a side is constant."""
    pa = pab.sum(axis=2)
    pb = pab.sum(axis=1)
    ea = (pa * a).sum(axis=1)
    eb = (pb * b).sum(axis=1)
    va = (pa * (a * a)).sum(axis=1) - ea * ea
    vb = (pb * (b * b)).sum(axis=1) - eb * eb
    cov = ((pab * a[:, None]).sum(axis=1) * b).sum(axis=1) - ea * eb
    ok = (va > 0) & (vb > 0)
    # abs only keeps sqrt quiet on the rows the divide leaves NaN
    return np.divide(cov, np.sqrt(np.abs(va * vb)), out=np.full_like(cov, math.nan), where=ok)


def mi_rows(pxy: np.ndarray, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual information in bits of each (n, d_X, d_Y) table and its two normalized forms.

    Returns (mi, mi / H(Y), mi / H(X)); a normalized form whose entropy is
    zero has nothing to explain and is 0, and both are capped at 1.
    """
    # A point mass has entropy 0 exactly, even when rounding leaves its
    # single cell a hair below 1 and the computed entropy a hair above 0.
    hx = np.where(np.count_nonzero(px, axis=1) > 1, _entropy_rows(px), 0.0)
    hy = np.where(np.count_nonzero(py, axis=1) > 1, _entropy_rows(py), 0.0)
    mi = np.maximum(hx + hy - _entropy_rows(pxy), 0.0)
    to_y = np.where(hy > 0, np.minimum(mi / np.where(hy > 0, hy, 1.0), 1.0), 0.0)
    to_x = np.where(hx > 0, np.minimum(mi / np.where(hx > 0, hx, 1.0), 1.0), 0.0)
    return mi, to_y, to_x


def rmi_rows(pxy: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Root-JS distance of each (n, d_X, d_Y) table from the product of the given marginals."""
    return np.sqrt(_js_rows(pxy, px[:, :, None] * py[:, None, :]))


def _ace_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a - b).max(axis=1)


def _root_js_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(_js_rows(a, b))


# measure -> (contrast of two do-rows, whether it is symmetric in them)
PAIR_KERNELS: dict[str, tuple[Callable, bool]] = {
    "ace": (_ace_pair, False),
    "nace": (_tv_rows, True),
    "ace_kl": (_kl_rows, False),
    "race": (_root_js_pair, True),
}


def pair_max(rows: np.ndarray, measure: str) -> tuple[np.ndarray, np.ndarray]:
    """Largest contrast between the do-rows of each (n, d_X, d_Y) stack, and where it is attained.

    Ordered pairs (x, x') are scanned in lexicographic order and the first
    pair attaining the maximum wins; a symmetric contrast only visits
    x < x', which finds the same value and the same first pair.  Values
    are NaN when d_X < 2 (no pair to contrast).
    """
    kernel, symmetric = PAIR_KERNELS[measure]
    n, d = rows.shape[:2]
    best = np.full(n, -math.inf if d > 1 else math.nan)
    pair = np.zeros((n, 2), dtype=int)
    for i in range(d):
        for k in range(i + 1 if symmetric else 0, d):
            if i == k:
                continue
            v = kernel(rows[:, i], rows[:, k])
            better = v > best
            best = np.where(better, v, best)
            pair[better] = (i, k)
    if measure == "ace":
        best = np.maximum(best, 0.0)
    return best, pair


# ---------------------------------------------------------------------------
# The lazily evaluated stack.
# ---------------------------------------------------------------------------


class BatchContext:
    """Every registry measure on one stack of candidate joints, shape (n, d_X, d_Y, d_Z).

    ``codes`` are the numeric codes of the X, Y and Z labels, used by pcc
    and pc only; the default is the ordinal position of each label.
    """

    def __init__(
        self,
        stack: np.ndarray,
        s: SparseStrategy | str = DEFAULT_STRATEGY,
        codes: Codes | None = None,
        support: str = "dense",
    ):
        if support not in SUPPORTS:
            raise ValueError(f"support must be one of {SUPPORTS}, got {support!r}")
        self.q = stack
        self.n, self.d_x, self.d_y, self.d_z = stack.shape
        self.strategy = SparseStrategy.parse(s)
        self.codes = codes
        self.support = support
        self._values: dict[str, np.ndarray] = {}

    def value(self, measure: str) -> np.ndarray:
        """Values of one measure for every candidate, shape (n,); NaN where undefined."""
        if measure not in self._values:
            kernel = _KERNELS.get(measure)
            if kernel is None:
                raise UnknownMeasure(f"unknown measure {measure!r}; valid ids: {', '.join(sorted(_KERNELS))}")
            self._values[measure] = kernel(self)
        return self._values[measure]

    def undefined_error(self, measure: str) -> DirectCorrError:
        """The exception the single-joint path raises where ``measure`` is NaN on candidate 0."""
        if measure in PAIR_KERNELS:
            return SingleCategory(SINGLE)
        if measure == "pc" and not np.isnan(self.value("pcc")[0]) and not any(
            np.isnan(c[0]) for c in self.pcc_strata
        ):
            return SingularDenominator(SINGULAR)
        return DegenerateVariable(DEGENERATE)

    # -- marginals.  p(x) comes from p(x,z) and p(y) from p(y,z): a
    # deterministic coupling keeps the base p(x,z) bit for bit, so every
    # coupling shares p(x) exactly and relabelling y permutes p(y) exactly,
    # which keeps ties between equivalent couplings exact.  p(z) is summed
    # over (x, y) in one pass, as ``prob.marginal`` does; on a coupling that
    # is the same sum as over p(x,z).

    @cached_property
    def pxz(self) -> np.ndarray:
        return self.q.sum(axis=2)

    @cached_property
    def pyz(self) -> np.ndarray:
        return self.q.sum(axis=1)

    @cached_property
    def pxy(self) -> np.ndarray:
        return self.q.sum(axis=3)

    @cached_property
    def px(self) -> np.ndarray:
        return self.pxz.sum(axis=2)

    @cached_property
    def py(self) -> np.ndarray:
        return self.pyz.sum(axis=2)

    @cached_property
    def pz(self) -> np.ndarray:
        return self.q.sum(axis=(1, 2))

    @cached_property
    def xyz_codes(self) -> Codes:
        if self.codes is not None:
            return self.codes
        return tuple(np.arange(d, dtype=float) for d in self.q.shape[1:])  # type: ignore[return-value]

    @cached_property
    def pcc_strata(self) -> tuple[np.ndarray, np.ndarray]:
        """Pearson correlations of (X, Z) and (Y, Z), the conditioning side of pc."""
        cx, cy, cz = self.xyz_codes
        return pcc_rows(self.pxz, cx, cz), pcc_rows(self.pyz, cy, cz)

    # -- conditionals, with the sparse-strategy fill on zero-mass cells

    @cached_property
    def y_given_z(self) -> np.ndarray:
        """p(y | z), zero in empty strata; (n, d_Y, d_Z)."""
        pz = self.pz[:, None, :]
        return np.where(pz > 0, self.pyz / np.where(pz > 0, pz, 1.0), 0.0)

    @cached_property
    def ycond(self) -> np.ndarray:
        """p(y | x,z), filled where p(x,z) = 0; (n, d_X, d_Y, d_Z)."""
        s = self.strategy
        if s is SparseStrategy.UNIFORM:
            fill = 1.0 / self.d_y
        elif s is SparseStrategy.MARGINAL:
            fill = self.py[:, None, :, None]
        else:
            fill = np.where(self.pz[:, None, :] > 0, self.y_given_z, self.py[:, :, None])[:, None, :, :]
        defined = (self.pxz > 0)[:, :, None, :]
        return np.where(defined, self.q / np.where(defined, self.pxz[:, :, None, :], 1.0), fill)

    @cached_property
    def xcond(self) -> np.ndarray:
        """p(x | y,z), filled where p(y,z) = 0; (n, d_X, d_Y, d_Z)."""
        s = self.strategy
        if s is SparseStrategy.UNIFORM:
            fill = 1.0 / self.d_x
        elif s is SparseStrategy.MARGINAL:
            fill = self.px[:, :, None, None]
        else:
            # p(x | z), defaulting to p(x) in zero-mass strata
            pz = self.pz[:, None, :]
            x_given_z = np.where(pz > 0, self.pxz / np.where(pz > 0, pz, 1.0), self.px[:, :, None])
            fill = x_given_z[:, :, None, :]
        defined = (self.pyz > 0)[:, None, :, :]
        return np.where(defined, self.q / np.where(defined, self.pyz[:, None, :, :], 1.0), fill)

    # -- reconstructions: each serves one measure pair, so they are rebuilt
    # on request rather than kept, which bounds the memory of a large stack

    def q_cmi(self) -> np.ndarray:
        """p(x|z) p(y|z) p(z): X-Y correlation removed within every stratum."""
        return self.pxz[:, :, None, :] * self.y_given_z[:, None, :, :]

    def q_pmi(self) -> tuple[np.ndarray, np.ndarray]:
        """The PMI reconstruction and the realized mass of each stratum (1 where p(z) = 0)."""
        qx = (self.xcond * self.py[:, None, :, None]).sum(axis=2)  # q(x|z): (n, d_X, d_Z)
        qy = (self.ycond * self.px[:, :, None, None]).sum(axis=1)  # q(y|z): (n, d_Y, d_Z)
        pz = self.pz
        # The fill makes each rebuilt stratum conditional sum to 1 already;
        # dividing by the realized mass guards the float residue.
        masses = qx.sum(axis=1) * qy.sum(axis=1)
        scale = np.where((pz > 0) & (masses > 0), masses, 1.0)
        q = qx[:, :, None, :] * qy[:, None, :, :] * (pz / scale)[:, None, None, :]
        return np.where(pz[:, None, None, :] > 0, q, 0.0), np.where(pz > 0, masses, 1.0)

    def icmi_pair(self, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """The two-step ICMI pair (p1, p2) of one direction, 'xy' or 'yx'.

        xy: p1 = p(y|x,z) p(x) p(z), p2 = p(x) p(y,z); yx mirrors it.
        """
        pz = self.pz[:, None, None, :]
        if direction == "xy":
            px = self.px[:, :, None, None]
            return self.ycond * px * pz, px * self.pyz[:, None, :, :]
        py = self.py[:, None, :, None]
        return self.xcond * py * pz, py * self.pxz[:, :, None, :]

    @cached_property
    def do_rows(self) -> np.ndarray:
        """p(y | do(x)) = sum_z p(y|x,z) p(z); (n, d_X, d_Y)."""
        return (self.ycond * self.pz[:, None, None, :]).sum(axis=3)

    @cached_property
    def pdo(self) -> np.ndarray:
        """The intervened joint p(y | do(x)) p(x); (n, d_X, d_Y)."""
        return self.do_rows * self.px[:, :, None]

    @cached_property
    def mi_xy(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MI and normalized MI, with the marginals summed from p(x,y) as for a Joint2."""
        return mi_rows(self.pxy, self.pxy.sum(axis=2), self.pxy.sum(axis=1))

    def js_to(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """JS(p, q) per candidate, over the support of p under the on_support convention."""
        return _js_rows(p, q, p > 0 if self.support == "on_support" else None)


def _k_pc(c: BatchContext) -> np.ndarray:
    cxy = c.value("pcc")
    cxz, cyz = c.pcc_strata
    dx = 1.0 - cxz * cxz
    dy = 1.0 - cyz * cyz
    ok = (dx > 0) & (dy > 0)  # false wherever a correlation is NaN
    return np.where(ok, (cxy - cxz * cyz) / np.sqrt(np.where(ok, dx * dy, 1.0)), np.nan)


def _k_cmi(c: BatchContext) -> np.ndarray:
    h = _entropy_rows
    return np.maximum(h(c.pxz) + h(c.pyz) - h(c.q) - h(c.pz), 0.0)


def _pair_kernel(measure: str) -> Callable[[BatchContext], np.ndarray]:
    return lambda c: pair_max(c.do_rows, measure)[0]


_KERNELS: dict[str, Callable[[BatchContext], np.ndarray]] = {
    "pcc": lambda c: pcc_rows(c.pxy, c.xyz_codes[0], c.xyz_codes[1]),
    "pc": _k_pc,
    "mi": lambda c: c.mi_xy[0],
    "nmi_y": lambda c: c.mi_xy[1],
    "nmi_x": lambda c: c.mi_xy[2],
    "nmi_max": lambda c: np.maximum(c.mi_xy[1], c.mi_xy[2]),
    "rmi": lambda c: rmi_rows(c.pxy, c.px, c.py),
    "cmi": _k_cmi,
    "cmi_js": lambda c: c.js_to(c.q, c.q_cmi()),
    "rcmi": lambda c: np.sqrt(c.value("cmi_js")),
    "pmi": lambda c: _kl_rows(c.q, c.q_pmi()[0]),
    "rpmi": lambda c: np.sqrt(c.js_to(c.q, c.q_pmi()[0])),
    "icmi_xy": lambda c: _kl_rows(*c.icmi_pair("xy")),
    "icmi_yx": lambda c: _kl_rows(*c.icmi_pair("yx")),
    "ricmi_xy": lambda c: np.sqrt(c.js_to(*c.icmi_pair("xy"))),
    "ricmi_yx": lambda c: np.sqrt(c.js_to(*c.icmi_pair("yx"))),
    "ricmi_two": lambda c: 0.5 * (c.value("ricmi_xy") + c.value("ricmi_yx")),
    **{m: _pair_kernel(m) for m in PAIR_KERNELS},
    "mi_do": lambda c: mi_rows(c.pdo, c.px, c.pdo.sum(axis=1))[1],
    "rmi_do": lambda c: rmi_rows(c.pdo, c.px, c.pdo.sum(axis=1)),
}


def measure_values(
    stack: np.ndarray,
    measures: Sequence[str],
    s: SparseStrategy | str = DEFAULT_STRATEGY,
    codes: Codes | None = None,
    support: str = "dense",
) -> dict[str, np.ndarray]:
    """Values of several measures on every candidate of a (n, d_X, d_Y, d_Z) stack; NaN where undefined."""
    ctx = BatchContext(stack, s, codes, support)
    return {m: ctx.value(m) for m in measures}


def evaluate_one(
    j: Joint3, measure: str, s: SparseStrategy | str = DEFAULT_STRATEGY, codes: Codes | None = None
) -> float:
    """One measure on one joint: the stack-of-1 call, raising where the value is undefined."""
    ctx = BatchContext(j.probs[None], s, codes)
    v = float(ctx.value(measure)[0])
    if math.isnan(v):
        raise ctx.undefined_error(measure)
    return v
