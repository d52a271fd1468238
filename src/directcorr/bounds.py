"""Achievable upper bounds of the regularized measures under the observed p(x,z).

The trivial upper bound of every root-JS measure is 1, but the maximum
attainable by joints sharing the observed (x,z) marginal is usually far
below 1 and depends on the marginals and alphabet sizes.  This module
computes that achievable bound as an exact maximum over a candidate
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
y = 0 and only supported cells are enumerated: coupling i gives the c-th
supported cell the c-th base-d_Y digit of i.  The family has d_Y to the
number of supported cells members, and the enumeration refuses (rather
than samples) beyond the configured cap, because the bound is an exact
maximum.  Structure decides most of the family in advance, so each
measure evaluates only a candidate set of coupling indices:

* rmi, nace, race and rmi_do: the couplings with f(x,z) = g(x), one per
  map g of the supported x rows (d_Y^d_X on full support).  JS and TV are
  jointly convex, and p(x,y) and the do-rows p(y | do(x)) are affine in
  the coupling, so each measure is a convex function of row x's p(x,y)
  row or do-row.  That row ranges over a simplex whose vertices put all
  of the row's mass on one y, so replacing the rows of any coupling one at
  a time by their best vertex never lowers the value.  This needs the
  do-rows' fill on empty (x,z) cells to be fixed, so the set is used with
  full (x,z) support or under rule a; under rules b and c an empty cell
  is filled with a p(y) that couples the rows, and these measures fall
  back to the full family.
* rcmi, under every rule: its JS splits into a sum over strata weighted
  by p(z), which every coupling shares.  Each stratum's d_Y^k_z patterns
  (k_z its supported cells) are scored with the engine's ``cmi_js`` on
  the stratum's conditional table, and a pattern is kept when its weighted
  shortfall p(z) (max - JS_z) is at most ``TIE_TOL``.  The set is the
  product of the kept patterns: it holds the exact maximizers and every
  coupling within 1e-12 of them, so every coupling that rounding could
  make the float argmax of the full family, mirrored ties included.
* rpmi, ricmi_xy, ricmi_yx and ricmi_two: the full family.  The
  candidate's p(y) enters them nonlinearly and couples the strata.

Each set is scanned in ascending index order, the observed joint first,
and a candidate replaces the best only when it is strictly greater, so
where the named argmax lies in the set it is the one full enumeration
names.  Among couplings that tie in exact arithmetic, the float values
may differ in the last bit, and the named argmax is one that attains the
printed maximum rather than a fixed one.

Couplings exist only as stacks: each chunk of indices is decoded into
digits and built into one (n, d_X, d_Y, d_Z) stack of at most
``engine.STACK_CELLS`` table cells, which keeps each temporary in cache;
the map f of the winning coupling is decoded from its index alone.
Indices decode independently, so a candidate set can be partitioned
across workers and reduced by max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .engine import STACK_CELLS, BatchContext, measure_values
from .errors import ExplosionGuard, ShapeMismatch, UnknownMeasure
from .prob import Alphabet, Joint3
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
# Convex in every x row's assignment when the do-rows' fills are fixed.
ROW_CONVEX = ("rmi", "nace", "race", "rmi_do")
TIE_TOL = 1e-12  # weighted per-stratum shortfall kept in rcmi's candidate set

DEFAULT_CAP = 2**24


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


def _digits(idx: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-``base`` digits of each index, least significant first; shape (n, width)."""
    return (idx[:, None] // base ** np.arange(width, dtype=np.int64)[None, :]) % base


class CouplingIterator:
    """Enumerator over the deterministic couplings compatible with a base joint.

    Coupling i assigns to the c-th supported (x,z) cell of ``cells`` the
    c-th base-d_Y digit of i, least significant first.  ``len()`` is the
    number of distinct couplings actually enumerated (d_Y to the number of
    supported (x,z) cells); ``total_raw`` is the naive count
    d_Y ** (d_X * d_Z) before canonicalization.  Couplings are produced a
    chunk at a time: ``digits_chunk`` decodes an index range (``digits_of``
    any index array) and ``joints_chunk`` builds the matching stack of joints.
    """

    def __init__(self, base: Joint3, cap: int = DEFAULT_CAP):
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

    def digits_chunk(self, start: int, stop: int) -> np.ndarray:
        """The y assigned to each supported cell by couplings start..stop-1; shape (n, len(cells))."""
        return self.digits_of(np.arange(start, stop, dtype=np.int64))

    def digits_of(self, idx: np.ndarray) -> np.ndarray:
        """The y assigned to each supported cell by the couplings numbered ``idx``; shape (n, len(cells))."""
        return _digits(idx, self.d_y, len(self.cells))

    def joints_chunk(self, digits: np.ndarray) -> np.ndarray:
        """Stack of coupling joints, shape (n, d_X, d_Y, d_Z)."""
        n = digits.shape[0]
        q = np.zeros((n, self.d_x, self.d_y, self.d_z))
        rng = np.arange(n)
        for c, (x, z) in enumerate(self.cells):
            q[rng, x, digits[:, c], z] = self.pxz[x, z]
        return q


@dataclass(frozen=True)
class BoundReport:
    """Achievable upper bound of one measure and the coupling attaining it.

    ``argmax_fmap`` is None when the observed joint itself attains the
    maximum of the candidate family; ``n_enumerated`` is the size of the
    family, whatever part of it structure left to evaluate.
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


def _scan(
    it: CouplingIterator, base: Joint3, cands: np.ndarray | None, measures: Sequence[str], s: SparseStrategy
) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray]]]:
    """(indices, values) of each chunk of the candidate set ``cands``, in order; the whole family if None."""
    step = max(1, STACK_CELLS // base.probs.size)
    if cands is None:
        for start in range(0, len(it), step):
            stop = min(start + step, len(it))
            digits = it.digits_chunk(start, stop)
            yield np.arange(start, stop), candidate_values(base, it.joints_chunk(digits), measures, s)
    else:
        for start in range(0, len(cands), step):
            ids = cands[start:start + step]
            yield ids, candidate_values(base, it.joints_chunk(it.digits_of(ids)), measures, s)


def row_constant_candidates(it: CouplingIterator) -> np.ndarray:
    """Indices of the couplings with f(x,z) = g(x), ascending: one per map g of the supported x rows."""
    rows = sorted({x for x, _ in it.cells})
    weights = np.zeros(len(rows), dtype=np.int64)
    for c, (x, _) in enumerate(it.cells):
        weights[rows.index(x)] += it.d_y**c
    maps = _digits(np.arange(it.d_y ** len(rows), dtype=np.int64), it.d_y, len(rows))
    return np.sort(maps @ weights)


def stratum_candidates(j: Joint3, it: CouplingIterator, s: SparseStrategy) -> np.ndarray:
    """Indices of the couplings each of whose strata is within ``TIE_TOL`` of its best rcmi pattern, ascending."""
    pz = it.pxz.sum(axis=0)
    idx = np.zeros(1, dtype=np.int64)
    for z in np.flatnonzero(pz > 0).tolist():
        # The stratum's conditional table, whose couplings are its patterns.
        cond = Joint3((*j.alphabets[:2], Alphabet.of_size(1)), j.probs[:, :, z, None] / pz[z])
        sub = CouplingIterator(cond)
        best, near = -math.inf, []
        for ids, vals in _scan(sub, cond, None, ("cmi_js",), s):
            js = vals["cmi_js"]
            best = max(best, float(js.max()))
            keep = pz[z] * (best - js) <= TIE_TOL
            near.append((ids[keep], js[keep]))
        ids, js = (np.concatenate(parts) for parts in zip(*near))
        kept = sub.digits_of(ids[pz[z] * (best - js) <= TIE_TOL])
        weights = np.array([it.d_y ** it.cells.index((x, z)) for x, _ in sub.cells], dtype=np.int64)
        idx = (idx[:, None] + (kept @ weights)[None, :]).reshape(-1)
    return np.sort(idx)


def candidate_family(measure: str, it: CouplingIterator, s: SparseStrategy | str) -> str:
    """Which candidate set bounds ``measure``: 'strata', 'rows' or 'all' (see the module docstring)."""
    if measure == "rcmi":
        return "strata"
    full_support = len(it.cells) == it.d_x * it.d_z
    if measure in ROW_CONVEX and (full_support or SparseStrategy.parse(s) is SparseStrategy.UNIFORM):
        return "rows"
    return "all"


def achievable_bounds(
    j: Joint3,
    measures: Sequence[str] = BOUND_MEASURES,
    s: SparseStrategy = DEFAULT_STRATEGY,
    cap: int = DEFAULT_CAP,
) -> dict[str, BoundReport]:
    """Exact achievable bounds of several measures; measures sharing a candidate set share its scan."""
    strategy = SparseStrategy.parse(s)
    for m in measures:
        if m not in BOUND_MEASURES:
            raise UnknownMeasure(f"no achievable bound for {m!r}; choose from {sorted(BOUND_MEASURES)}")
    it = CouplingIterator(j, cap=cap)
    # The observed joint is always a candidate: it shares its own marginals,
    # so the reported bound can never fall below the reported value.
    own = BatchContext(j.probs[None], strategy, support="on_support")
    best = {m: float(own.value(m)[0]) for m in measures}
    for m in measures:
        if math.isnan(best[m]):
            raise own.undefined_error(m)
    best_idx: dict[str, int | None] = {m: None for m in measures}
    groups: dict[str, list[str]] = {}
    for m in measures:
        groups.setdefault(candidate_family(m, it, strategy), []).append(m)
    for family, ms in groups.items():
        cands = None
        if family == "strata":
            cands = stratum_candidates(j, it, strategy)
        elif family == "rows":
            cands = row_constant_candidates(it)
        for ids, vals in _scan(it, j, cands, ms, strategy):
            for m in ms:
                k = int(np.argmax(vals[m]))
                if float(vals[m][k]) > best[m]:
                    best[m] = float(vals[m][k])
                    best_idx[m] = int(ids[k])
    out = {}
    for m in measures:
        idx = best_idx[m]
        fmap = None
        if idx is not None:
            fm = np.zeros((it.d_x, it.d_z), dtype=int)  # y = 0 on unsupported cells
            for (x, z), y in zip(it.cells, it.digits_chunk(idx, idx + 1)[0]):
                fm[x, z] = y
            fmap = tuple(tuple(int(v) for v in row) for row in fm)
        out[m] = BoundReport(
            measure=m, max_value=best[m], argmax_fmap=fmap, n_enumerated=len(it)
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
