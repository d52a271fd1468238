"""Achievable upper bounds of the regularized measures under the observed p(x,z).

The trivial upper bound of every root-JS measure is 1, but the maximum
attainable by joints sharing the observed (x,z) marginal is usually far
below 1 and depends on the marginals and alphabet sizes.  This module
computes that achievable bound as an exact maximum over a candidate
family: every deterministic coupling y = f(x,z) (each keeps p(x,z)
bitwise and concentrates each cell's mass on a single y), plus the
observed joint itself, at the value it is reported with, so no bound
falls below the value it bounds.

Couplings are scored by the batched measure engine (``engine.py``), each
with its own marginals, in the bound convention of ``_BoundContext``,
chosen to keep the bound scale meaningful:

* measures of two-variable objects (the (x,y) marginal for rmi, the
  do-rows for nace / race / rmi_do) use the standard divergences;
* measures comparing a three-variable candidate against its own
  reconstruction (rcmi, rpmi, ricmi_*) accumulate the JS sums over the
  candidate's support pattern only.  For a full-support table this is
  exactly the plain measure; for a deterministic coupling it scores
  the divergence on the outcome pattern the coupling can realize, which
  keeps the bound on the scale of the observed values instead of the
  near-saturated values any deterministic table produces off-support.

f is irrelevant on zero-mass (x,z) cells, so those are canonicalized to
y = 0: a coupling is a row of digits, the y of each supported cell, and the
family is the product of the cells' d_Y choices, refused (never sampled)
beyond the configured cap because the bound is an exact maximum.
Structure decides most of the family in advance, so each measure evaluates
only a candidate set, a ``Product`` of factors that each give a group of
cells one of their options:

* rmi, nace, race and rmi_do: the couplings with f(x,z) = g(x), the
  product over the supported x rows of one y for all of a row's cells
  (d_Y^d_X couplings on full support).  JS and TV are jointly convex, and
  p(x,y) and the do-rows p(y | do(x)) are affine in the coupling, so each
  measure is a convex function of row x's p(x,y) row or do-row.  That row
  ranges over a simplex whose vertices put all of the row's mass on one y,
  so replacing the rows of any coupling one at a time by their best vertex
  never lowers the value.  rmi reads only p(x,y), which no fill touches,
  so its set is used on every support.  The do-rows need their fill on
  empty (x,z) cells to be fixed, so for nace, race and rmi_do the set is
  used with full (x,z) support or under rule a; under rules b and c an
  empty cell is filled with a p(y) that couples the rows, and these
  measures fall back to the full family.
* rcmi, under every rule: its JS splits into a sum over strata weighted
  by p(z), which every coupling shares.  Each stratum's d_Y^k_z patterns
  (k_z its supported cells) are scored with the engine's ``cmi_js`` on
  the stratum's slice, whose cells keep their mass p(x,z) (JS is
  homogeneous, so that is p(z) JS_z), and a pattern is kept when it falls
  short of the stratum's best by at most ``TIE_TOL``.  The set is the
  product over the strata of the kept patterns: it holds the exact
  maximizers and every coupling within 1e-12 of them, so every coupling
  that rounding could make the float argmax of the full family, mirrored
  ties included.
* rpmi, ricmi_xy, ricmi_yx and ricmi_two with a two-outcome Y: a search
  over the strata.  Let t = p(y=0) = sum_z a_z, where a_z is the mass
  that stratum z's pattern sends to y = 0.  In the bound convention each
  measure's JS is a sum over the strata of a term that reads only the
  stratum's pattern and t: ricmi_yx's p1 and p2 share the factor p(y)
  and a JS term is homogeneous, so its term is linear in t; ricmi_xy's
  reads t only through the rule-b fill p(y) of empty cells; rpmi's
  q(x|z) is affine in t and its q(y|z) reads the stratum only.  JS is
  jointly convex and every argument is fixed or affine in t, so each
  term is convex in t and, over any interval of t, largest at its ends.
  t enters the support mask, the cells where p1 > 0, only through a factor
  p(y), so each pattern has one mask for every t inside (0, 1); it is
  computed once, at t = 1/2, and the pattern's terms are scored on it at
  every t.  At t = 0 or 1 p1's own mask would drop the cells of one y;
  where the pattern reaches that t, p2 vanishes there too, but where it
  does not (a_z > 0 at t = 0), ricmi_xy's p(y)-filled cells under rule b
  keep p2 > 0, and dropping them would make the term jump down at the end
  of the grid.  The interior mask extends each term continuously, hence
  convexly, to all of [0, 1] and leaves its value at every t the pattern
  can reach unchanged.  The engine scores the terms itself, one stratum
  at a time under the whole coupling's p(x) and p(y), for every pattern
  at 33 points of t.  A table then holds, for the strata from each depth
  on, per bin of the mass they send to y = 0 (bins of width 1/128) and
  per grid point, the largest sum of their values there; each measure
  searches one sum and builds these tables for it alone.  A branch and
  bound assigns the strata one at a time, widest range of a_z first, and
  prunes a node when an upper bound of its couplings falls below the best
  value found (first by an ascent over single-stratum moves, then at the
  leaves) by more than a window.  A node holds its t and its strata's
  patterns only: the grid sums of a chunk of nodes are rebuilt from the
  patterns, in depth order, when the chunk is expanded.
  The bound reads, per bin the strata left can fill, the short interval
  of t that bin allows; in the grid cell holding t every term lies below
  its chord, so the coupling's sum lies below the chord through the
  assigned strata's sums plus the table's entries at the cell's ends,
  taken at the interval's ends.  The chord stays tight where a term is
  steep in t (rpmi's), so the nodes bounded, and with them the search's
  time, vary little from one table to the next.  ricmi_two, the mean of the
  two roots, searches the one sum S_xy + r S_yx, with r = sqrt(S_xy / S_yx)
  at the ascent's best coupling (clipped to [1e-6, 1e6]).  By
  Cauchy-Schwarz, (sqrt(S_xy) + sqrt(S_yx))^2 <= (1 + 1/r)(S_xy + r S_yx),
  with equality where S_xy = r^2 S_yx, so a bound T of the weighted sum
  gives min(1, sqrt((1 + 1/r) T) / 2) for the mean, tight at that
  coupling; the weighted terms are nonnegative and convex in t, so the
  tables and the chord carry over.  (Bounding the two sums apart let each
  take its largest value at a different completion, and pruned almost
  nothing past the cap.)  Every coupling whose
  screened value lies within the window of the screened maximum (1e-12
  in a JS, sqrt(2e-12) in ricmi_two's roots; screen and engine differ by
  about 2e-16) goes to the engine, so the set holds every coupling that
  rounding could make the float argmax of the full family.  The full
  family is kept for rpmi under rule b when an (x,z) cell is empty (its
  p(y) fill makes q(y|z) affine in t too, and q_pmi quadratic), for d_Y
  >= 3 (p(y) is a vector), for a stratum of more than 10 supported
  cells, for a family no larger than ``SEARCH_MIN`` times its strata's
  patterns (a scan costs less than the tables), and when more than
  ``MAX_CONFIRM`` couplings come that close to the maximum.

The pick is a reduction, so no set is sorted or deduplicated: the bound is
the greatest value if it beats the observed joint's, and the coupling named
is the first in family order (digits compared from the last cell) among
those reaching it, the one full enumeration names.  Couplings that tie in
exact arithmetic may differ in the last bit, so the named argmax attains
the printed maximum but is not a fixed one.  A set is never built whole:
it is decoded a chunk at a time into stacks of at most
``engine.STACK_CELLS`` table cells, so the temporaries one engine step
keeps live fit in a core's L2 cache, and position ranges decode apart, so
a set can be split across workers and the parts' picks reduced by the
same rule.  The search bounds its nodes in steps sized from the same budget.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .engine import STACK_CELLS, BatchContext
from .errors import ExplosionGuard, ShapeMismatch, UnknownMeasure
from .prob import Joint3, _js_rows
from .registry import evaluate
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
Best = tuple[float, np.ndarray | None]  # a value and the digits of the coupling attaining it; None: the observed joint


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


class Product:
    """A candidate set: each factor (positions in ``cells``, rows of y) gives its cells one of its rows."""

    def __init__(self, factors: Sequence[tuple[np.ndarray, np.ndarray]]):
        self.factors = list(factors)
        self.width = sum(len(positions) for positions, _ in self.factors)

    def __len__(self) -> int:
        return math.prod(len(options) for _, options in self.factors)

    def digits(self, choice: np.ndarray) -> np.ndarray:
        """Digits of the couplings taking option choice[:, f] of each factor f; shape (n, width)."""
        out = np.empty((len(choice), self.width), dtype=np.int64)
        for f, (positions, options) in enumerate(self.factors):
            out[:, positions] = options[choice[:, f]]
        return out

    def digits_chunk(self, start: int, stop: int) -> np.ndarray:
        """Digits of members start..stop-1, the first factor varying fastest; shape (n, width)."""
        pos = np.arange(start, stop, dtype=np.int64)
        choice = np.empty((len(pos), len(self.factors)), dtype=np.int64)
        for f, (_, options) in enumerate(self.factors):
            pos, choice[:, f] = np.divmod(pos, len(options))
        return self.digits(choice)


class CouplingIterator:
    """Enumerator over the deterministic couplings compatible with a base joint.

    A coupling is a row of digits, the y of each supported (x,z) cell of
    ``cells``, and the family the product of the cells' d_Y choices.
    ``len()`` is its size, whatever part of it a bound evaluates; 2^63 or
    more is refused whatever the cap, as int64 cannot number it.
    ``strata`` holds each supported stratum's cell positions.
    """

    def __init__(self, base: Joint3, cap: int = DEFAULT_CAP):
        self.pxz = base.probs.sum(axis=1)
        self.d_x, self.d_y, self.d_z = base.shape
        self.cells: list[tuple[int, int]] = [
            (x, z) for x in range(self.d_x) for z in range(self.d_z) if self.pxz[x, z] > 0
        ]
        count = self.d_y ** len(self.cells)
        if count > np.iinfo(np.int64).max:
            raise ExplosionGuard(f"{count} couplings are more than int64 indices can number, whatever the cap")
        if count > cap:
            raise ExplosionGuard(
                f"{count} couplings exceed the cap of {cap}; raise the cap to enumerate anyway"
            )
        ys = np.arange(self.d_y)[:, None]
        self._family = Product([(np.array([c]), ys) for c in range(len(self.cells))])
        self.x, self.z = (np.array(v) for v in zip(*self.cells))
        self.strata = {z: np.flatnonzero(self.z == z) for z in sorted(set(self.z.tolist()))}

    def __len__(self) -> int:
        return len(self._family)

    def digits_chunk(self, start: int, stop: int) -> np.ndarray:
        """The y assigned to each supported cell by couplings start..stop-1; shape (n, len(cells))."""
        return self._family.digits_chunk(start, stop)

    def joints_chunk(self, digits: np.ndarray) -> np.ndarray:
        """Stack of coupling joints, shape (n, d_X, d_Y, d_Z)."""
        q = np.zeros((len(digits), self.d_x, self.d_y, self.d_z))
        q[np.arange(len(digits))[:, None], self.x, digits, self.z] = self.pxz[self.x, self.z]
        return q

    def patterns(self, z: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stratum z's patterns in family order, a chunk at a time: digits (n, k) and slices (n, d_X, d_Y, 1)."""
        x = self.x[self.strata[z]]
        every = Product(self._family.factors[:len(x)])  # every row of len(x) digits
        for digits in chunks(every, max(1, STACK_CELLS // (self.d_x * self.d_y))):
            slices = np.zeros((len(digits), self.d_x, self.d_y, 1))
            slices[np.arange(len(digits))[:, None], x, digits, 0] = self.pxz[x, z]
            yield digits, slices


class BoundReport(NamedTuple):
    """Achievable upper bound of one measure and the coupling attaining it.

    ``argmax_fmap`` is None when the observed joint itself attains the
    maximum of the candidate family; ``n_enumerated`` is the size of the
    family, whatever part of it structure left to evaluate.
    """

    measure: str
    max_value: float
    argmax_fmap: tuple[tuple[int, ...], ...] | None
    n_enumerated: int


class _BoundContext(BatchContext):
    """The engine in the bound convention: a JS against a reconstruction runs over the first table's support only."""

    def js_to(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _js_rows(p, q, p > 0)


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
    ctx = _BoundContext(stack, s)
    return {m: ctx.value(m) for m in measures}


def chunks(cands: Product | CouplingIterator, step: int) -> Iterator[np.ndarray]:
    """The digits of a candidate set, at most ``step`` couplings at a time."""
    for start in range(0, len(cands), step):
        yield cands.digits_chunk(start, min(start + step, len(cands)))


def _pick(best: Best, vals: np.ndarray, digits: np.ndarray) -> Best:
    """The pick rule (see the module docstring) on the ``best`` so far and a chunk of couplings."""
    value, first = best
    top = np.fmax.reduce(vals)  # NaN never wins
    if not (top > value or (top == value and first is not None)):
        return best
    tied = digits[vals == top]
    if top == value:
        tied = np.vstack([first, tied])
    return float(top), tied[np.lexsort(tied.T)[0]]


def row_constant_candidates(it: CouplingIterator) -> Product:
    """The couplings with f(x,z) = g(x): the product over the supported x rows of one y for the row's cells."""
    ys = np.arange(it.d_y)[:, None]
    return Product([(np.flatnonzero(it.x == x), ys) for x in sorted(set(it.x.tolist()))])


def stratum_candidates(it: CouplingIterator, s: SparseStrategy) -> Product:
    """The couplings each of whose strata is within ``TIE_TOL`` of its best rcmi pattern: a product over the strata."""
    factors = []
    for z, cells in it.strata.items():
        best, near = -math.inf, []
        for digits, slices in it.patterns(z):
            js = _BoundContext(slices, s).value("cmi_js")
            best = max(best, float(js.max()))
            keep = best - js <= TIE_TOL
            near.append((digits[keep], js[keep]))
        digits, js = (np.concatenate(parts) for parts in zip(*near))
        factors.append((cells, digits[best - js <= TIE_TOL]))
    return Product(factors)


# -- the stratum search, d_Y = 2 -------------------------------------------------

# Searched measures, and the per-stratum JS sums each combines.
SEARCHED = {"rpmi": ("rpmi",), "ricmi_xy": ("xy",), "ricmi_yx": ("yx",), "ricmi_two": ("xy", "yx")}
JS_TOL = 1e-12  # near-max window in a JS sum: twice the largest screen-to-engine gap it allows
T_CELLS = 32  # cells of the p(y=0) axis; each pattern is scored at their ends
MASS_BINS = 4 * T_CELLS  # bins per unit of the mass the unassigned strata send to y = 0
MASS_EPS = 1e-9  # widening of every mass interval, far above the rounding of a sum of masses
NODE_CHUNK = 2**10  # search nodes expanded at once
MAX_PATTERNS = 2**10  # patterns of the largest stratum the search tabulates
MAX_CONFIRM = 2**16  # a near-max set larger than this is confirmed by scanning the whole family
SEARCH_MIN = T_CELLS + 1  # couplings per tabulated pattern below which scanning the family costs less


class _StratumContext(_BoundContext):
    """Stratum slices of d_Y = 2 couplings, shape (n, d_X, 2, 1), under the whole couplings' p(x) and p(y).

    Inside one stratum the engine's conditionals, fills and reconstructions
    read only the stratum's own cells, p(z), p(x) and p(y), so with p(x) and
    p(y) given, each JS sum here is the stratum's share of the coupling's.
    """

    def __init__(self, slices: np.ndarray, s: SparseStrategy, px: np.ndarray, t: np.ndarray):
        super().__init__(slices, s)
        self.px = np.broadcast_to(px, (self.n, self.d_x))
        self.py = np.stack([t, 1.0 - t], axis=1)


def _clip(js: np.ndarray) -> np.ndarray:
    """A JS sum screened into [0, 1]."""
    return np.minimum(np.maximum(js, 0.0), 1.0)


def _combine(sums: np.ndarray) -> np.ndarray:
    """Screened value from JS sums on the last axis: the JS itself, or ricmi_two's mean of the two roots."""
    js = _clip(sums)
    if js.shape[-1] == 1:
        return js[..., 0]
    return 0.5 * (np.sqrt(js[..., 0]) + np.sqrt(js[..., 1]))


class _Search:
    """Branch and bound over the strata of a d_Y = 2 family (see the module docstring)."""

    def __init__(self, it: CouplingIterator, s: SparseStrategy, parts: Sequence[str]):
        self.s = s
        self.px = it.pxz.sum(axis=1)
        pz = it.pxz.sum(axis=0)
        order = sorted(it.strata, key=lambda z: -pz[z])  # widest range of a_z first
        banks = [[np.concatenate(parts) for parts in zip(*it.patterns(z))] for z in order]
        # The family as the product over the strata, in this order, of all their patterns.
        self.strata = Product([(it.strata[z], digits) for z, (digits, _) in zip(order, banks)])
        self.a = [slices[:, :, 0, 0].sum(axis=1) for _, slices in banks]
        # Every stratum's patterns as slices, one stratum after another.
        self.bank = np.concatenate([slices for _, slices in banks])
        self.offset = np.cumsum([0] + [len(a) for a in self.a[:-1]])
        # A node reaches p(y=0) from its own up to that plus the mass of the strata left.
        self.reach = np.append(np.cumsum([a.max() for a in self.a][::-1])[::-1], 0.0)
        self.grid = np.linspace(0.0, 1.0, T_CELLS + 1)
        self.parts = parts
        # Each pattern's support mask per part: its first table's cells > 0 inside (0, 1), read at t = 1/2,
        # one stratum at a time (at most MAX_PATTERNS patterns).
        half = [_StratumContext(slices, s, self.px, np.full(len(slices), 0.5)) for _, slices in banks]
        self.mask = {part: np.concatenate([ctx.js_pair(part)[0] > 0 for ctx in half]) for part in parts}
        # Each stratum's JS sums of every pattern at the grid points, (patterns, parts, grid).
        g = len(self.grid)
        self.per = [
            self._js(parts, np.repeat(np.arange(o, o + len(a)), g), np.tile(self.grid, len(a)))
            .reshape(len(a), g, len(parts)).transpose(0, 2, 1)
            for o, a in zip(self.offset, self.a)
        ]

    def _js(self, parts: Sequence[str], rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Per-stratum JS sums of ``parts`` for the slices ``rows`` of the bank at p(y=0) = ``t``; (n, parts)."""
        step = max(1, STACK_CELLS // self.bank[0].size)
        out = np.empty((len(rows), len(parts)))
        for i in range(0, len(rows), step):
            ctx = _StratumContext(self.bank[rows[i:i + step]], self.s, self.px, t[i:i + step])
            for p, part in enumerate(parts):
                out[i:i + step, p] = _js_rows(*ctx.js_pair(part), self.mask[part][rows[i:i + step]])
        return out

    def exact(self, parts: Sequence[str], pats: np.ndarray, t: np.ndarray) -> np.ndarray:
        """JS sums of ``parts`` of the couplings with stratum patterns ``pats`` (n, strata) and p(y=0) = ``t``."""
        n, k = pats.shape
        sums = self._js(parts, (pats + self.offset).T.reshape(-1), np.tile(t, k))
        return sums.reshape(k, n, len(parts)).sum(axis=0)

    def _suffix_tables(self, per: list[np.ndarray]) -> list[np.ndarray]:
        """Per depth, the suffix table of the strata from that depth on, from their tables ``per``; (bins, grid) each.

        The suffix table of depth d holds, per bin of the mass that the strata
        from d on send to y = 0 and per grid point, the largest sum of those
        strata's values at the point over their patterns whose masses add up
        into the bin.  Bins are closed intervals of width 1 / ``MASS_BINS``
        and each pattern's mass is widened by ``MASS_EPS``, so a sum lands in
        a bin the table counts whatever its rounding.  A table stops at the
        last bin its strata can reach.
        """
        suffix = [np.zeros((1, len(self.grid)))]
        for d in range(len(self.a) - 1, -1, -1):
            lo = np.floor((self.a[d] - MASS_EPS) * MASS_BINS).astype(np.int64).clip(0)
            hi = np.floor((self.a[d] + MASS_EPS) * MASS_BINS).astype(np.int64) + 1
            nxt = suffix[0]
            cur = np.full((int(hi.max()) + len(nxt), len(self.grid)), -math.inf)
            # Pattern p moves the bins up by lo[p] to hi[p] (hi - lo is 1 or 2); the patterns
            # sharing a shift move together, so the cost is bounded by the bins, not the patterns.
            for k in sorted(set(np.concatenate([lo, lo + 1, hi]).tolist())):
                vals = per[d][(lo <= k) & (k <= hi)].max(axis=0)  # (grid,)
                view = cur[k:k + len(nxt)]
                np.maximum(view, vals + nxt, out=view)
            suffix.insert(0, cur)
        return suffix

    def bound(self, rest: np.ndarray, reach: float, t: np.ndarray, acc: np.ndarray, per: np.ndarray,
              top: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Upper bound of the screened value over each child node's couplings.

        Child i assigns pattern i % k of the next stratum to parent i // k:
        ``acc`` (parents, grid) sums the parents' assigned strata's values at
        the grid points, ``per`` (k, grid) holds the next stratum's, and
        ``rest`` (bins, grid) is the suffix table of the strata left.  The
        strata left send a mass in one bin, which puts the coupling's t in a
        short interval across at most two cells.  In a cell every term lies
        below its chord (convexity), so the sum lies below the chord through
        the assigned sums plus the table's entries at the cell's ends, which
        is largest at an end of the interval.  ``top`` maps that bound of the
        searched sum to one of the screened value; the node's bound is the
        largest over the bins its couplings can reach.
        """
        k = len(per)
        b = np.arange(min(int((reach + MASS_EPS) * MASS_BINS) + 2, len(rest)))
        out = np.empty(len(t))
        # half a stack per temporary: its dozen temporaries stay under one engine step's live bytes
        step = max(1, STACK_CELLS // (2 * len(b)))
        for i in range(0, len(t), step):
            rows = np.arange(i, min(i + step, len(t)))[:, None]
            parent, child = rows // k, rows % k
            t0 = t[rows] + (b - MASS_EPS) / MASS_BINS  # (m, bins): the interval of t per bin
            t1 = t[rows] + (b + 1.0 + MASS_EPS) / MASS_BINS
            best = np.full(t0.shape, -math.inf)
            for c in (self.cell(t0), self.cell(t1)):
                w0, w1 = (np.clip((x - self.grid[c]) * T_CELLS, 0.0, 1.0) for x in (t0, t1))
                # the assigned strata's sums at the cell's ends, read per bin: no (m, grid) array is built
                left = acc[parent, c] + per[child, c] + rest[b, c]
                right = acc[parent, c + 1] + per[child, c + 1] + rest[b, c + 1]
                ok = np.isfinite(left)
                left, right = np.where(ok, left, 0.0), np.where(np.isfinite(right), right, 0.0)
                chord = np.maximum(left + w0 * (right - left), left + w1 * (right - left))
                best = np.maximum(best, np.where(ok, top(chord), -math.inf))
            out[i:i + step] = best.max(axis=1)
        return out

    def cell(self, t: np.ndarray) -> np.ndarray:
        return np.clip((t * T_CELLS).astype(np.int64), 0, T_CELLS - 1)

    def ascent(self, parts: Sequence[str], per: list[np.ndarray]) -> tuple[float, np.ndarray]:
        """A lower bound of the screened maximum, by steepest ascent over single-stratum moves.

        The ascent scores couplings by interpolating in t the tables
        ``per`` (patterns, parts, grid); the bound is the exact screened
        value of the best coupling it reaches from a few starts, returned
        with that coupling's JS sums.
        """
        a, table = np.concatenate(self.a), np.concatenate(per)
        strata = np.repeat(np.arange(len(self.a)), [len(x) for x in self.a])
        moves = np.arange(len(a)) - self.offset[strata]  # move r sets stratum strata[r] to pattern moves[r]
        ends = []
        for k in (0, T_CELLS // 2, T_CELLS):
            cur = np.array([int(np.argmax(v[:, :, k].sum(axis=1))) for v in per])
            value = -math.inf
            while True:
                pats = np.repeat(cur[None], len(moves), axis=0)
                pats[np.arange(len(moves)), strata] = moves
                rows = pats + self.offset
                t = a[rows].sum(axis=1)
                c = self.cell(t)[:, None]
                w = (t * T_CELLS)[:, None, None] - c[:, :, None]
                vals = _combine(((1.0 - w) * table[rows, :, c] + w * table[rows, :, c + 1]).sum(axis=1))
                b = int(np.argmax(vals))
                if not vals[b] > value:
                    break
                cur, value = pats[b], float(vals[b])
            ends.append(cur)
        pats = np.array(ends)
        sums = self.exact(parts, pats, a[pats + self.offset].sum(axis=1))
        vals = _combine(sums)
        b = int(np.argmax(vals))
        return float(vals[b]), sums[b]

    def near_max(self, measure: str) -> np.ndarray | None:
        """Stratum patterns (n, strata) of the couplings whose screened ``measure`` is within its window of the max.

        None when more than ``MAX_CONFIRM`` couplings are that close: the
        whole family is scanned instead.
        """
        parts = SEARCHED[measure]
        cols = [self.parts.index(part) for part in parts]
        best, sums = self.ascent(parts, [v[:, cols] for v in self.per])
        if len(parts) == 1:
            window, top = JS_TOL, _clip
            per = [v[:, cols[0]] for v in self.per]  # (patterns, grid), views
        else:
            # ricmi_two searches S_xy + r S_yx, with r = sqrt(S_xy / S_yx) at the ascent's best coupling:
            # (sqrt(S_xy) + sqrt(S_yx))^2 <= (1 + 1/r) (S_xy + r S_yx), with equality where S_xy = r^2 S_yx.
            # A gap of JS_TOL / 2 in each JS sum is at most sqrt(JS_TOL / 2) in each root.
            window = math.sqrt(2.0 * JS_TOL)
            r = min(max(math.sqrt(max(sums[0], 0.0) / sums[1]), 1e-6), 1e6) if sums[1] > 0 else 1e6
            per = [v[:, cols[0]] + r * v[:, cols[1]] for v in self.per]

            def top(js: np.ndarray) -> np.ndarray:
                return np.minimum(0.5 * np.sqrt((1.0 + 1.0 / r) * np.maximum(js, 0.0)), 1.0)

        rest = self._suffix_tables(per)
        depth = len(self.a)
        # Each entry: depth, and per node its t, stratum patterns and bound; a chunk's grid sums are rebuilt on pop.
        stack = [(0, np.zeros(1), np.zeros((1, depth), dtype=np.int64), np.full(1, math.inf))]
        found_pats, found_val = np.zeros((0, depth), dtype=np.int64), np.zeros(0)
        while stack:
            d, t, pats, ub = stack.pop()
            keep = ub >= best - window
            if not keep.any():
                continue
            t, pats = t[keep], pats[keep]
            acc = np.zeros((len(t), len(self.grid)))
            for e in range(d):  # in depth order, so the sums keep the bits their bounds were computed from
                acc += per[e][pats[:, e]]
            k = len(self.a[d])
            t = (t[:, None] + self.a[d]).reshape(-1)
            ub = self.bound(rest[d + 1], self.reach[d + 1], t, acc, per[d], top)
            sel = np.flatnonzero(ub >= best - window)
            children = pats[sel // k]
            children[:, d] = sel % k
            if d + 1 < depth:
                order = np.argsort(ub[sel], kind="stable")
                size = max(1, NODE_CHUNK // len(self.a[d + 1]))
                for start in range(0, len(order), size):  # the best chunk is popped first
                    o = order[start:start + size]
                    stack.append((d + 1, t[sel[o]], children[o], ub[sel[o]]))
                continue
            vals = _combine(self.exact(parts, children, t[sel]))
            best = max(best, float(vals.max(initial=-math.inf)))
            found_pats, found_val = np.concatenate([found_pats, children]), np.append(found_val, vals)
            if len(found_pats) > MAX_CONFIRM:
                close = found_val >= best - window
                found_pats, found_val = found_pats[close], found_val[close]
                if len(found_pats) > MAX_CONFIRM:
                    return None
        return found_pats[found_val >= best - window]


def search_candidates(it: CouplingIterator, measures: Sequence[str], s: SparseStrategy) -> Product | None:
    """The union of the searched ``measures``' near-max sets, as one factor over all cells; None for all couplings."""
    search = _Search(it, s, [p for p in ("rpmi", "xy", "yx") if any(p in SEARCHED[m] for m in measures)])
    found = []
    for m in measures:
        pats = search.near_max(m)
        if pats is None:
            return None
        found.append(pats)
    return Product([(np.arange(len(it.cells)), search.strata.digits(np.concatenate(found)))])


def candidate_family(measure: str, it: CouplingIterator, s: SparseStrategy | str) -> str:
    """Which candidate set bounds ``measure``: 'strata', 'rows', 'search' or 'all' (see the module docstring)."""
    strategy = SparseStrategy.parse(s)
    if measure == "rcmi":
        return "strata"
    full_support = len(it.cells) == it.d_x * it.d_z
    if measure == "rmi" or (measure in ROW_CONVEX and (full_support or strategy is SparseStrategy.UNIFORM)):
        return "rows"
    patterns = [it.d_y ** sum(1 for _, z in it.cells if z == zz) for zz in range(it.d_z)]
    if (
        measure in SEARCHED
        and it.d_y == 2
        and max(patterns) <= MAX_PATTERNS
        and len(it) > SEARCH_MIN * sum(patterns)
        and (measure != "rpmi" or full_support or strategy is not SparseStrategy.MARGINAL)
    ):
        return "search"
    return "all"


def achievable_bounds(
    j: Joint3,
    points: Mapping[str, float],
    s: SparseStrategy = DEFAULT_STRATEGY,
    cap: int = DEFAULT_CAP,
) -> dict[str, BoundReport]:
    """Exact achievable bounds around ``points``, each measure's ``evaluate`` value on ``j``.

    Measures sharing a candidate set share its scan.
    """
    strategy = SparseStrategy.parse(s)
    for m in points:
        if m not in BOUND_MEASURES:
            raise UnknownMeasure(f"no achievable bound for {m!r}; choose from {sorted(BOUND_MEASURES)}")
    it = CouplingIterator(j, cap=cap)
    best: dict[str, Best] = {m: (float(v), None) for m, v in points.items()}
    groups: dict[str, list[str]] = {}
    for m in points:
        groups.setdefault(candidate_family(m, it, strategy), []).append(m)
    for family, ms in groups.items():
        cands = None
        if family == "strata":
            cands = stratum_candidates(it, strategy)
        elif family == "rows":
            cands = row_constant_candidates(it)
        elif family == "search":
            cands = search_candidates(it, ms, strategy)
        for digits in chunks(it if cands is None else cands, max(1, STACK_CELLS // j.probs.size)):
            vals = candidate_values(j, it.joints_chunk(digits), ms, strategy)
            for m in ms:
                best[m] = _pick(best[m], vals[m], digits)
    out = {}
    for m, (value, first) in best.items():
        fmap = None
        if first is not None:  # each cell's y, read off the coupling; an empty cell's column is all 0, so y = 0
            fmap = tuple(map(tuple, it.joints_chunk(first[None])[0].argmax(axis=1).tolist()))
        out[m] = BoundReport(measure=m, max_value=value, argmax_fmap=fmap, n_enumerated=len(it))
    return out


def achievable_bound(
    j: Joint3,
    measure: str,
    s: SparseStrategy = DEFAULT_STRATEGY,
    cap: int = DEFAULT_CAP,
) -> BoundReport:
    """Exact achievable upper bound of one regularized measure under the observed p(x,z)."""
    return achievable_bounds(j, {measure: evaluate(j, measure, s)}, s, cap)[measure]
