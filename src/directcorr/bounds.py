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
* rpmi, ricmi_xy, ricmi_yx and ricmi_two with a two-outcome Y: a search
  over the strata.  Let t = p(y=0) = sum_z a_z, where a_z is the mass
  that stratum z's pattern sends to y = 0.  Under ``on_support`` each
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
  per grid point, the largest sum of their values there.  A branch and
  bound assigns the strata one at a time, widest range of a_z first, and
  prunes a node when an upper bound of its couplings falls below the best
  value found (first by an ascent over single-stratum moves, then at the
  leaves) by more than a window.
  The bound reads, per bin the strata left can fill, the short interval
  of t that bin allows; in the grid cell holding t every term lies below
  its chord, so the coupling's sum lies below the chord through the
  assigned strata's sums plus the table's entries at the cell's ends,
  taken at the interval's ends.  The chord stays tight where a term is
  steep in t (rpmi's), so the nodes bounded, and with them the search's
  time, vary little from one table to the next.  ricmi_two, the mean of the
  two roots, is searched on both sums at once.  Every coupling whose
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
from .prob import Alphabet, Joint3, _js_rows
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
    size of the family, d_Y to the number of supported (x,z) cells, however
    few of them a bound evaluates; a family of 2^63 or more is refused
    whatever the cap, as int64 cannot number it.  Couplings are produced a
    chunk at a time: ``digits_chunk`` decodes an index range (``digits_of``
    any index array) and ``joints_chunk`` builds the matching stack of
    joints.
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


class _StratumContext(BatchContext):
    """Stratum slices of d_Y = 2 couplings, shape (n, d_X, 2, 1), under the whole couplings' p(x) and p(y).

    Inside one stratum the engine's conditionals, fills and reconstructions
    read only the stratum's own cells, p(z), p(x) and p(y), so with p(x) and
    p(y) given, each JS sum here is the stratum's share of the coupling's.
    """

    def __init__(self, slices: np.ndarray, s: SparseStrategy, px: np.ndarray, t: np.ndarray):
        super().__init__(slices, s, support="on_support")
        self.px = np.broadcast_to(px, (self.n, self.d_x))
        self.py = np.stack([t, 1.0 - t], axis=1)


def _combine(sums: np.ndarray) -> np.ndarray:
    """Screened value from JS sums on the last axis: the JS itself, or ricmi_two's mean of the two roots."""
    js = np.minimum(np.maximum(sums, 0.0), 1.0)
    if js.shape[-1] == 1:
        return js[..., 0]
    return 0.5 * (np.sqrt(js[..., 0]) + np.sqrt(js[..., 1]))


class _Search:
    """Branch and bound over the strata of a d_Y = 2 family (see the module docstring)."""

    def __init__(self, it: CouplingIterator, s: SparseStrategy, parts: Sequence[str]):
        self.s = s
        self.px = it.pxz.sum(axis=1)
        pz = it.pxz.sum(axis=0)
        slices, self.a, self.index = [], [], []
        for z in sorted(np.flatnonzero(pz > 0).tolist(), key=lambda z: -pz[z]):  # widest range of a_z first
            xs = [x for x, zz in it.cells if zz == z]
            digits = _digits(np.arange(2 ** len(xs), dtype=np.int64), 2, len(xs))
            sl = np.zeros((len(digits), it.d_x, 2, 1))
            for c, x in enumerate(xs):
                sl[np.arange(len(digits)), x, digits[:, c], 0] = it.pxz[x, z]
            slices.append(sl)
            self.a.append(sl[:, :, 0, 0].sum(axis=1))
            self.index.append(digits @ np.array([2 ** it.cells.index((x, z)) for x in xs], dtype=np.int64))
        # Every stratum's patterns as slices, one stratum after another.
        self.bank = np.concatenate(slices)
        self.offset = np.cumsum([0] + [len(a) for a in self.a[:-1]])
        # A node reaches p(y=0) from its own up to that plus the mass of the strata left.
        self.reach = np.append(np.cumsum([a.max() for a in self.a][::-1])[::-1], 0.0)
        self.grid = np.linspace(0.0, 1.0, T_CELLS + 1)
        self.parts = parts
        # Each pattern's support mask per part: its first table's cells > 0 inside (0, 1), read at t = 1/2.
        self.mask = {part: np.empty(self.bank.shape, dtype=bool) for part in parts}
        step = max(1, STACK_CELLS // self.bank[0].size)
        for i in range(0, len(self.bank), step):
            chunk = self.bank[i:i + step]
            ctx = _StratumContext(chunk, s, self.px, np.full(len(chunk), 0.5))
            for part in parts:
                self.mask[part][i:i + step] = ctx.js_pair(part)[0] > 0
        # Each stratum's JS sums of every pattern at the grid points, (patterns, parts, grid).
        g = len(self.grid)
        self.per = [
            self._js(parts, np.repeat(np.arange(o, o + len(a)), g), np.tile(self.grid, len(a)))
            .reshape(len(a), g, len(parts)).transpose(0, 2, 1)
            for o, a in zip(self.offset, self.a)
        ]
        self.suffix = self._suffix_tables()

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
        """Screened values of the couplings with stratum patterns ``pats`` (n, strata) and p(y=0) = ``t``."""
        n, k = pats.shape
        sums = self._js(parts, (pats + self.offset).T.reshape(-1), np.tile(t, k))
        return _combine(sums.reshape(k, n, len(parts)).sum(axis=0))

    def _suffix_tables(self) -> list[np.ndarray]:
        """Per depth, the suffix table of the strata from that depth on; (parts, bins, grid) each.

        The suffix table of depth d holds, per bin of the mass that the strata
        from d on send to y = 0 and per grid point, the largest sum of those
        strata's values at the point over their patterns whose masses add up
        into the bin.  Bins are closed intervals of width 1 / ``MASS_BINS``
        and each pattern's mass is widened by ``MASS_EPS``, so a sum lands in
        a bin the table counts whatever its rounding.  A table stops at the
        last bin its strata can reach.
        """
        suffix = [np.zeros((len(self.parts), 1, len(self.grid)))]
        for d in range(len(self.a) - 1, -1, -1):
            lo = np.floor((self.a[d] - MASS_EPS) * MASS_BINS).astype(np.int64).clip(0)
            hi = np.floor((self.a[d] + MASS_EPS) * MASS_BINS).astype(np.int64) + 1
            nxt = suffix[0]
            cur = np.full((len(self.parts), int(hi.max()) + nxt.shape[1], len(self.grid)), -math.inf)
            # Pattern p moves the bins up by lo[p] to hi[p] (hi - lo is 1 or 2); the patterns
            # sharing a shift move together, so the cost is bounded by the bins, not the patterns.
            for k in sorted(set(np.concatenate([lo, lo + 1, hi]).tolist())):
                vals = self.per[d][(lo <= k) & (k <= hi)].max(axis=0)  # (parts, grid)
                view = cur[:, k:k + nxt.shape[1]]
                np.maximum(view, vals[:, None] + nxt, out=view)
            suffix.insert(0, cur)
        return suffix

    def bound(self, rest: np.ndarray, reach: float, t: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Upper bound of the screened value over each node's couplings.

        ``acc`` (n, parts, grid) sums the assigned strata's values at the
        grid points and ``rest`` (parts, bins, grid) is the suffix table of
        the strata left.  The strata left send a mass in one bin, which puts
        the coupling's t in a short interval across at most two cells.  In a
        cell every term lies below its chord (convexity), so the sum lies
        below the chord through the assigned sums plus the table's entries
        at the cell's ends, which is largest at an end of the interval.  The
        node's bound is the largest over the bins its couplings can reach.
        """
        b = np.arange(min(int((reach + MASS_EPS) * MASS_BINS) + 2, rest.shape[1]))
        out = np.empty(len(t))
        step = max(1, STACK_CELLS // (16 * acc.shape[1] * len(b)))  # its dozen temporaries make about one stack
        for i in range(0, len(t), step):
            rows = slice(i, i + step)
            t0 = t[rows, None] + (b - MASS_EPS) / MASS_BINS  # (m, bins): the interval of t per bin
            t1 = t[rows, None] + (b + 1.0 + MASS_EPS) / MASS_BINS
            best = np.full(t0.shape, -math.inf)
            for c in (self.cell(t0), self.cell(t1)):
                w0, w1 = (np.clip((x - self.grid[c]) * T_CELLS, 0.0, 1.0) for x in (t0, t1))
                left = np.take_along_axis(acc[rows], c[:, None, :], axis=2) + rest[:, b, c].transpose(1, 0, 2)
                right = np.take_along_axis(acc[rows], c[:, None, :] + 1, axis=2) + rest[:, b, c + 1].transpose(1, 0, 2)
                ok = np.isfinite(left).all(axis=1)
                left, right = np.where(np.isfinite(left), left, 0.0), np.where(np.isfinite(right), right, 0.0)
                sums = np.maximum(left + w0[:, None] * (right - left), left + w1[:, None] * (right - left))
                best = np.maximum(best, np.where(ok, _combine(sums.transpose(0, 2, 1)), -math.inf))
            out[rows] = best.max(axis=1)
        return out

    def cell(self, t: np.ndarray) -> np.ndarray:
        return np.clip((t * T_CELLS).astype(np.int64), 0, T_CELLS - 1)

    def ascent(self, parts: Sequence[str], per: list[np.ndarray]) -> float:
        """A lower bound of the screened maximum, by steepest ascent over single-stratum moves.

        The ascent scores couplings by interpolating in t the tables
        ``per`` (patterns, parts, grid); the bound is the exact screened
        value of the best coupling it reaches from a few starts.
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
        return float(self.exact(parts, pats, a[pats + self.offset].sum(axis=1)).max())

    def near_max(self, measure: str) -> np.ndarray | None:
        """Couplings whose screened ``measure`` lies within its window of the screened maximum.

        None when more than ``MAX_CONFIRM`` couplings are that close: the
        whole family is scanned instead.
        """
        parts = SEARCHED[measure]
        # A gap of JS_TOL / 2 in each JS sum is at most sqrt(JS_TOL / 2) in each root.
        window = JS_TOL if len(parts) == 1 else math.sqrt(2.0 * JS_TOL)
        cols = [self.parts.index(p) for p in parts]
        per = [v[:, cols] for v in self.per]  # (patterns, parts, grid)
        rest = [table[cols] for table in self.suffix]  # (parts, bins, grid) per depth
        best = self.ascent(parts, per)
        depth = len(self.a)
        # Each entry: depth, and per node its t, grid sums, stratum patterns and bound.
        stack = [(0, np.zeros(1), np.zeros((1, len(parts), len(self.grid))), np.zeros((1, depth), dtype=np.int64),
                  np.full(1, math.inf))]
        found_idx, found_val = np.zeros(0, dtype=np.int64), np.zeros(0)
        while stack:
            d, t, acc, pats, ub = stack.pop()
            keep = ub >= best - window
            if not keep.any():
                continue
            t, acc, pats = t[keep], acc[keep], pats[keep]
            n, k = len(t), len(self.a[d])
            t = (t[:, None] + self.a[d]).reshape(-1)
            acc = (acc[:, None] + per[d]).reshape(n * k, *acc.shape[1:])
            pats = np.repeat(pats, k, axis=0)
            pats[:, d] = np.tile(np.arange(k), n)
            ub = self.bound(rest[d + 1], self.reach[d + 1], t, acc)
            keep = ub >= best - window
            if d + 1 < depth:
                order = np.flatnonzero(keep)[np.argsort(ub[keep], kind="stable")]
                size = max(1, NODE_CHUNK // len(self.a[d + 1]))
                for start in range(0, len(order), size):  # the best chunk is popped first
                    sel = order[start:start + size]
                    stack.append((d + 1, t[sel], acc[sel], pats[sel], ub[sel]))
                continue
            idx = sum(ix[pats[:, i]] for i, ix in enumerate(self.index))
            vals = self.exact(parts, pats[keep], t[keep])
            best = max(best, float(vals.max(initial=-math.inf)))
            found_idx, found_val = np.append(found_idx, idx[keep]), np.append(found_val, vals)
            if len(found_idx) > MAX_CONFIRM:
                close = found_val >= best - window
                found_idx, found_val = found_idx[close], found_val[close]
                if len(found_idx) > MAX_CONFIRM:
                    return None
        return found_idx[found_val >= best - window]


def search_candidates(it: CouplingIterator, measures: Sequence[str], s: SparseStrategy) -> np.ndarray | None:
    """Indices of the couplings the engine confirms for the searched ``measures``, ascending; None for all.

    The union over the measures of each one's near-max set.
    """
    search = _Search(it, s, list(dict.fromkeys(p for m in measures for p in SEARCHED[m])))
    sets = []
    for m in measures:
        near = search.near_max(m)
        if near is None:
            return None
        sets.append(near)
    idx = np.sort(np.concatenate(sets))
    return idx[np.r_[True, idx[1:] != idx[:-1]]]  # np.unique's result; its first call imports numpy.ma


def candidate_family(measure: str, it: CouplingIterator, s: SparseStrategy | str) -> str:
    """Which candidate set bounds ``measure``: 'strata', 'rows', 'search' or 'all' (see the module docstring)."""
    strategy = SparseStrategy.parse(s)
    if measure == "rcmi":
        return "strata"
    full_support = len(it.cells) == it.d_x * it.d_z
    if measure in ROW_CONVEX and (full_support or strategy is SparseStrategy.UNIFORM):
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
        elif family == "search":
            cands = search_candidates(it, ms, strategy)
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
            for (x, z), y in zip(it.cells, it.digits_of(np.array([idx]))[0]):
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
