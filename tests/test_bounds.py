import itertools

import numpy as np
import pytest

import directcorr.bounds as bounds_module
from directcorr.bounds import (
    BOUND_MEASURES,
    ROW_CONVEX,
    SEARCHED,
    CouplingIterator,
    achievable_bound,
    candidate_family,
    candidate_values,
    row_constant_candidates,
    rmi_max_uniform,
    search_candidates,
    stratum_candidates,
)
from directcorr.datasets import dataset_from_builtin
from directcorr.errors import ExplosionGuard, UnknownMeasure
from directcorr.models import fig5_corpus
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import evaluate
from directcorr.resampling import _resample_counts

from conftest import bounds_at_points, random_joint, traced_peak


def identity_coupling_joint(k: int) -> Joint3:
    probs = np.zeros((k, k, 1))
    for i in range(k):
        probs[i, i, 0] = 1.0 / k
    return Joint3((Alphabet.of_size(k), Alphabet.of_size(k), Alphabet.of_size(1)), probs)


class TestRmiMaxUniform:
    def test_published_values(self):
        assert rmi_max_uniform(2) == pytest.approx(0.558, abs=1e-3)
        assert rmi_max_uniform(4) == pytest.approx(0.741, abs=1e-3)
        assert rmi_max_uniform(16) == pytest.approx(0.910, abs=1e-3)

    def test_degenerate_alphabet(self):
        assert rmi_max_uniform(1) == 0.0

    def test_large_alphabet_approaches_one(self):
        assert rmi_max_uniform(1024) > 0.99

    def test_monotone(self):
        vals = [rmi_max_uniform(k) for k in range(1, 64)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            rmi_max_uniform(0)


def all_couplings(it: CouplingIterator) -> tuple[np.ndarray, np.ndarray]:
    """Digits and joints of every coupling, as one chunk."""
    digits = it.digits_chunk(0, len(it))
    return digits, it.joints_chunk(digits)


class TestCouplingIterator:
    def test_titanic_count(self):
        it = CouplingIterator(dataset_from_builtin("titanic").joint)
        assert len(it) == 64

    def test_berkeley_count(self):
        it = CouplingIterator(dataset_from_builtin("berkeley").joint)
        assert len(it) == 4096

    def test_single_y_category(self, rng):
        j = random_joint(rng, (3, 1, 2))
        assert len(CouplingIterator(j)) == 1

    def test_sparse_support_canonicalized(self):
        _, j = fig5_corpus()[0]  # only two of four (x,z) cells are supported
        it = CouplingIterator(j)
        assert len(it) == 4
        assert it.cells == [(0, 0), (1, 1)]
        _, q = all_couplings(it)
        # unsupported cells carry no mass in any coupling
        assert np.all(q[:, 0, :, 1] == 0) and np.all(q[:, 1, :, 0] == 0)

    def test_each_coupling_preserves_pxz_exactly(self, rng):
        j = random_joint(rng, (2, 3, 2), alpha=0.4)
        pxz = j.probs.sum(axis=1)
        digits, q = all_couplings(CouplingIterator(j))
        assert np.array_equal(q.sum(axis=2), np.broadcast_to(pxz, (len(q),) + pxz.shape))
        # deterministic: one y per supported cell, the one its digit names
        assert np.all((q > 0).sum(axis=2) <= 1)
        for c, (x, z) in enumerate(CouplingIterator(j).cells):
            assert np.all(q[np.arange(len(q)), x, digits[:, c], z] == pxz[x, z])

    def test_couplings_distinct(self, rng):
        j = random_joint(rng, (2, 2, 2))
        _, q = all_couplings(CouplingIterator(j))
        assert len({tuple(c.reshape(-1)) for c in q}) == 16

    def test_explosion_guard(self, rng):
        j = random_joint(rng, (3, 3, 3))
        with pytest.raises(ExplosionGuard):
            CouplingIterator(j, cap=100)

    def test_family_past_int64_refused_whatever_the_cap(self, rng):
        # 2^62 couplings still number in int64; 2^63 do not, and no cap lifts that
        assert len(CouplingIterator(random_joint(rng, (2, 2, 31)), cap=10**24)) == 2**62
        for shape in [(3, 2, 21), (8, 2, 8)]:
            with pytest.raises(ExplosionGuard, match="whatever the cap"):
                CouplingIterator(random_joint(rng, shape), cap=10**24)

    def test_chunked_digits_match_scalar(self, rng):
        # every position decodes on its own, so any range of the family can be decoded apart
        j = random_joint(rng, (2, 3, 2))
        it = CouplingIterator(j)
        digits = it.digits_chunk(0, len(it))
        for i in range(len(it)):
            assert np.array_equal(it.digits_chunk(i, i + 1)[0], digits[i])
            assert i == sum(int(d) * it.d_y**c for c, d in enumerate(digits[i]))


class TestAchievableBounds:
    def test_titanic_matching_cells(self):
        j = dataset_from_builtin("titanic").joint
        bs = bounds_at_points(j)
        assert bs["rmi"].max_value == pytest.approx(0.555, abs=2e-3)
        assert bs["rcmi"].max_value == pytest.approx(0.246, abs=2e-3)
        assert bs["ricmi_xy"].max_value == pytest.approx(0.252, abs=2e-3)
        assert bs["ricmi_two"].max_value == pytest.approx(0.269, abs=2e-3)
        assert bs["nace"].max_value == pytest.approx(1.0, abs=1e-9)
        assert bs["race"].max_value == pytest.approx(1.0, abs=1e-9)
        assert bs["rmi_do"].max_value == pytest.approx(0.555, abs=2e-3)

    def test_berkeley_matching_cells(self):
        j = dataset_from_builtin("berkeley").joint
        bs = bounds_at_points(j)
        assert bs["rmi"].max_value == pytest.approx(0.549, abs=2e-3)
        assert bs["rcmi"].max_value == pytest.approx(0.222, abs=2e-3)
        assert bs["ricmi_xy"].max_value == pytest.approx(0.304, abs=2e-3)
        assert bs["ricmi_two"].max_value == pytest.approx(0.310, abs=2e-3)

    def test_single_measure_wrapper(self):
        j = dataset_from_builtin("titanic").joint
        r = achievable_bound(j, "rcmi")
        assert r.measure == "rcmi"
        assert r.n_enumerated == 64
        assert r.argmax_fmap is not None

    def test_unknown_measure(self, rng):
        with pytest.raises(UnknownMeasure):
            achievable_bound(random_joint(rng, (2, 2, 2)), "cmi")

    def test_max_dominates_each_candidate(self, rng):
        j = random_joint(rng, (2, 2, 2), alpha=0.7)
        _, stack = all_couplings(CouplingIterator(j))
        per = candidate_values(j, stack, BOUND_MEASURES)
        bs = bounds_at_points(j)
        for m in BOUND_MEASURES:
            assert bs[m].max_value >= per[m].max() - 1e-12

    def test_argmax_fmap_attains_max(self):
        j = dataset_from_builtin("berkeley").joint
        pxz = j.probs.sum(axis=1)
        for m, r in bounds_at_points(j).items():
            if r.argmax_fmap is None:
                continue
            q = np.zeros(j.shape)
            for (x, z), y in np.ndenumerate(np.array(r.argmax_fmap)):
                q[x, y, z] = pxz[x, z]
            assert candidate_values(j, q[None], [m])[m][0] == r.max_value, m

    def test_candidates_use_their_own_marginals(self):
        # On full support the bound convention is the plain one, so each
        # bootstrap resample must score exactly what evaluate gives it,
        # although its p(x,z) differs from the base joint's.
        obs = dataset_from_builtin("berkeley").observations
        j = obs.joint()
        stack = _resample_counts(obs.counts(), obs.n, 3, range(40)) / obs.n
        assert np.all(stack > 0)
        per = candidate_values(j, stack, BOUND_MEASURES)
        for b in range(len(stack)):
            jb = Joint3(j.alphabets, stack[b])
            for m in BOUND_MEASURES:
                assert per[m][b] == evaluate(jb, m, "b"), (m, b)

    def test_bound_dominates_value(self, rng):
        for _ in range(10):
            j = random_joint(rng, (2, 2, 2))
            bs = bounds_at_points(j)
            for m in BOUND_MEASURES:
                assert evaluate(j, m, "b") <= bs[m].max_value + 1e-9

    def test_relabel_y_invariance(self, rng):
        j = random_joint(rng, (2, 3, 2))
        perm = rng.permutation(3)
        relabeled = Joint3(j.alphabets, np.ascontiguousarray(j.probs[:, perm, :]))
        a = bounds_at_points(j)
        b = bounds_at_points(relabeled)
        for m in BOUND_MEASURES:
            assert a[m].max_value == pytest.approx(b[m].max_value, abs=1e-10)

    def test_closed_form_cross_check(self):
        for k in (2, 3, 4):
            b = achievable_bound(identity_coupling_joint(k), "rmi")
            assert b.max_value == pytest.approx(rmi_max_uniform(k), abs=1e-9)


# -- structured bounds against full enumeration ---------------------------------

STRUCTURED = (*ROW_CONVEX, "rcmi")


def enumerated_bounds(j: Joint3, measures, s) -> dict:
    """measure -> (max, argmax fmap) by full enumeration, with the pick rule of ``achievable_bounds``.

    The observed joint comes first, at its reported value, then every
    coupling in family order, and a candidate replaces the best only when
    it is strictly greater.
    """
    it = CouplingIterator(j)
    best = {m: (evaluate(j, m, s), None) for m in measures}
    for start in range(0, len(it), 4096):
        stop = min(start + 4096, len(it))
        vals = candidate_values(j, it.joints_chunk(it.digits_chunk(start, stop)), measures, s)
        for m in measures:
            k = int(np.argmax(vals[m]))
            if vals[m][k] > best[m][0]:
                best[m] = (float(vals[m][k]), start + k)
    out = {}
    for m, (value, idx) in best.items():
        fmap = None
        if idx is not None:
            fm = np.zeros((it.d_x, it.d_z), dtype=int)
            for (x, z), y in zip(it.cells, it.digits_chunk(idx, idx + 1)[0]):
                fm[x, z] = y
            fmap = tuple(tuple(int(v) for v in row) for row in fm)
        out[m] = (value, fmap)
    return out


def value_at(j: Joint3, fmap, measure: str, s) -> float:
    """Engine value of the coupling ``fmap`` in the bound convention; the observed joint's reported value when None."""
    if fmap is None:
        return evaluate(j, measure, s)
    pxz = j.probs.sum(axis=1)
    q = np.zeros(j.shape)
    for (x, z), y in np.ndenumerate(np.array(fmap)):
        q[x, y, z] = pxz[x, z]
    return float(candidate_values(j, q[None], [measure], s)[measure][0])


def assert_matches_enumeration(j: Joint3, measures, s, each: bool = False) -> None:
    """Bounds equal full enumeration; with ``each``, every measure is bounded on its own,
    so no other measure's candidate set can hold its maximizer for it."""
    ref = enumerated_bounds(j, measures, s)
    got = {m: achievable_bound(j, m, s) for m in measures} if each else bounds_at_points(j, measures, s)
    for m in measures:
        value, fmap = ref[m]
        r = got[m]
        assert abs(r.max_value - value) <= 1e-12 * abs(value), (m, s, r.max_value, value)
        assert value_at(j, r.argmax_fmap, m, s) == r.max_value, (m, s)
        if j.shape[1] == 2:
            assert (r.max_value, r.argmax_fmap) == (value, fmap), (m, s)


def generated_442(seed: int) -> Joint3:
    """The benchmark's generated 4x2x4 table (``perfbench/workloads.py``, bounds workload) for ``seed``."""
    rng = np.random.default_rng([seed, 1])
    cells = 32
    counts = 1 + rng.multinomial(20_000 - cells, rng.dirichlet(np.full(cells, 2.0))).reshape(4, 2, 4)
    return Joint3(tuple(Alphabet.of_size(d) for d in counts.shape), counts / counts.sum())


def grid_ends_joint() -> Joint3:
    """Nine strata holding only x = 0 and one small stratum holding only x = 1, every cell split evenly in y.

    The ricmi_xy maximizers send the small stratum alone to one y, so t lies
    in an end cell of the grid, at 0.01 or 0.99; under rule b a pattern that
    cannot reach t = 0 still has p(y)-filled cells there.
    """
    pxz = np.zeros((2, 10))
    pxz[0, :9], pxz[1, 9] = 0.11, 0.01
    return Joint3(tuple(Alphabet.of_size(d) for d in (2, 2, 10)), np.stack([pxz / 2, pxz / 2], axis=1) / pxz.sum())


def sparse_joint(rng, shape) -> Joint3:
    """A random joint with about a third of its (x,z) cells empty, every x and z still visited."""
    while True:
        counts = rng.integers(1, 30, size=shape) * (rng.random(shape[::2]) < 0.65)[:, None, :]
        if counts.sum(axis=(1, 2)).all() and counts.sum(axis=(0, 1)).all() and not counts.all():
            return Joint3(tuple(Alphabet.of_size(d) for d in shape), counts / counts.sum())


class TestStructuredBounds:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_442(self, seed):
        assert_matches_enumeration(generated_442(seed), BOUND_MEASURES, "b")

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_full_support_523(self, s):
        rng = np.random.default_rng(1012)
        assert_matches_enumeration(random_joint(rng, (5, 2, 3)), BOUND_MEASURES, s)

    @pytest.mark.parametrize("s", ["b", "c"])
    def test_sparse_524(self, s):
        rng = np.random.default_rng(1013)
        j = sparse_joint(rng, (5, 2, 4))
        it = CouplingIterator(j)
        assert {candidate_family(m, it, s) for m in SEARCHED if m != "rpmi" or s == "c"} == {"search"}
        assert_matches_enumeration(j, BOUND_MEASURES, s)
        assert_matches_enumeration(j, tuple(SEARCHED), s, each=True)

    def test_search_scores_the_grid_ends_on_the_interior_support(self):
        j = grid_ends_joint()
        it = CouplingIterator(j)
        assert {candidate_family(m, it, "b") for m in ("ricmi_xy", "ricmi_two")} == {"search"}
        assert_matches_enumeration(j, ("ricmi_xy", "ricmi_two"), "b", each=True)

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_pattern_masks_are_the_interior_support(self, s):
        # Inside (0, 1), t reaches each part's first table only through a
        # factor p(y), so the mask read once at t = 1/2 is the support at
        # every t the search scores; at t = 0 that support loses cells.
        dropped = {}
        for name, j in [("442", generated_442(1)), ("grid ends", grid_ends_joint())]:
            search = bounds_module._Search(CouplingIterator(j), s, ["rpmi", "xy", "yx"])
            for part, mask in search.mask.items():
                for t in (1e-6, 0.1, 0.5, 0.9):
                    ctx = bounds_module._StratumContext(search.bank, s, search.px, np.full(len(mask), t))
                    assert np.array_equal(ctx.js_pair(part)[0] > 0, mask), (name, part, t)
                ctx = bounds_module._StratumContext(search.bank, s, search.px, np.zeros(len(mask)))
                at_zero = ctx.js_pair(part)[0] > 0
                assert not (at_zero & ~mask).any(), (name, part)
                dropped[name, part] = bool((mask & ~at_zero).any())
        assert dropped["442", "yx"] and dropped["grid ends", "yx"]
        assert not dropped["442", "rpmi"] and not dropped["grid ends", "rpmi"]
        # ricmi_xy's p(y)-filled cells are rule b's alone
        assert dropped["grid ends", "xy"] == (s == "b")

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    @pytest.mark.parametrize("name", ["titanic", "berkeley"])
    def test_builtins(self, name, s):
        assert_matches_enumeration(dataset_from_builtin(name).joint, BOUND_MEASURES, s)

    def test_c7_tables(self):
        # the random joints of test_acceptance.test_c7_every_measure_below_enumerated_bound
        rng = np.random.default_rng(704)
        for _ in range(100):
            shape = tuple(int(v) for v in rng.integers(2, 4, 3))
            assert_matches_enumeration(random_joint(rng, shape), STRUCTURED, "b")

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_sparse_tables(self, s):
        rng = np.random.default_rng(1010)
        for shape in [(3, 2, 3), (4, 2, 3), (3, 2, 4), (2, 2, 5), (3, 3, 2), (2, 3, 3)] * 3:
            assert_matches_enumeration(sparse_joint(rng, shape), BOUND_MEASURES, s)

    @pytest.mark.parametrize("s", ["b", "c"])
    def test_rmi_rows_on_sparse_support(self, s):
        rng = np.random.default_rng(1014)
        for shape in [(3, 2, 3), (4, 2, 3), (3, 3, 3), (5, 2, 4), (2, 3, 4), (4, 3, 2), (3, 2, 5)] * 2:
            j = sparse_joint(rng, shape)
            assert candidate_family("rmi", CouplingIterator(j), s) == "rows"
            assert_matches_enumeration(j, ("rmi",), s)

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_three_outcome_tables(self, s):
        rng = np.random.default_rng(1011)
        for shape in [(2, 3, 2), (3, 3, 2), (2, 3, 4), (4, 3, 1)]:
            assert_matches_enumeration(random_joint(rng, shape, alpha=0.5), BOUND_MEASURES, s)

    def test_stratum_scores_a_rounding_apart_are_kept(self):
        # In stratum 0, x = 0 and x = 2 have equal mass, so patterns that tie
        # in exact arithmetic score an ulp apart there; the float argmax of
        # the whole family uses the lower-scored one, so the set keeps both.
        counts = np.array([[[49, 20], [21, 23]], [[2, 6], [39, 6]], [[26, 24], [44, 25]]])
        j = Joint3(tuple(Alphabet.of_size(d) for d in counts.shape), counts / counts.sum())
        assert_matches_enumeration(j, ("rcmi",), "b")

    def test_row_convex_candidates_on_full_support(self, rng):
        for shape in [(4, 2, 4), (3, 3, 2), (2, 4, 3)]:
            it = CouplingIterator(random_joint(rng, shape))
            d_x, d_y, _ = shape
            assert len(row_constant_candidates(it)) == d_y**d_x
            for s in "abc":
                for m in ROW_CONVEX:
                    assert candidate_family(m, it, s) == "rows"
                assert candidate_family("rcmi", it, s) == "strata"

    def test_sparse_support_falls_back_under_rules_b_and_c(self, rng):
        # rmi reads only p(x,y), which no fill rule touches; the do-rows read the fill
        it = CouplingIterator(sparse_joint(rng, (3, 2, 3)))
        for m in ROW_CONVEX:
            assert candidate_family(m, it, "a") == "rows"
            assert candidate_family(m, it, "b") == candidate_family(m, it, "c") == ("rows" if m == "rmi" else "all")
        # 2^7 couplings: a scan costs less than tabulating the strata
        for m in SEARCHED:
            assert candidate_family(m, it, "a") == "all"

    def test_searched_families(self, rng):
        it = CouplingIterator(generated_442(1))
        for s in "abc":
            for m in SEARCHED:
                assert candidate_family(m, it, s) == "search"
        sparse = CouplingIterator(sparse_joint(rng, (5, 2, 4)))
        assert candidate_family("rpmi", sparse, "b") == "all"  # the p(y) fill makes q_pmi quadratic in t
        for m in SEARCHED:
            assert candidate_family(m, sparse, "a") == candidate_family(m, sparse, "c") == "search"
            if m != "rpmi":
                assert candidate_family(m, sparse, "b") == "search"
        three = CouplingIterator(random_joint(rng, (3, 3, 3)))
        for s in "abc":
            for m in SEARCHED:
                assert candidate_family(m, three, s) == "all"
        # A stratum of 11 supported cells has more patterns than the search tabulates.
        assert candidate_family("ricmi_yx", CouplingIterator(random_joint(rng, (10, 2, 2))), "b") == "search"
        assert candidate_family("ricmi_yx", CouplingIterator(random_joint(rng, (11, 2, 2))), "b") == "all"

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_searched_measures_in_any_order(self, s):
        # near_max reads each measure's parts of the search tables through one slice
        orders = [tuple(SEARCHED), tuple(reversed(SEARCHED)),
                  ("ricmi_two", "rpmi", "ricmi_yx", "ricmi_xy"), ("ricmi_yx", "ricmi_two", "ricmi_xy", "rpmi")]
        for j in (generated_442(1), grid_ends_joint()):
            it = CouplingIterator(j)
            assert {candidate_family(m, it, s) for m in SEARCHED if m != "rpmi" or s != "b"} == {"search"}
            reports = [bounds_at_points(j, order, s) for order in orders]
            assert all(repr(sorted(r.items())) == repr(sorted(reports[0].items())) for r in reports[1:])

    @pytest.mark.parametrize("name, ceiling_mb", [("berkeley", 0.62), ("generated_442(1)", 0.5)])
    def test_bounds_traced_peak(self, name, ceiling_mb):
        j = dataset_from_builtin("berkeley").joint if name == "berkeley" else generated_442(1)
        points = {m: evaluate(j, m, "b") for m in BOUND_MEASURES}
        assert traced_peak(lambda: bounds_module.achievable_bounds(j, points, "b")) <= ceiling_mb * 2**20

    def test_search_sends_few_couplings_to_the_engine(self, monkeypatch):
        sent = []

        def counting(j, stack, measures, s=bounds_module.DEFAULT_STRATEGY):
            sent.append(len(stack))
            return candidate_values(j, stack, measures, s)

        monkeypatch.setattr(bounds_module, "candidate_values", counting)
        bounds_at_points(generated_442(1), tuple(SEARCHED))
        assert 0 < sum(sent) < 0.01 * 2**16

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_bounds_few_nodes(self, monkeypatch, seed):
        # The chord bound keeps rpmi's search as short as the ricmi measures'
        # on every table; bounding each cell by its larger end value instead
        # takes 6,032 nodes for rpmi on seed 2.
        bounded = []
        bound = bounds_module._Search.bound

        def counting(self, rest, reach, t, acc):
            bounded[-1] += len(t)
            return bound(self, rest, reach, t, acc)

        monkeypatch.setattr(bounds_module._Search, "bound", counting)
        for m in SEARCHED:
            bounded.append(0)
            achievable_bound(generated_442(seed), m)
        assert 0 < max(bounded) <= 2**16 // 32, bounded

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_search_on_small_families(self, monkeypatch, s):
        # Families this small are scanned whole; searched here anyway,
        # the search must name what full enumeration names.
        monkeypatch.setattr(bounds_module, "SEARCH_MIN", 0)
        rng = np.random.default_rng(1014)
        tables = [dataset_from_builtin("titanic").joint, *(j for _, j in fig5_corpus())]
        tables += [sparse_joint(rng, shape) for shape in [(3, 2, 3), (4, 2, 3), (3, 2, 4), (2, 2, 5)] * 2]
        tables += [random_joint(rng, shape, alpha=0.5) for shape in [(2, 2, 2), (3, 2, 2), (4, 2, 1), (1, 2, 4)]]
        for j in tables:
            it = CouplingIterator(j)
            if it.d_y == 2:
                assert candidate_family("ricmi_yx", it, s) == "search"
            assert_matches_enumeration(j, tuple(SEARCHED), s, each=True)

    def test_many_near_ties_scan_the_whole_family(self, monkeypatch):
        # With a single x, every coupling gives ricmi_xy the same value.
        monkeypatch.setattr(bounds_module, "SEARCH_MIN", 0)
        j = random_joint(np.random.default_rng(1015), (1, 2, 5))
        it = CouplingIterator(j)
        assert len(search_candidates(it, ("ricmi_xy",), "b")) == len(it)
        monkeypatch.setattr(bounds_module, "MAX_CONFIRM", 8)
        assert search_candidates(it, ("ricmi_xy",), "b") is None
        assert_matches_enumeration(j, tuple(SEARCHED), "b")

    def test_count_reports_the_whole_family(self):
        j = generated_442(1)
        assert {r.n_enumerated for r in bounds_at_points(j).values()} == {2**16}


def product_members(cands) -> set[tuple[int, ...]]:
    """Every coupling of a ``Product``, built from its factors by ``itertools.product``."""
    members = set()
    for choice in itertools.product(*(range(len(options)) for _, options in cands.factors)):
        digits = np.zeros(cands.width, dtype=np.int64)
        for (positions, options), k in zip(cands.factors, choice):
            digits[positions] = options[k]
        members.add(tuple(digits.tolist()))
    return members


class TestCandidateSets:
    """Candidate sets are products streamed a chunk at a time, and the pick does not depend on the chunks."""

    @pytest.mark.parametrize("step", [1, 7, 64])
    def test_chunks_cover_the_product_once(self, step):
        rng = np.random.default_rng(1016)
        j = sparse_joint(rng, (4, 2, 3))
        it = CouplingIterator(j)
        sets = [row_constant_candidates(it), stratum_candidates(it, "b"),
                search_candidates(it, tuple(SEARCHED), "b")]
        for cands in sets:
            parts = list(bounds_module.chunks(cands, step))
            assert all(0 < len(part) <= step for part in parts)
            rows = [tuple(r) for part in parts for r in part.tolist()]
            assert len(rows) == len(cands)
            if cands is not sets[-1]:  # the search's near-max sets of two measures may share a coupling
                assert len(set(rows)) == len(rows)
            assert set(rows) == product_members(cands)
        # the whole family, and the row-constant couplings within it
        family = [tuple(r) for part in bounds_module.chunks(it, step) for r in part.tolist()]
        assert sorted(family) == sorted(set(family)) and len(family) == len(it) == 2 ** len(it.cells)
        constant = {f for f in family if all(len({f[c] for c, (x, _) in enumerate(it.cells) if x == row}) == 1
                                             for row in range(4))}
        assert constant == product_members(sets[0])

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_small_chunks_name_what_enumeration_names(self, monkeypatch, s):
        # With 48 cells a chunk holds a few couplings, so exact ties such as
        # nace = 1.0 on Titanic fall in different chunks and sets.
        monkeypatch.setattr(bounds_module, "STACK_CELLS", 48)
        rng = np.random.default_rng(1017)
        tables = [dataset_from_builtin(name).joint for name in ("titanic", "berkeley")]
        tables += [j for _, j in fig5_corpus()] + [sparse_joint(rng, (3, 2, 3)) for _ in range(3)]
        for j in tables:
            assert_matches_enumeration(j, BOUND_MEASURES, s)

    @pytest.mark.parametrize("s", ["a", "b", "c"])
    def test_randomized_tables_with_the_search_forced(self, monkeypatch, s):
        # Small tables, so every set is checked against the whole family:
        # Dirichlet tables, sparse ones, and integer counts from 1 to 3, whose
        # equal cell masses tie couplings beyond their y mirrors.
        monkeypatch.setattr(bounds_module, "SEARCH_MIN", 0)
        rng = np.random.default_rng(1018)
        tables = []
        for shape in [(3, 2, 3), (2, 2, 4), (4, 2, 2), (2, 2, 5), (2, 3, 3), (3, 3, 2)] * 2:
            counts = rng.integers(1, 4, size=shape)
            tables += [random_joint(rng, shape, alpha=0.7), sparse_joint(rng, shape),
                       Joint3(tuple(Alphabet.of_size(d) for d in shape), counts / counts.sum())]
        for j in tables:
            assert_matches_enumeration(j, BOUND_MEASURES, s)
