import numpy as np
import pytest

from directcorr.datasets import TITANIC_ALPHABETS, berkeley_counts, dataset_from_builtin, titanic_counts
from directcorr.errors import (
    DegenerateVariable,
    InvalidDistribution,
    MeasureFailure,
    SingleCategory,
    SingularDenominator,
    ZeroTotal,
)
from directcorr.prob import Alphabet, Joint3, ObservationTable, from_counts
from directcorr.registry import MEASURES, evaluate
from directcorr.resampling import (
    _percentile_pair,
    _resample_counts,
    bootstrap_ci,
    bootstrap_cis,
)

AB = Alphabet((0, 1))


def table_from_counts(counts):
    return ObservationTable((AB, AB, AB), counts)


def titanic_observations():
    return dataset_from_builtin("titanic").observations


def sparse_observations():
    """Sparse 3x2x3 table: x = 2 never meets z = 0 (a filled cell), and y = 1
    never meets x = 0, so the do-rows of x = 0 and x = 1 have disjoint
    supports and ace_kl is +inf."""
    counts = np.array([[[9, 5, 4], [0, 0, 0]],
                       [[0, 6, 2], [5, 0, 7]],
                       [[0, 0, 3], [0, 8, 0]]])
    return ObservationTable(tuple(Alphabet.of_size(d) for d in counts.shape), counts)


# (observations, sparse strategy) per table; the sparse one runs under rule c
TABLES = {"titanic": (titanic_observations, "b"), "sparse": (sparse_observations, "c")}


def resample_values(obs, measure, b_resamples, seed, s="b"):
    """Each resample's value through the single-joint evaluate; None where it is undefined."""
    out = []
    for draw in _resample_counts(obs.counts(), obs.n, seed, range(b_resamples)):
        jb = Joint3(obs.alphabets, draw / obs.n)
        try:
            out.append(evaluate(jb, measure, s))
        except (DegenerateVariable, SingularDenominator, SingleCategory):
            out.append(None)
    return out


def full_values(obs, measures):
    """Each measure's value on the whole table: the points ``bootstrap_cis`` is given."""
    full = obs.joint()
    return {m: evaluate(full, m) for m in measures}


@pytest.fixture(scope="module")
def titanic_all_ids():
    obs = titanic_observations()
    return bootstrap_cis(obs, full_values(obs, MEASURES), 80, seed=9)


class TestObservationTable:
    def test_counts(self):
        t = table_from_counts([[[2, 0], [0, 0]], [[0, 0], [0, 1]]])
        counts = t.counts()
        assert counts.dtype == np.int64
        assert counts[0, 0, 0] == 2 and counts[1, 1, 1] == 1 and counts.sum() == 3
        assert t.n == 3

    @pytest.mark.parametrize(
        "counts, error",
        [
            pytest.param(np.zeros((2, 2, 2), dtype=int), ZeroTotal, id="zero-total"),
            pytest.param(np.ones((2, 2, 3), dtype=int), InvalidDistribution, id="shape"),
            pytest.param(np.ones((2, 2)), InvalidDistribution, id="ndim"),
            pytest.param(np.full((2, 2, 2), -1), InvalidDistribution, id="negative"),
            pytest.param(np.full((2, 2, 2), 1.5), InvalidDistribution, id="fractional"),
            pytest.param(np.full((2, 2, 2), np.nan), InvalidDistribution, id="nan"),
            pytest.param(np.full((2, 2, 2), np.inf), InvalidDistribution, id="inf"),
            pytest.param(np.full((2, 2, 2), 2.0**63), InvalidDistribution, id="above-int64"),
            pytest.param(np.full((2, 2, 2), 2**61), InvalidDistribution, id="total-above-int64"),
            pytest.param(np.full((2, 2, 2), "1"), InvalidDistribution, id="strings"),
        ],
    )
    def test_rejected(self, counts, error):
        with pytest.raises(error):
            table_from_counts(counts)

    def test_whole_float_counts_accepted(self):
        t = table_from_counts(np.full((2, 2, 2), 3.0))
        assert t.counts().dtype == np.int64 and t.n == 24

    def test_joint_normalizes(self):
        t = table_from_counts([[[2, 0], [0, 0]], [[0, 0], [0, 2]]])
        assert t.joint().probs[0, 0, 0] == 0.5

    def test_joint_equals_from_counts(self):
        # the plain float formula, exact for totals below 2**53: the
        # built-ins' joints and every evaluate on them rely on these bits
        rng = np.random.default_rng(11)
        builtins = {"titanic": titanic_counts(), "berkeley": berkeley_counts()}
        tables = list(builtins.values())
        for _ in range(100):
            shape = tuple(int(d) for d in rng.integers(1, 5, size=3))
            counts = rng.integers(0, 10 ** int(rng.integers(1, 12)), size=shape)
            counts.flat[0] += 1  # never all zero
            tables.append(counts)
        for counts in tables:
            expected = counts / float(counts.sum())
            t = ObservationTable(tuple(Alphabet.of_size(d) for d in counts.shape), counts)
            assert np.array_equal(t.joint().probs, expected)
            assert np.array_equal(from_counts(counts, t.alphabets).probs, expected)
        for name, counts in builtins.items():
            assert np.array_equal(dataset_from_builtin(name).joint.probs, counts / float(counts.sum()))


class TestBootstrapCi:
    def test_deterministic_bit_identical(self):
        obs = titanic_observations()
        a = bootstrap_ci(obs, "rcmi", 200, seed=42)
        b = bootstrap_ci(obs, "rcmi", 200, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        obs = titanic_observations()
        a = bootstrap_ci(obs, "rcmi", 100, seed=1)
        b = bootstrap_ci(obs, "rcmi", 100, seed=2)
        assert (a.lower, a.upper) != (b.lower, b.upper)

    def test_point_estimate_is_full_data_value(self):
        from directcorr.registry import evaluate

        obs = titanic_observations()
        full = evaluate(obs.joint(), "rcmi", "b")
        for seed in (1, 7):
            assert bootstrap_ci(obs, "rcmi", 50, seed=seed).point == full

    def test_cis_report_the_points_they_are_given(self, monkeypatch):
        # the intervals come from the resamples alone; the full table is never evaluated
        obs = titanic_observations()
        expected = bootstrap_cis(obs, full_values(obs, ("rmi", "nace")), 40, seed=4)
        monkeypatch.setattr("directcorr.resampling.evaluate", None)
        cis = bootstrap_cis(obs, {"rmi": 0.5, "nace": -1.0}, 40, seed=4)
        assert [(ci.measure, ci.point) for ci in cis.values()] == [("rmi", 0.5), ("nace", -1.0)]
        for m, ci in cis.items():
            assert (ci.lower, ci.upper, ci.n_excluded) == (expected[m].lower, expected[m].upper, expected[m].n_excluded)

    def test_no_points_draws_nothing(self, monkeypatch):
        # as with `bootstrap --measures pc` on a table where pc is omitted
        monkeypatch.setattr("directcorr.resampling._resample_counts", None)
        obs = titanic_observations()
        assert bootstrap_cis(obs, {}, 1000, seed=4) == {}
        with pytest.raises(ValueError):
            bootstrap_cis(obs, {}, 1, seed=4)

    @pytest.mark.parametrize("name", ["titanic", "berkeley"])
    def test_stack_size_changes_no_ci(self, monkeypatch, name):
        # rows never interact: resamples evaluated a few tables at a time give the same CIs
        ds = dataset_from_builtin(name)
        points = {m: evaluate(ds.joint, m, "b", ds.encoding) for m in MEASURES}
        default = bootstrap_cis(ds.observations, points, 200, seed=3, enc=ds.encoding)
        monkeypatch.setattr("directcorr.resampling.STACK_CELLS", 48)
        assert repr(bootstrap_cis(ds.observations, points, 200, seed=3, enc=ds.encoding)) == repr(default)

    def test_constant_dataset_zero_width(self):
        t = table_from_counts([[[10, 0], [0, 0]], [[0, 0], [0, 0]]])
        r = bootstrap_ci(t, "rmi", 50, seed=0)
        assert r.lower == r.point == r.upper

    @pytest.mark.parametrize("table, measure", [(t, m) for t in TABLES for m in MEASURES])
    def test_b2_gives_min_max(self, table, measure):
        # every resample of the stack equals its own single-joint evaluation,
        # fills and +inf values included
        make, s = TABLES[table]
        obs = make()
        r = bootstrap_ci(obs, measure, 2, seed=5, s=s)
        vals = resample_values(obs, measure, 2, 5, s)
        assert r.n_excluded == 0
        assert r.lower == min(vals)
        assert r.upper == max(vals)

    def test_b_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            bootstrap_ci(titanic_observations(), "rmi", 1, seed=0)

    def test_lower_le_upper(self):
        obs = titanic_observations()
        for m in ("rmi", "rcmi", "nace"):
            r = bootstrap_ci(obs, m, 60, seed=3)
            assert r.lower <= r.upper

    @pytest.mark.parametrize("measure", list(MEASURES))
    def test_shared_resamples_match_single_measure(self, titanic_all_ids, measure):
        obs = titanic_observations()
        assert titanic_all_ids[measure] == bootstrap_ci(obs, measure, 80, seed=9)

    def test_excluded_resamples_counted(self):
        # one rare X category: some resamples miss it entirely, so pcc
        # degenerates there and gets excluded (well under the 5% cutoff)
        counts = np.zeros((2, 2, 2), dtype=int)
        counts[0, 0, 0] = 120
        counts[0, 1, 1] = 75
        counts[1, 1, 0] = 4
        t = table_from_counts(counts)
        for m in ("pcc", "pc"):
            r = bootstrap_ci(t, m, 400, seed=11)
            vals = resample_values(t, m, 400, 11)
            kept = np.array([v for v in vals if v is not None])
            assert 0 < r.n_excluded <= 0.05 * 400
            assert r.n_excluded == vals.count(None)
            assert (r.lower, r.upper) == _percentile_pair(kept, kept.size)
            assert np.isfinite(r.lower) and np.isfinite(r.upper)

    def test_percentile_between_equal_infinite_neighbours(self):
        # rule c leaves ace_kl +inf on most resamples of the sparse table, so
        # both order statistics around the upper percentile are +inf
        assert _percentile_pair(np.r_[np.linspace(0.0, 1.0, 90), np.full(10, np.inf)], 100)[1] == np.inf
        ci = bootstrap_ci(sparse_observations(), "ace_kl", 100, seed=1, s="c")
        assert (ci.lower, ci.upper) == (np.inf, np.inf)

    def test_failure_when_exclusions_exceed_cutoff(self):
        counts = np.zeros((2, 2, 2), dtype=int)
        counts[0, 0, 0] = 6
        counts[0, 1, 1] = 5
        counts[1, 1, 0] = 1  # (12 choose with replacement) misses this often
        t = table_from_counts(counts)
        with pytest.raises(MeasureFailure):
            bootstrap_ci(t, "pcc", 300, seed=2)

    def test_cis_nan_when_exclusions_exceed_cutoff(self):
        # the same table: pcc gets no interval, and the other measure is unaffected
        counts = np.zeros((2, 2, 2), dtype=int)
        counts[0, 0, 0] = 6
        counts[0, 1, 1] = 5
        counts[1, 1, 0] = 1
        obs = table_from_counts(counts)
        cis = bootstrap_cis(obs, full_values(obs, ("pcc", "rmi")), 300, seed=2)
        assert cis["pcc"].too_many_excluded and np.isnan(cis["pcc"].lower) and np.isnan(cis["pcc"].upper)
        assert cis["rmi"] == bootstrap_ci(table_from_counts(counts), "rmi", 300, seed=2)
        assert not cis["rmi"].too_many_excluded

    def test_ci_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(17)
        base = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        widths = {}
        for n in (100, 1000, 10000):
            per_seed = []
            for seed in range(20):
                counts = np.random.default_rng((99, seed)).multinomial(n, base.reshape(-1)).reshape(2, 2, 2)
                if counts.sum(axis=(1, 2)).min() == 0 or counts.sum(axis=(0, 2)).min() == 0:
                    continue
                t = table_from_counts(counts)
                r = bootstrap_ci(t, "rmi", 120, seed=seed)
                per_seed.append(r.upper - r.lower)
            widths[n] = float(np.median(per_seed))
        assert widths[100] > widths[1000] > widths[10000]

    def test_huge_counts_cost_no_memory_per_observation(self):
        # a table with 10**12 observations in one cell: the table, the
        # draws and the joints all stay one number per cell
        counts = titanic_counts()
        others = int(counts.sum() - counts[0, 0, 0])
        counts[0, 0, 0] = 10**12
        obs = ObservationTable(TITANIC_ALPHABETS, counts)
        assert obs.n == 10**12 + others
        assert obs.counts().nbytes == counts.size * 8
        cis = bootstrap_cis(obs, full_values(obs, ("rmi", "rcmi", "nace")), 20, seed=1)
        for r in cis.values():
            assert r.n_excluded == 0
            assert np.isfinite(r.point) and r.lower <= r.upper
