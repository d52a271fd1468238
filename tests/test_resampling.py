import numpy as np
import pytest

from directcorr.datasets import builtin_titanic_observations
from directcorr.errors import (
    DegenerateVariable,
    InvalidDistribution,
    MeasureFailure,
    SingleCategory,
    SingularDenominator,
)
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import MEASURES, evaluate
from directcorr.resampling import (
    ObservationTable,
    _percentile_pair,
    _resample_counts,
    bootstrap_ci,
    bootstrap_cis,
)

AB = Alphabet((0, 1))


def table_from_counts(counts):
    return ObservationTable.from_counts(np.asarray(counts), (AB, AB, AB))


def sparse_observations():
    """Sparse 3x2x3 table: x = 2 never meets z = 0 (a filled cell), and y = 1
    never meets x = 0, so the do-rows of x = 0 and x = 1 have disjoint
    supports and ace_kl is +inf."""
    counts = np.array([[[9, 5, 4], [0, 0, 0]],
                       [[0, 6, 2], [5, 0, 7]],
                       [[0, 0, 3], [0, 8, 0]]])
    return ObservationTable.from_counts(counts, tuple(Alphabet.of_size(d) for d in counts.shape))


# (observations, sparse strategy) per table; the sparse one runs under rule c
TABLES = {"titanic": (builtin_titanic_observations, "b"), "sparse": (sparse_observations, "c")}


def resample_values(obs, measure, b_resamples, seed, s="b"):
    """Each resample's value through the single-joint evaluate; None where it is undefined."""
    counts = obs.counts()
    out = []
    for b in range(b_resamples):
        jb = Joint3(obs.alphabets, _resample_counts(counts, obs.n, seed, b) / obs.n)
        try:
            out.append(evaluate(jb, measure, s))
        except (DegenerateVariable, SingularDenominator, SingleCategory):
            out.append(None)
    return out


@pytest.fixture(scope="module")
def titanic_all_ids():
    return bootstrap_cis(builtin_titanic_observations(), list(MEASURES), 80, seed=9)


class TestObservationTable:
    def test_records_roundtrip(self):
        records = [(0, 1, 0), (1, 0, 1), (1, 1, 1)]
        t = ObservationTable.from_records(records, (AB, AB, AB))
        assert t.n == 3
        assert t.records == records

    def test_counts(self):
        t = ObservationTable.from_records([(0, 0, 0), (0, 0, 0), (1, 1, 1)], (AB, AB, AB))
        counts = t.counts()
        assert counts[0, 0, 0] == 2 and counts[1, 1, 1] == 1 and counts.sum() == 3

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistribution):
            ObservationTable(alphabets=(AB, AB, AB), codes=np.zeros((0, 3), dtype=int))

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(InvalidDistribution):
            ObservationTable(alphabets=(AB, AB, AB), codes=np.array([[0, 0, 5]]))

    def test_joint_normalizes(self):
        t = table_from_counts([[[2, 0], [0, 0]], [[0, 0], [0, 2]]])
        assert t.joint().probs[0, 0, 0] == 0.5


class TestBootstrapCi:
    def test_deterministic_bit_identical(self):
        obs = builtin_titanic_observations()
        a = bootstrap_ci(obs, "rcmi", 200, seed=42)
        b = bootstrap_ci(obs, "rcmi", 200, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        obs = builtin_titanic_observations()
        a = bootstrap_ci(obs, "rcmi", 100, seed=1)
        b = bootstrap_ci(obs, "rcmi", 100, seed=2)
        assert (a.lower, a.upper) != (b.lower, b.upper)

    def test_point_estimate_is_full_data_value(self):
        from directcorr.registry import evaluate

        obs = builtin_titanic_observations()
        full = evaluate(obs.joint(), "rcmi", "b")
        for seed in (1, 7):
            assert bootstrap_ci(obs, "rcmi", 50, seed=seed).point == full

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
            bootstrap_ci(builtin_titanic_observations(), "rmi", 1, seed=0)

    def test_lower_le_upper(self):
        obs = builtin_titanic_observations()
        for m in ("rmi", "rcmi", "nace"):
            r = bootstrap_ci(obs, m, 60, seed=3)
            assert r.lower <= r.upper

    @pytest.mark.parametrize("measure", list(MEASURES))
    def test_shared_resamples_match_single_measure(self, titanic_all_ids, measure):
        obs = builtin_titanic_observations()
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

    def test_failure_when_exclusions_exceed_cutoff(self):
        counts = np.zeros((2, 2, 2), dtype=int)
        counts[0, 0, 0] = 6
        counts[0, 1, 1] = 5
        counts[1, 1, 0] = 1  # (12 choose with replacement) misses this often
        t = table_from_counts(counts)
        with pytest.raises(MeasureFailure):
            bootstrap_ci(t, "pcc", 300, seed=2)

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
