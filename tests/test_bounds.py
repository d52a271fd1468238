import numpy as np
import pytest

from directcorr.bounds import (
    BOUND_MEASURES,
    CouplingIterator,
    achievable_bound,
    achievable_bounds,
    candidate_values,
    enumerate_couplings,
    rmi_max_uniform,
)
from directcorr.datasets import builtin_berkeley_observations, dataset_from_builtin
from directcorr.errors import ExplosionGuard, UnknownMeasure
from directcorr.models import fig5_corpus
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import evaluate
from directcorr.resampling import _resample_counts

from conftest import random_joint


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


class TestCouplingIterator:
    def test_titanic_count(self):
        it = enumerate_couplings(dataset_from_builtin("titanic").joint)
        assert len(it) == 64
        assert it.total_raw == 64

    def test_berkeley_count(self):
        it = enumerate_couplings(dataset_from_builtin("berkeley").joint)
        assert len(it) == 4096

    def test_single_y_category(self, rng):
        j = random_joint(rng, (3, 1, 2))
        assert len(enumerate_couplings(j)) == 1

    def test_sparse_support_canonicalized(self):
        _, j = fig5_corpus()[0]  # only two of four (x,z) cells are supported
        it = enumerate_couplings(j)
        assert it.total_raw == 16
        assert len(it) == 4
        for c in it:
            assert np.all(c.fmap[0, 1] == 0) and np.all(c.fmap[1, 0] == 0)

    def test_each_coupling_preserves_pxz_exactly(self, rng):
        j = random_joint(rng, (2, 3, 2), alpha=0.4)
        pxz = j.probs.sum(axis=1)
        for c in enumerate_couplings(j):
            assert np.array_equal(c.joint.probs.sum(axis=1), pxz)
            # deterministic: one y per supported cell
            assert np.all((c.joint.probs > 0).sum(axis=1) <= 1)

    def test_couplings_distinct(self, rng):
        j = random_joint(rng, (2, 2, 2))
        seen = {tuple(c.joint.probs.reshape(-1)) for c in enumerate_couplings(j)}
        assert len(seen) == 16

    def test_explosion_guard(self, rng):
        j = random_joint(rng, (3, 3, 3))
        with pytest.raises(ExplosionGuard):
            enumerate_couplings(j, cap=100)

    def test_chunked_digits_match_scalar(self, rng):
        j = random_joint(rng, (2, 2, 2))
        it = enumerate_couplings(j)
        digits = it.digits_chunk(0, len(it))
        for i in range(len(it)):
            assert list(digits[i]) == it.digits(i)


class TestAchievableBounds:
    def test_titanic_matching_cells(self):
        j = dataset_from_builtin("titanic").joint
        bs = achievable_bounds(j)
        assert bs["rmi"].max_value == pytest.approx(0.555, abs=2e-3)
        assert bs["rcmi"].max_value == pytest.approx(0.246, abs=2e-3)
        assert bs["ricmi_xy"].max_value == pytest.approx(0.252, abs=2e-3)
        assert bs["ricmi_two"].max_value == pytest.approx(0.269, abs=2e-3)
        assert bs["nace"].max_value == pytest.approx(1.0, abs=1e-9)
        assert bs["race"].max_value == pytest.approx(1.0, abs=1e-9)
        assert bs["rmi_do"].max_value == pytest.approx(0.555, abs=2e-3)

    def test_berkeley_matching_cells(self):
        j = dataset_from_builtin("berkeley").joint
        bs = achievable_bounds(j)
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
        it = enumerate_couplings(j)
        stack = it.joints_chunk(it.digits_chunk(0, len(it)))
        per = candidate_values(j, stack, BOUND_MEASURES)
        bs = achievable_bounds(j)
        for m in BOUND_MEASURES:
            assert bs[m].max_value >= per[m].max() - 1e-12

    def test_candidates_use_their_own_marginals(self):
        # On full support the bound convention is the plain one, so each
        # bootstrap resample must score exactly what evaluate gives it,
        # although its p(x,z) differs from the base joint's.
        obs = builtin_berkeley_observations()
        j = obs.joint()
        counts = obs.counts()
        stack = np.stack([_resample_counts(counts, obs.n, 3, b) for b in range(40)]) / obs.n
        assert np.all(stack > 0)
        per = candidate_values(j, stack, BOUND_MEASURES)
        for b in range(len(stack)):
            jb = Joint3(j.alphabets, stack[b])
            for m in BOUND_MEASURES:
                assert per[m][b] == evaluate(jb, m, "b"), (m, b)

    def test_bound_dominates_value(self, rng):
        for _ in range(10):
            j = random_joint(rng, (2, 2, 2))
            bs = achievable_bounds(j)
            for m in BOUND_MEASURES:
                assert evaluate(j, m, "b") <= bs[m].max_value + 1e-9

    def test_relabel_y_invariance(self, rng):
        j = random_joint(rng, (2, 3, 2))
        perm = rng.permutation(3)
        relabeled = Joint3(j.alphabets, np.ascontiguousarray(j.probs[:, perm, :]))
        a = achievable_bounds(j)
        b = achievable_bounds(relabeled)
        for m in BOUND_MEASURES:
            assert a[m].max_value == pytest.approx(b[m].max_value, abs=1e-10)

    def test_closed_form_cross_check(self):
        for k in (2, 3, 4):
            b = achievable_bound(identity_coupling_joint(k), "rmi")
            assert b.max_value == pytest.approx(rmi_max_uniform(k), abs=1e-9)
