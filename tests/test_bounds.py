import numpy as np
import pytest

from directcorr.bounds import (
    BOUND_MEASURES,
    CouplingIterator,
    achievable_bound,
    achievable_bounds,
    candidate_values,
    rmi_max_uniform,
)
from directcorr.datasets import dataset_from_builtin
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


def all_couplings(it: CouplingIterator) -> tuple[np.ndarray, np.ndarray]:
    """Digits and joints of every coupling, as one chunk."""
    digits = it.digits_chunk(0, len(it))
    return digits, it.joints_chunk(digits)


class TestCouplingIterator:
    def test_titanic_count(self):
        it = CouplingIterator(dataset_from_builtin("titanic").joint)
        assert len(it) == 64
        assert it.total_raw == 64

    def test_berkeley_count(self):
        it = CouplingIterator(dataset_from_builtin("berkeley").joint)
        assert len(it) == 4096

    def test_single_y_category(self, rng):
        j = random_joint(rng, (3, 1, 2))
        assert len(CouplingIterator(j)) == 1

    def test_sparse_support_canonicalized(self):
        _, j = fig5_corpus()[0]  # only two of four (x,z) cells are supported
        it = CouplingIterator(j)
        assert it.total_raw == 16
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

    def test_chunked_digits_match_scalar(self, rng):
        # every index decodes on its own, as the argmax map is decoded
        j = random_joint(rng, (2, 3, 2))
        it = CouplingIterator(j)
        digits = it.digits_chunk(0, len(it))
        for i in range(len(it)):
            assert np.array_equal(it.digits_chunk(i, i + 1)[0], digits[i])
            assert i == sum(int(d) * it.d_y**c for c, d in enumerate(digits[i]))


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
        _, stack = all_couplings(CouplingIterator(j))
        per = candidate_values(j, stack, BOUND_MEASURES)
        bs = achievable_bounds(j)
        for m in BOUND_MEASURES:
            assert bs[m].max_value >= per[m].max() - 1e-12

    def test_argmax_fmap_attains_max(self):
        j = dataset_from_builtin("berkeley").joint
        pxz = j.probs.sum(axis=1)
        for m, r in achievable_bounds(j).items():
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
