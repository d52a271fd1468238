import math

import numpy as np
import pytest

from directcorr.datasets import dataset_from_builtin
from directcorr.engine import BatchContext
from directcorr.models import DecisionParams, SimpleParams, decision_model_joint, fig5_corpus, simple_model_joint
from directcorr.prob import Alphabet, Joint3, _kl_rows
from directcorr.registry import cmi, cmi_js, evaluate, icmi_oneway, pmi, rcmi, ricmi, rpmi

from conftest import cond_indep_joint, random_joint

AB = Alphabet((0, 1))

REMOVAL_IDS = ("cmi", "cmi_js", "rcmi", "pmi", "rpmi", "icmi_xy", "icmi_yx", "ricmi_xy", "ricmi_yx", "ricmi_two")


def q_cmi(j):
    return BatchContext(j.probs[None]).q_cmi()[0]


def q_pmi(j, s):
    return BatchContext(j.probs[None], s).q_pmi()[0][0]


@pytest.fixture(scope="module")
def titanic():
    return dataset_from_builtin("titanic").joint


@pytest.fixture(scope="module")
def sparse_case():
    # x = y = z with probability 1/2 each; the canonical sparse joint
    return decision_model_joint(DecisionParams(0, 1, 1, 1, 0))


class TestReconstructQCmi:
    def test_fig5_already_conditionally_independent(self):
        _, j = fig5_corpus()[0]
        assert np.allclose(q_cmi(j), j.probs, atol=1e-15)

    def test_independent_triple_unchanged(self, rng):
        px, py, pz = (rng.dirichlet(np.ones(2)) for _ in range(3))
        j = Joint3((AB, AB, AB), px[:, None, None] * py[None, :, None] * pz[None, None, :])
        assert np.allclose(q_cmi(j), j.probs, atol=1e-15)

    def test_titanic_marginals_preserved(self, titanic):
        q = q_cmi(titanic)
        assert np.allclose(q.sum(axis=1), titanic.probs.sum(axis=1), atol=1e-15)
        assert np.allclose(q.sum(axis=0), titanic.probs.sum(axis=0), atol=1e-15)

    def test_marginals_preserved_random(self, rng):
        for _ in range(20):
            j = random_joint(rng, (3, 2, 3), alpha=0.4)
            q = q_cmi(j)
            assert np.allclose(q.sum(axis=1), j.probs.sum(axis=1), atol=1e-14)
            assert np.allclose(q.sum(axis=0), j.probs.sum(axis=0), atol=1e-14)


class TestCmi:
    def test_fig5_zero(self):
        _, j = fig5_corpus()[0]
        assert cmi(j) == pytest.approx(0.0, abs=1e-12)

    def test_simple_model_lam1_zero(self):
        assert cmi(simple_model_joint(SimpleParams(0.3, 0.0))) == pytest.approx(0.0, abs=1e-12)

    def test_simple_model_full_direct_drive(self):
        assert cmi(simple_model_joint(SimpleParams(0.0, 1.0))) == pytest.approx(1.0, abs=1e-12)

    def test_kl_form_agrees_with_entropy_form(self, rng):
        for _ in range(50):
            j = random_joint(rng, (2, 3, 2))
            assert cmi(j) == pytest.approx(_kl_rows(j.probs[None], q_cmi(j)[None])[0], abs=1e-10)


class TestRcmi:
    def test_titanic(self, titanic):
        assert rcmi(titanic) == pytest.approx(0.160, abs=2e-3)

    def test_berkeley(self):
        assert rcmi(dataset_from_builtin("berkeley").joint) == pytest.approx(0.030, abs=2e-3)

    def test_conditional_independence_gives_zero(self, rng):
        for _ in range(20):
            j = cond_indep_joint(rng, (3, 2, 2))
            assert rcmi(j) <= 1e-10

    def test_zero_iff_cmi_zero(self, rng):
        for _ in range(20):
            j = random_joint(rng, (2, 2, 2))
            assert (rcmi(j) <= 1e-8) == (cmi(j) <= 1e-12)


class TestReconstructQPmi:
    def test_full_support_strategy_independent(self, rng):
        j = random_joint(rng, (2, 2, 2), alpha=3.0)
        qa = q_pmi(j, "a")
        qb = q_pmi(j, "b")
        qc = q_pmi(j, "c")
        assert np.allclose(qa, qb, atol=1e-15) and np.allclose(qb, qc, atol=1e-15)

    def test_fig5_strategy_c_equals_cmi_reconstruction(self):
        _, j = fig5_corpus()[0]
        assert np.allclose(
            q_pmi(j, "c"), q_cmi(j), atol=1e-15
        )

    def test_stratum_mass_renormalized(self, rng):
        j = random_joint(rng, (3, 2, 2), alpha=0.3)
        q = q_pmi(j, "b")
        pz = j.probs.sum(axis=(0, 1))
        assert np.allclose(q.sum(axis=(0, 1)), pz, atol=1e-12)


class TestPmi:
    def test_sparse_case_strategies_ab(self, sparse_case):
        expected = math.log2(16.0 / 9.0)
        assert pmi(sparse_case, "a") == pytest.approx(expected, abs=1e-9)
        assert pmi(sparse_case, "b") == pytest.approx(expected, abs=1e-9)
        assert pmi(sparse_case, "b") == pytest.approx(0.83, abs=1e-2)

    def test_sparse_case_strategy_c_zero(self, sparse_case):
        assert pmi(sparse_case, "c") == 0.0

    def test_conditional_independence_full_support(self, rng):
        j = cond_indep_joint(rng, (2, 2, 2))
        assert pmi(j, "b") == pytest.approx(0.0, abs=1e-9)


class TestRpmi:
    def test_titanic(self, titanic):
        assert rpmi(titanic, "b") == pytest.approx(0.195, abs=2e-3)

    def test_berkeley(self):
        assert rpmi(dataset_from_builtin("berkeley").joint, "b") == pytest.approx(0.042, abs=2e-3)

    def test_conditional_independence_zero(self, rng):
        j = cond_indep_joint(rng, (2, 3, 2))
        assert rpmi(j, "b") == pytest.approx(0.0, abs=1e-7)

    def test_sparse_case_strategy_c_exact_zero(self, sparse_case):
        assert rpmi(sparse_case, "c") == 0.0


class TestIcmi:
    def test_fully_independent_zero(self, rng):
        px, py, pz = (rng.dirichlet(np.ones(2)) for _ in range(3))
        j = Joint3((AB, AB, AB), px[:, None, None] * py[None, :, None] * pz[None, None, :])
        assert icmi_oneway(j, "xy", "b") == pytest.approx(0.0, abs=1e-10)
        assert icmi_oneway(j, "yx", "b") == pytest.approx(0.0, abs=1e-10)

    def test_sparse_case_strategy_c_zero(self, sparse_case):
        assert icmi_oneway(sparse_case, "xy", "c") == 0.0
        assert icmi_oneway(sparse_case, "yx", "c") == 0.0

    def test_sparse_case_strategy_b_singular(self, sparse_case):
        assert icmi_oneway(sparse_case, "xy", "b") == math.inf

    def test_titanic_ricmi(self, titanic):
        r = ricmi(titanic, "b")
        assert r.xy == pytest.approx(0.159, abs=2e-3)
        assert r.yx == pytest.approx(0.221, abs=2e-3)
        assert r.two_way == pytest.approx(0.190, abs=2e-3)

    def test_berkeley_ricmi(self):
        r = ricmi(dataset_from_builtin("berkeley").joint, "b")
        assert r.xy == pytest.approx(0.053, abs=2e-3)
        assert r.yx == pytest.approx(0.037, abs=2e-3)
        assert r.two_way == pytest.approx(0.045, abs=2e-3)

    def test_direction_validation(self, titanic):
        with pytest.raises(ValueError):
            icmi_oneway(titanic, "zz")


class TestRemovalReport:
    """The removal-family values of one joint, read together."""

    def test_internal_consistency(self, titanic):
        r = {m: evaluate(titanic, m, "b") for m in REMOVAL_IDS}
        assert r["rcmi"] == pytest.approx(math.sqrt(r["cmi_js"]), abs=1e-15)
        assert r["ricmi_two"] == pytest.approx(0.5 * (r["ricmi_xy"] + r["ricmi_yx"]), abs=1e-15)
        masses = BatchContext(titanic.probs[None], "b").q_pmi()[1][0]
        assert np.all(np.abs(masses - 1.0) < 1e-9)

    def test_label_permutation_invariance(self, rng):
        j = random_joint(rng, (3, 2, 2))
        perm = rng.permutation(3)
        permuted = Joint3(j.alphabets, np.ascontiguousarray(j.probs[perm]))
        for m in ("cmi", "rcmi", "pmi", "rpmi", "ricmi_xy", "ricmi_yx"):
            assert evaluate(j, m, "b") == pytest.approx(evaluate(permuted, m, "b"), abs=1e-10)

    def test_rcmi_symmetric_in_x_and_y(self, rng):
        j = random_joint(rng, (3, 3, 2))
        swapped = Joint3(
            (j.alphabets[1], j.alphabets[0], j.alphabets[2]),
            np.ascontiguousarray(j.probs.transpose(1, 0, 2)),
        )
        assert rcmi(j) == pytest.approx(rcmi(swapped), abs=1e-12)
        assert cmi_js(j) == pytest.approx(cmi_js(swapped), abs=1e-12)
