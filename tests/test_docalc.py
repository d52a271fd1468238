import math

import numpy as np
import pytest

from directcorr.datasets import dataset_from_builtin
from directcorr.errors import SingleCategory
from directcorr.models import DecisionParams, SimpleParams, decision_model_joint, fig5_corpus, simple_model_joint
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import (
    DoConditional,
    ace,
    ace_kl,
    argmax_pair,
    do_conditional,
    do_joint,
    mi_do,
    nace,
    race,
    rmi_do,
)

from conftest import random_joint

AB = Alphabet((0, 1))


@pytest.fixture(scope="module")
def titanic():
    return dataset_from_builtin("titanic").joint


@pytest.fixture(scope="module")
def sparse_case():
    return decision_model_joint(DecisionParams(0, 1, 1, 1, 0))


def rows_of(*pairs):
    dc_rows = np.asarray(pairs, dtype=float)
    from directcorr.sparse import SparseStrategy

    return DoConditional(rows=dc_rows, strategy=SparseStrategy.MARGINAL, fill_count=0)


class TestDoConditional:
    def test_titanic_intervened_survival(self, titanic):
        dc = do_conditional(titanic, "b")
        assert dc.rows[0, 1] == pytest.approx(0.58, abs=5e-3)
        assert dc.rows[2, 1] == pytest.approx(0.26, abs=5e-3)

    def test_rows_sum_to_one(self, rng):
        for s in "abc":
            j = random_joint(rng, (3, 2, 2), alpha=0.3)
            dc = do_conditional(j, s)
            assert np.allclose(dc.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_x_independent_of_z_full_support(self, rng):
        px = rng.dirichlet(np.ones(2))
        ygxz = rng.dirichlet(np.ones(2), size=(2, 2))  # p(y|x,z)
        pz = rng.dirichlet(np.ones(2))
        probs = px[:, None, None] * ygxz.transpose(0, 2, 1) * pz[None, None, :]
        j = Joint3((AB, AB, AB), probs)
        dc = do_conditional(j, "b")
        pxy = j.probs.sum(axis=2)
        pygx = pxy / pxy.sum(axis=1)[:, None]
        assert np.allclose(dc.rows, pygx, atol=1e-12)

    def test_fig5_strategy_c_rows_identical(self):
        _, j = fig5_corpus()[0]
        dc = do_conditional(j, "c")
        assert np.allclose(dc.rows[0], dc.rows[1], atol=1e-15)
        assert nace(dc) == pytest.approx(0.0, abs=1e-15)

    def test_fill_count(self):
        _, j = fig5_corpus()[0]
        assert do_conditional(j, "b").fill_count == 2
        assert do_conditional(Joint3((AB, AB, AB), np.full((2, 2, 2), 0.125)), "b").fill_count == 0

    def test_strategies_agree_on_full_support(self, rng):
        j = random_joint(rng, (2, 3, 2), alpha=4.0)
        rows = [do_conditional(j, s).rows for s in "abc"]
        assert np.allclose(rows[0], rows[1], atol=1e-15)
        assert np.allclose(rows[1], rows[2], atol=1e-15)


class TestPairwiseMeasures:
    def test_identical_rows_all_zero(self):
        dc = rows_of((0.3, 0.7), (0.3, 0.7))
        assert ace(dc) == 0.0
        assert nace(dc) == 0.0
        assert ace_kl(dc) == 0.0
        assert race(dc) == 0.0

    def test_sparse_case_strategy_ab(self, sparse_case):
        for s in "ab":
            dc = do_conditional(sparse_case, s)
            assert ace(dc) == pytest.approx(0.5, abs=1e-15)
            assert nace(dc) == pytest.approx(0.5, abs=1e-15)
            assert race(dc) == pytest.approx(0.43, abs=1e-2)

    def test_disjoint_rows(self):
        dc = rows_of((1.0, 0.0), (0.0, 1.0))
        assert ace(dc) == 1.0
        assert nace(dc) == 1.0
        assert ace_kl(dc) == math.inf
        assert race(dc) == pytest.approx(1.0, abs=1e-12)

    def test_ace_kl_directional_value_and_pair_max(self):
        from directcorr.prob import _kl_rows

        # the one-way divergence is 1 bit; the pairwise max reports the
        # singular reverse direction as +infinity
        assert _kl_rows(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0, abs=1e-12)
        dc = rows_of((1.0, 0.0), (0.5, 0.5))
        assert ace_kl(dc) == math.inf

    def test_ace_kl_finite_on_overlapping_rows(self):
        dc = rows_of((0.8, 0.2), (0.4, 0.6))
        assert math.isfinite(ace_kl(dc))
        assert ace_kl(dc) > 0

    def test_titanic_values(self, titanic):
        dc = do_conditional(titanic, "b")
        assert nace(dc) == pytest.approx(0.316, abs=2e-3)
        assert race(dc) == pytest.approx(0.275, abs=2e-3)

    def test_single_category_rejected(self):
        from directcorr.sparse import SparseStrategy

        dc = DoConditional(rows=np.array([[0.5, 0.5]]), strategy=SparseStrategy.MARGINAL, fill_count=0)
        for fn in (ace, nace, ace_kl, race):
            with pytest.raises(SingleCategory):
                fn(dc)

    def test_argmax_pair_reporting(self, titanic):
        dc = do_conditional(titanic, "b")
        assert argmax_pair(dc, "nace") == (0, 2)

    def test_tied_pairs_report_the_first(self):
        # with a two-outcome Y, ace(x, x') = ace(x', x) exactly, but the
        # computed pair differs by rounding; the first pair wins the tie
        dc = do_conditional(dataset_from_builtin("berkeley").joint, "b")
        for m in ("ace", "nace", "race"):
            assert argmax_pair(dc, m) == (0, 1), m
        assert argmax_pair(rows_of((1.0, 0.0), (0.0, 1.0)), "ace_kl") == (0, 1)  # ties at +inf

    def test_nace_zero_iff_race_zero(self, rng):
        for _ in range(20):
            j = random_joint(rng, (3, 2, 2), alpha=0.5)
            dc = do_conditional(j, "b")
            assert (nace(dc) <= 1e-12) == (race(dc) <= 1e-8)


class TestDoJoint:
    def test_p_do_x_is_observational(self, rng):
        j = random_joint(rng, (3, 2, 2), alpha=0.4)
        pdo = do_joint(j, "b")
        assert pdo.shape == (3, 2) and not pdo.flags.writeable
        assert np.allclose(pdo.sum(axis=1), j.probs.sum(axis=(1, 2)), atol=1e-12)

    def test_x_independent_of_z_recovers_pxy(self, rng):
        pxz_indep = np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
        ygxz = rng.dirichlet(np.ones(2), size=(2, 2)).transpose(0, 2, 1)
        probs = pxz_indep[:, None, :] * ygxz
        j = Joint3((AB, AB, AB), probs)
        assert np.allclose(do_joint(j, "b"), j.probs.sum(axis=2), atol=1e-12)

    def test_simple_model_full_drive(self):
        pdo = do_joint(simple_model_joint(SimpleParams(0.0, 1.0)), "b")
        assert np.allclose(pdo, np.eye(2) * 0.5, atol=1e-15)


class TestMiDo:
    def test_sparse_case_closed_form(self, sparse_case):
        expected = 0.75 * math.log2(3.0) - 1.0
        for s in "ab":
            assert mi_do(sparse_case, s) == pytest.approx(expected, abs=1e-9)

    def test_sparse_case_strategy_c_zero(self, sparse_case):
        assert mi_do(sparse_case, "c") == 0.0

    def test_independent_do_joint(self, rng):
        j = Joint3(
            (AB, AB, AB),
            np.einsum(
                "x,y,z->xyz",
                rng.dirichlet(np.ones(2)),
                rng.dirichlet(np.ones(2)),
                rng.dirichlet(np.ones(2)),
            ),
        )
        assert mi_do(j, "b") == pytest.approx(0.0, abs=1e-10)


class TestRmiDo:
    def test_titanic(self, titanic):
        assert rmi_do(titanic, "b") == pytest.approx(0.116, abs=2e-3)

    def test_half_delta_binary(self):
        from directcorr.bounds import rmi_max_uniform

        j = simple_model_joint(SimpleParams(0.0, 1.0))
        assert rmi_do(j, "b") == pytest.approx(rmi_max_uniform(2), abs=1e-12)
        assert rmi_do(j, "b") == pytest.approx(0.558, abs=1e-3)

    def test_independent_zero(self, rng):
        j = Joint3(
            (AB, AB, AB),
            np.einsum(
                "x,y,z->xyz",
                rng.dirichlet(np.ones(2)),
                rng.dirichlet(np.ones(2)),
                rng.dirichlet(np.ones(2)),
            ),
        )
        assert rmi_do(j, "b") == pytest.approx(0.0, abs=1e-7)
