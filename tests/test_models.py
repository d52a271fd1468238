from itertools import product

import numpy as np
import pytest

from directcorr.models import (
    DecisionParams,
    SimpleParams,
    decision_model_joint,
    fig5_corpus,
    simple_model_joint,
)
from directcorr.prob import Joint3
from directcorr.registry import cmi, do_conditional, evaluate, mi_do, mutual_information, nace


def five_var_oracle(q0, q1, q2, q3, q4):
    """Brute-force expansion of the full five-variable voting table."""

    def agree(s, a, b):
        return (1 + s) / 2 if a == b else (1 - s) / 2

    probs = np.zeros((2, 2, 2))
    for y, y1, y2, x, z in product((0, 1), repeat=5):
        pz = (1 + q0) / 2 if z == 0 else (1 - q0) / 2
        if y1 == y2:
            py = 1.0 if y == y1 else 0.0
        else:
            py = (1 + q4) / 2 if y == 0 else (1 - q4) / 2
        probs[x, y, z] += py * agree(q3, y1, x) * agree(q2, y2, z) * agree(q1, x, z) * pz
    return probs


class TestDecisionModel:
    def test_sparse_special_case(self):
        j = decision_model_joint(DecisionParams(0, 1, 1, 1, 0))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 0.5
        expected[1, 1, 1] = 0.5
        assert np.array_equal(j.probs, expected)

    def test_no_influences_means_mutual_independence(self):
        j = decision_model_joint(DecisionParams(0.3, 0, 0, 0, 0.6))
        x, y, z = j.alphabets
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)
        # MI of X and Z (and of Y and Z): the same joint with Z in the Y slot
        xzy = Joint3((x, z, y), j.probs.transpose(0, 2, 1))
        yzx = Joint3((y, z, x), j.probs.transpose(1, 2, 0))
        assert mutual_information(xzy) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(yzx) == pytest.approx(0.0, abs=1e-12)

    def test_against_independent_five_variable_expansion(self, rng):
        for _ in range(10):
            q = rng.uniform(-1, 1, 5)
            j = decision_model_joint(DecisionParams(*q))
            assert np.allclose(j.probs, five_var_oracle(*q), atol=1e-12)

    def test_generic_parameters_give_finite_measures(self):
        j = decision_model_joint(DecisionParams(0, 0.5, 0.3, 0.7, 0.2))
        assert np.allclose(five_var_oracle(0, 0.5, 0.3, 0.7, 0.2), j.probs, atol=1e-12)
        for m in ("rcmi", "nace", "race", "rmi_do", "pmi"):
            v = evaluate(j, m, "b")
            assert np.isfinite(v)

    def test_parameter_range_validation(self):
        with pytest.raises(ValueError):
            DecisionParams(0, 2.0, 0, 0, 0)


class TestSimpleModel:
    def test_entries_match_case_formula(self):
        for lam0 in np.linspace(-1, 1, 11):
            for lam1 in np.linspace(0, 1, 11):
                j = simple_model_joint(SimpleParams(lam0, lam1))
                for z in (0, 1):
                    assert j.probs[z, z, z] == pytest.approx((1 + lam0) / 4, abs=1e-15)
                    assert j.probs[z, 1 - z, z] == 0.0
                    assert j.probs[1 - z, 1 - z, z] == pytest.approx((1 - lam0) * lam1 / 4, abs=1e-15)
                    assert j.probs[1 - z, z, z] == pytest.approx((1 - lam0) * (1 - lam1) / 4, abs=1e-15)

    def test_full_direct_drive_saturates_nace(self):
        j = simple_model_joint(SimpleParams(0.0, 1.0))
        assert nace(do_conditional(j, "b")) == pytest.approx(1.0, abs=1e-12)

    def test_lam1_zero_is_conditionally_independent(self):
        j = simple_model_joint(SimpleParams(0.4, 0.0))
        assert cmi(j) == pytest.approx(0.0, abs=1e-12)
        assert nace(do_conditional(j, "b")) == pytest.approx(0.0, abs=1e-12)

    def test_lam0_one_collapses_to_twin_graph_joint(self):
        j = simple_model_joint(SimpleParams(1.0, 0.7))
        _, fig5 = fig5_corpus()[0]
        assert np.allclose(j.probs, fig5.probs, atol=1e-15)

    def test_parameter_range_validation(self):
        with pytest.raises(ValueError):
            SimpleParams(0.0, 1.5)
        with pytest.raises(ValueError):
            SimpleParams(-1.5, 0.5)


class TestFig5Corpus:
    def test_two_models_share_one_joint(self):
        corpus = fig5_corpus()
        assert len(corpus) == 2
        names = [name for name, _ in corpus]
        assert names[0] != names[1]
        assert np.array_equal(corpus[0][1].probs, corpus[1][1].probs)

    def test_cmi_zero(self):
        _, j = fig5_corpus()[0]
        assert cmi(j) == pytest.approx(0.0, abs=1e-15)

    def test_strategy_b_manufactures_nace_half(self):
        _, j = fig5_corpus()[0]
        assert nace(do_conditional(j, "b")) == pytest.approx(0.5, abs=1e-15)

    def test_strategy_c_gives_zero_direct_measures(self):
        _, j = fig5_corpus()[0]
        for m in ("rcmi", "pmi", "rpmi", "icmi_xy", "icmi_yx", "ricmi_two", "ace", "nace", "race", "rmi_do"):
            assert evaluate(j, m, "c") == 0.0
        assert mi_do(j, "c") == 0.0


class TestMonotonicity:
    GRID = np.linspace(0.0, 1.0, 21)
    MEASURES = ("rcmi", "ricmi_two", "nace", "race", "rmi_do")

    @pytest.mark.parametrize("lam0", [0.0, 0.5, 0.99])
    def test_simple_model_monotone_in_lam1(self, lam0):
        for m in self.MEASURES:
            vals = [
                evaluate(simple_model_joint(SimpleParams(lam0, float(l1))), m, "b")
                for l1 in self.GRID
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), (m, lam0)

    def test_decision_model_monotone_in_q3(self):
        # documented fixed set used throughout the repo
        fixed = dict(q0=0.0, q1=0.5, q2=0.3, q4=0.2)
        for m in self.MEASURES:
            vals = [
                evaluate(decision_model_joint(DecisionParams(q3=float(q3), **fixed)), m, "b")
                for q3 in self.GRID
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), m
