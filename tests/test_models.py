import math
from itertools import product

import numpy as np
import pytest

from conftest import binary_joint
from directcorr.models import RANGES, decision_model_joint, fig5_corpus, simple_model_joint
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
        j = binary_joint(decision_model_joint(0, 1, 1, 1, 0))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 0.5
        expected[1, 1, 1] = 0.5
        assert np.array_equal(j.probs, expected)

    def test_no_influences_means_mutual_independence(self):
        j = binary_joint(decision_model_joint(0.3, 0, 0, 0, 0.6))
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
            j = binary_joint(decision_model_joint(*q))
            assert np.allclose(j.probs, five_var_oracle(*q), atol=1e-12)

    def test_generic_parameters_give_finite_measures(self):
        j = binary_joint(decision_model_joint(0, 0.5, 0.3, 0.7, 0.2))
        assert np.allclose(five_var_oracle(0, 0.5, 0.3, 0.7, 0.2), j.probs, atol=1e-12)
        for m in ("rcmi", "nace", "race", "rmi_do", "pmi"):
            v = evaluate(j, m, "b")
            assert np.isfinite(v)

    def test_parameter_range_validation(self):
        with pytest.raises(ValueError):
            decision_model_joint(0, 2.0, 0, 0, 0)


class TestSimpleModel:
    def test_entries_match_case_formula(self):
        for lam0 in np.linspace(-1, 1, 11):
            for lam1 in np.linspace(0, 1, 11):
                j = binary_joint(simple_model_joint(lam0, lam1))
                for z in (0, 1):
                    assert j.probs[z, z, z] == pytest.approx((1 + lam0) / 4, abs=1e-15)
                    assert j.probs[z, 1 - z, z] == 0.0
                    assert j.probs[1 - z, 1 - z, z] == pytest.approx((1 - lam0) * lam1 / 4, abs=1e-15)
                    assert j.probs[1 - z, z, z] == pytest.approx((1 - lam0) * (1 - lam1) / 4, abs=1e-15)

    def test_full_direct_drive_saturates_nace(self):
        j = binary_joint(simple_model_joint(0.0, 1.0))
        assert nace(do_conditional(j, "b")) == pytest.approx(1.0, abs=1e-12)

    def test_lam1_zero_is_conditionally_independent(self):
        j = binary_joint(simple_model_joint(0.4, 0.0))
        assert cmi(j) == pytest.approx(0.0, abs=1e-12)
        assert nace(do_conditional(j, "b")) == pytest.approx(0.0, abs=1e-12)

    def test_lam0_one_collapses_to_twin_graph_joint(self):
        j = binary_joint(simple_model_joint(1.0, 0.7))
        _, fig5 = fig5_corpus()[0]
        assert np.allclose(j.probs, fig5.probs, atol=1e-15)

    def test_parameter_range_validation(self):
        with pytest.raises(ValueError):
            simple_model_joint(0.0, 1.5)
        with pytest.raises(ValueError):
            simple_model_joint(-1.5, 0.5)


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
                evaluate(binary_joint(simple_model_joint(lam0, float(l1))), m, "b")
                for l1 in self.GRID
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), (m, lam0)

    def test_decision_model_monotone_in_q3(self):
        # documented fixed set used throughout the repo
        fixed = dict(q0=0.0, q1=0.5, q2=0.3, q4=0.2)
        for m in self.MEASURES:
            vals = [
                evaluate(binary_joint(decision_model_joint(q3=float(q3), **fixed)), m, "b")
                for q3 in self.GRID
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), m


# -- the per-point builders the array functions replaced, kept as their reference --

REFERENCE_RANGES = {
    "simple": (("lam0", -1.0, 1.0), ("lam1", 0.0, 1.0)),
    "decision": tuple((f"q{i}", -1.0, 1.0) for i in range(5)),
}


def reference_check(model, values):
    """One point's parameters checked one at a time in field order, as the frozen params types did."""
    checked = []
    for (name, lo, hi), value in zip(REFERENCE_RANGES[model], values):
        value = float(value)
        if not lo <= value <= hi:
            raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
        checked.append(value)
    return checked


def reference_agree(strength, a, b):
    return (1.0 + strength) / 2.0 if a == b else (1.0 - strength) / 2.0


def reference_decision(*q):
    q0, q1, q2, q3, q4 = reference_check("decision", q)
    probs = np.zeros((2, 2, 2))
    for z in (0, 1):
        pz = (1.0 + q0) / 2.0 if z == 0 else (1.0 - q0) / 2.0
        for x in (0, 1):
            pxz = reference_agree(q1, x, z)
            for y in (0, 1):
                acc = 0.0
                for y1 in (0, 1):
                    py1 = reference_agree(q3, y1, x)
                    for y2 in (0, 1):
                        py2 = reference_agree(q2, y2, z)
                        if y1 == y2:
                            pya = 1.0 if y == y1 else 0.0
                        else:
                            pya = (1.0 + q4) / 2.0 if y == 0 else (1.0 - q4) / 2.0
                        acc += pya * py1 * py2
                probs[x, y, z] = acc * pxz * pz
    return probs


def reference_simple(*lam):
    lam0, lam1 = reference_check("simple", lam)
    probs = np.zeros((2, 2, 2))
    for z in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                if x == z and y == z:
                    probs[x, y, z] = (1.0 + lam0) / 4.0
                elif x == z:
                    probs[x, y, z] = 0.0
                elif y == 1 - z:
                    probs[x, y, z] = (1.0 - lam0) * lam1 / 4.0
                else:
                    probs[x, y, z] = (1.0 - lam0) * (1.0 - lam1) / 4.0
    return probs


MODELS = {"simple": (simple_model_joint, reference_simple), "decision": (decision_model_joint, reference_decision)}


def range_ends_and_random(model, n_random=2500):
    """Every combination of each parameter's range ends and midpoint, then seeded random points: (points, k)."""
    ranges = REFERENCE_RANGES[model]
    ends = np.array(list(product(*({lo, (lo + hi) / 2, hi} for _, lo, hi in ranges))))
    rng = np.random.default_rng(20260419)
    lows, highs = (np.array([r[i] for r in ranges]) for i in (1, 2))
    return np.concatenate([ends, rng.uniform(lows, highs, size=(n_random, len(ranges)))])


class TestArrayModels:
    @pytest.mark.parametrize("model", MODELS)
    def test_bit_identical_to_per_point_builder(self, model):
        joint_of, reference = MODELS[model]
        points = range_ends_and_random(model)
        expected = [reference(*p).tobytes() for p in points.tolist()]
        stack = joint_of(*points.T)
        assert stack.shape == (len(points), 2, 2, 2)
        assert [row.tobytes() for row in stack] == expected
        assert [joint_of(*p).tobytes() for p in points.tolist()] == expected

    def test_broadcast_grid_is_the_outer_product(self):
        lam0, lam1 = np.linspace(-1, 1, 5), np.linspace(0, 1, 7)
        stack = simple_model_joint(lam0[:, None], lam1)
        assert stack.shape == (5, 7, 2, 2, 2)
        for i, j in product(range(5), range(7)):
            assert stack[i, j].tobytes() == reference_simple(lam0[i], lam1[j]).tobytes()
        q3 = np.linspace(-1, 1, 9)
        stack = decision_model_joint(0.0, 0.5, 0.3, q3, 0.2)
        assert [row.tobytes() for row in stack] == [reference_decision(0.0, 0.5, 0.3, v, 0.2).tobytes() for v in q3]

    def test_ranges_in_field_order(self):
        assert {m: tuple((n, *r) for n, r in ranges.items()) for m, ranges in RANGES.items()} == REFERENCE_RANGES


def reference_error(model, params):
    """The message the per-point check raises first, walking the broadcast grid point by point in C order."""
    arrays = np.broadcast_arrays(*(np.asarray(params[name], dtype=float) for name, _, _ in REFERENCE_RANGES[model]))
    for point in np.ndindex(arrays[0].shape):
        try:
            reference_check(model, [a[point] for a in arrays])
        except ValueError as exc:
            return str(exc)
    return None


class TestRangeErrors:
    @pytest.mark.parametrize("model, params, message", [
        # scalar calls, and NaN, which is in no range
        ("simple", {"lam0": 0.0, "lam1": 1.5}, "lam1 must be in [0.0, 1.0], got 1.5"),
        ("simple", {"lam0": -1.5, "lam1": 0.5}, "lam0 must be in [-1.0, 1.0], got -1.5"),
        ("simple", {"lam0": 2, "lam1": 5}, "lam0 must be in [-1.0, 1.0], got 2.0"),
        ("simple", {"lam0": math.nan, "lam1": 0.5}, "lam0 must be in [-1.0, 1.0], got nan"),
        ("simple", {"lam0": 0.5, "lam1": -math.inf}, "lam1 must be in [0.0, 1.0], got -inf"),
        ("decision", {"q0": 0, "q1": 2.0, "q2": 0, "q3": 0, "q4": 0}, "q1 must be in [-1.0, 1.0], got 2.0"),
        # the first point wins over the first parameter
        ("simple", {"lam0": [0.5, 2.0], "lam1": [1.5, 0.5]}, "lam1 must be in [0.0, 1.0], got 1.5"),
        ("decision", {"q0": np.linspace(0, 2, 21), "q1": 0.5, "q2": 0.3, "q3": 5, "q4": 0.2},
         "q3 must be in [-1.0, 1.0], got 5.0"),
        ("simple", {"lam0": 0.5, "lam1": [0.2, math.nan, 2.0]}, "lam1 must be in [0.0, 1.0], got nan"),
        # a broadcast grid is walked in C order: lam1 leaves its range in the first row
        ("simple", {"lam0": [[0.0], [3.0]], "lam1": [0.5, 2.0]}, "lam1 must be in [0.0, 1.0], got 2.0"),
        ("decision", {"q0": [[0.1], [0.2]], "q1": [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]], "q2": 0, "q3": [0, 0, -7],
                      "q4": 0}, "q3 must be in [-1.0, 1.0], got -7.0"),
    ], ids=["scalar-lam1", "scalar-lam0", "scalar-both", "scalar-nan", "scalar-inf", "scalar-decision",
            "first-point-wins", "decision-grid", "array-nan", "broadcast-simple", "broadcast-decision"])
    def test_first_point_then_first_parameter(self, model, params, message):
        assert reference_error(model, params) == message
        with pytest.raises(ValueError) as caught:
            MODELS[model][0](**params)
        assert str(caught.value) == message

    @pytest.mark.parametrize("model", MODELS)
    def test_random_grids_raise_as_the_per_point_check(self, model):
        rng = np.random.default_rng(7)
        names = [name for name, _, _ in REFERENCE_RANGES[model]]
        for _ in range(200):
            shape = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            params = {}
            for name in names:
                values = rng.uniform(-1.3, 1.3, size=shape if rng.random() < 0.6 else ())
                params[name] = np.where(rng.random(values.shape) < 0.05, np.nan, values)
            message = reference_error(model, params)
            if message is None:
                grid = np.broadcast_shapes(*(np.shape(v) for v in params.values()))
                assert MODELS[model][0](**params).shape == (*grid, 2, 2, 2)
                continue
            with pytest.raises(ValueError) as caught:
                MODELS[model][0](**params)
            assert str(caught.value) == message
