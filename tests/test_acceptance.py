"""Acceptance gate: one test (or parametrized cell group) per criterion.

Each criterion prints a PASS line when it completes, so running

    pytest tests/test_acceptance.py -v -s

gives one line per criterion cell.

Known-red cells: the achievable-bound reference values for rpmi (0.206
Titanic / 0.277 Berkeley) and ricmi_yx (0.326 / 0.343) are not reproduced
by this implementation; the bound enumeration implemented here (which
reproduces the other seven bound columns exactly and keeps every bound a
true upper bound of its measure) yields 0.2515/0.3142 and 0.3138/0.3168
for those cells.  The corresponding parametrized tests fail honestly
rather than loosening the stated +/-0.002 tolerance.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import oracle
from conftest import binary_joint, bounds_at_points, cond_indep_joint, data_file, random_joint
from directcorr.bounds import BOUND_MEASURES, achievable_bound, rmi_max_uniform
from directcorr.datasets import dataset_from_builtin, dataset_from_csv, load_schema
from directcorr.engine import BatchContext
from directcorr.errors import DegenerateVariable, SingularDenominator
from directcorr.models import decision_model_joint, simple_model_joint
from directcorr.prob import Alphabet, Joint3, _js_rows, _kl_rows
from directcorr.registry import ace, cmi, do_conditional, evaluate, mi_do, nace, race, rcmi
from directcorr.resampling import bootstrap_ci

pytestmark = pytest.mark.acceptance

POINT_TOL = 0.002

TITANIC_EXPECTED_VALUES = {
    "pcc": -0.339,
    "pc": -0.321,
    "rmi": 0.146,
    "rcmi": 0.160,
    "rpmi": 0.195,
    "ricmi_xy": 0.159,
    "ricmi_yx": 0.221,
    "ricmi_two": 0.190,
    "nace": 0.316,
    "race": 0.275,
    "rmi_do": 0.116,
}

TITANIC_EXPECTED_BOUNDS = {
    "rmi": 0.555,
    "rcmi": 0.246,
    "rpmi": 0.206,
    "ricmi_xy": 0.252,
    "ricmi_yx": 0.326,
    "ricmi_two": 0.269,
    "nace": 1.000,
    "race": 1.000,
    "rmi_do": 0.555,
}


@pytest.fixture(scope="module")
def titanic():
    return dataset_from_builtin("titanic")


@pytest.fixture(scope="module")
def berkeley():
    return dataset_from_builtin("berkeley")


@pytest.fixture(scope="module")
def titanic_bounds(titanic):
    return bounds_at_points(titanic.joint)


# -- criterion 1: Titanic reproduction ---------------------------------------


def test_c1_titanic_values_and_runtime(titanic):
    start = time.time()
    for measure, expected in TITANIC_EXPECTED_VALUES.items():
        got = evaluate(titanic.joint, measure, "b", titanic.encoding)
        assert got == pytest.approx(expected, abs=POINT_TOL), measure
    bounds_at_points(titanic.joint)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"[criterion 1] PASS values: all 11 Titanic measures within +/-0.002 in {elapsed:.2f}s")


@pytest.mark.parametrize("measure", list(TITANIC_EXPECTED_BOUNDS))
def test_c1_titanic_bounds(titanic_bounds, measure):
    expected = TITANIC_EXPECTED_BOUNDS[measure]
    got = titanic_bounds[measure].max_value
    assert got == pytest.approx(expected, abs=POINT_TOL), measure
    print(f"[criterion 1] PASS bound {measure}: {got:.4f} vs {expected}")


# -- criterion 2: Adult reproduction ------------------------------------------


def test_c2_adult_reproduction():
    path = data_file("adult.data")
    if path is None:
        pytest.skip(
            "adult.data not present (no network in the build environment); "
            "run scripts/fetch_data.py and re-run to exercise this criterion"
        )
    start = time.time()
    ds, report = dataset_from_csv(path, load_schema("adult"))
    assert report.table.n == 32561
    edu = report.table.counts().sum(axis=(1, 2)) / report.table.n
    for got, want in zip(edu, (0.132, 0.540, 0.244, 0.084)):
        assert got == pytest.approx(want, abs=0.01)
    for measure, expected in (("rcmi", 0.149), ("nace", 0.544), ("race", 0.521), ("rmi_do", 0.144)):
        assert evaluate(ds.joint, measure, "b", ds.encoding) == pytest.approx(expected, abs=POINT_TOL)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"[criterion 2] PASS: Adult measures and marginals reproduced in {elapsed:.2f}s")


# -- criterion 3: Berkeley reproduction ----------------------------------------


def test_c3_berkeley_reproduction(berkeley):
    rmi_v = evaluate(berkeley.joint, "rmi", "b")
    rcmi_v = evaluate(berkeley.joint, "rcmi", "b")
    rmi_do_v = evaluate(berkeley.joint, "rmi_do", "b")
    assert rmi_v == pytest.approx(0.061, abs=POINT_TOL)
    assert rcmi_v == pytest.approx(0.030, abs=POINT_TOL)
    assert rmi_do_v == pytest.approx(0.018, abs=POINT_TOL)
    bound = achievable_bound(berkeley.joint, "rcmi").max_value
    ratio = rcmi_v / bound
    assert abs(ratio - 0.030 / 0.222) <= 0.01
    print(f"[criterion 3] PASS: Berkeley rmi/rcmi/rmi_do reproduced; rcmi/bound = {ratio:.1%} (~14%)")


# -- criterion 4: bootstrap confidence intervals -------------------------------


def test_c4_bootstrap_cis(titanic, berkeley):
    r1 = bootstrap_ci(titanic.observations, "rcmi", 1000, seed=20260419)
    assert r1.lower == pytest.approx(0.129, abs=0.02)
    assert r1.upper == pytest.approx(0.186, abs=0.02)
    r2 = bootstrap_ci(berkeley.observations, "rmi_do", 1000, seed=20260419)
    assert r2.lower == pytest.approx(0.003, abs=0.02)
    assert r2.upper == pytest.approx(0.033, abs=0.02)
    again = bootstrap_ci(titanic.observations, "rcmi", 1000, seed=20260419)
    assert again == r1
    print(
        "[criterion 4] PASS: Titanic rcmi CI "
        f"[{r1.lower:.3f},{r1.upper:.3f}], Berkeley rmi_do CI [{r2.lower:.3f},{r2.upper:.3f}], repeat bit-identical"
    )


# -- criterion 5: closed-form bound --------------------------------------------


def test_c5_closed_form_bound():
    assert rmi_max_uniform(2) == pytest.approx(0.558, abs=0.001)
    assert rmi_max_uniform(4) == pytest.approx(0.741, abs=0.001)
    assert rmi_max_uniform(16) == pytest.approx(0.910, abs=0.001)
    for k in (2, 3, 4):
        probs = np.zeros((k, k, 1))
        for i in range(k):
            probs[i, i, 0] = 1.0 / k
        j = Joint3((Alphabet.of_size(k), Alphabet.of_size(k), Alphabet.of_size(1)), probs)
        enumerated = achievable_bound(j, "rmi").max_value
        assert enumerated == pytest.approx(rmi_max_uniform(k), abs=1e-9)
    print("[criterion 5] PASS: closed-form maxima 0.558/0.741/0.910 and enumeration cross-check at 1e-9")


# -- criterion 6: the sparse special case ---------------------------------------


def test_c6_sparse_special_case():
    j = binary_joint(decision_model_joint(0, 1, 1, 1, 0))
    assert cmi(j) == pytest.approx(0.0, abs=1e-12)
    for s in ("a", "b"):
        assert evaluate(j, "pmi", s) == pytest.approx(0.83, abs=0.01)
        dc = do_conditional(j, s)
        assert nace(dc) == 0.5
        assert ace(dc) == 0.5
        assert race(dc) == pytest.approx(0.43, abs=0.01)
        assert mi_do(j, s) == pytest.approx(0.75 * math.log2(3.0) - 1.0, abs=1e-9)
    direct = (
        "cmi", "cmi_js", "rcmi", "pmi", "rpmi", "icmi_xy", "icmi_yx",
        "ricmi_xy", "ricmi_yx", "ricmi_two", "ace", "nace", "ace_kl", "race", "mi_do", "rmi_do",
    )
    for m in direct:
        assert evaluate(j, m, "c") == 0.0, m
    print("[criterion 6] PASS: sparse case gives 0.83/0.50/0.43/(3/4)log2(3)-1 under a,b and exact zeros under c")


# -- criterion 7: property suite -------------------------------------------------


def test_c7_sqrt_js_metric_axioms():
    def sqrt_js(a, b):
        return math.sqrt(_js_rows(a[None], b[None])[0])

    rng = np.random.default_rng(701)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        p, q, r = (rng.dirichlet(np.ones(k) * 0.7) for _ in range(3))
        assert sqrt_js(p, q) == sqrt_js(q, p)
        assert sqrt_js(p, r) <= sqrt_js(p, q) + sqrt_js(q, r) + 1e-10
        assert 0.0 <= _js_rows(p[None], q[None])[0] <= 1.0
    print("[criterion 7a] PASS: sqrt-JS metric axioms on 1000 random triples")


def test_c7_cmi_two_forms_agree():
    rng = np.random.default_rng(702)
    for _ in range(1000):
        shape = tuple(int(v) for v in rng.integers(2, 4, 3))
        j = random_joint(rng, shape, alpha=0.8)
        kl_form = _kl_rows(j.probs[None], BatchContext(j.probs[None]).q_cmi())[0]
        assert abs(cmi(j) - kl_form) <= 1e-10
    print("[criterion 7b] PASS: CMI entropy form vs KL form at 1e-10 on 1000 random joints")


def test_c7_conditional_independence_rcmi_zero():
    rng = np.random.default_rng(703)
    for _ in range(300):
        shape = tuple(int(v) for v in rng.integers(2, 4, 3))
        j = cond_indep_joint(rng, shape)
        assert rcmi(j) <= 1e-10
    print("[criterion 7c] PASS: conditionally independent joints give rcmi <= 1e-10")


def test_c7_every_measure_below_enumerated_bound():
    rng = np.random.default_rng(704)
    for _ in range(100):
        shape = tuple(int(v) for v in rng.integers(2, 4, 3))
        j = random_joint(rng, shape)
        bounds = bounds_at_points(j)
        for m in BOUND_MEASURES:
            assert evaluate(j, m, "b") <= bounds[m].max_value + 1e-9, (m, shape)
    # Tables with about 30% of their (x,y,z) cells empty, where a coupling
    # scored on its own support can fall below the observed value.
    rng = np.random.default_rng(705)
    for _ in range(40):
        shape = tuple(int(v) for v in rng.integers(2, 4, 3))
        counts = rng.integers(1, 20, size=shape) * (rng.random(shape) < 0.7)
        if not counts.any():
            continue
        j = Joint3(tuple(Alphabet.of_size(d) for d in shape), counts / counts.sum())
        for s in "abc":
            for m in BOUND_MEASURES:
                assert evaluate(j, m, s) <= achievable_bound(j, m, s).max_value, (m, s, shape)
    print("[criterion 7d] PASS: every measure below its enumerated bound on 100 full and 40 sparse random joints")


# -- criterion 8: monotone sweeps -------------------------------------------------


def test_c8_monotone_sweeps():
    grid = np.linspace(0.0, 1.0, 21)
    measures = ("rcmi", "ricmi_two", "nace", "race", "rmi_do")
    for lam0 in (0.0, 0.5, 0.99):
        for m in measures:
            vals = [
                evaluate(binary_joint(simple_model_joint(lam0, float(v))), m, "b") for v in grid
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), (m, lam0)
    fixed = dict(q0=0.0, q1=0.5, q2=0.3, q4=0.2)  # documented fixed-parameter set
    for m in measures:
        vals = [
            evaluate(binary_joint(decision_model_joint(q3=float(v), **fixed)), m, "b")
            for v in grid
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), m
    print("[criterion 8] PASS: sweeps monotone non-decreasing for both models on 21-point grids")


# -- criterion 9: brute-force oracle equivalence ----------------------------------


def _grid_counts(total, cells):
    for bars in combinations(range(total + cells - 1), cells - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + cells - 2 - prev)
        yield out


def test_c9_grid_oracle_equivalence():
    ab = Alphabet((0, 1))
    n_joints = 0
    for counts in _grid_counts(8, 8):
        arr = np.array(counts, dtype=float).reshape(2, 2, 2) / 8.0
        j = Joint3((ab, ab, ab), arr)
        frac = [
            [[Fraction(counts[(x * 2 + y) * 2 + z], 8) for z in range(2)] for y in range(2)]
            for x in range(2)
        ]
        expected = oracle.all_measures(frac, "b")
        for m, want in expected.items():
            try:
                got = evaluate(j, m, "b")
            except (DegenerateVariable, SingularDenominator):
                assert want is None, (m, counts)
                continue
            assert want is not None, (m, counts)
            if math.isinf(want) or math.isinf(got):
                assert math.isinf(want) and math.isinf(got), (m, counts)
                continue
            assert abs(got - want) <= 1e-10, (m, counts, got, want)
        n_joints += 1
    assert n_joints == 6435
    print(f"[criterion 9] PASS: independent oracle agrees on every measure for all {n_joints} grid joints")
