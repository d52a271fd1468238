"""Cross-module property tests on randomly generated joints."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from directcorr.engine import BatchContext
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import MEASURES, do_conditional, do_joint, evaluate
from directcorr.sparse import SparseStrategy

from conftest import cond_indep_joint, random_joint

joint_strategy = st.tuples(
    st.integers(2, 3), st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**32 - 1)
).map(
    lambda t: random_joint(np.random.default_rng(t[3]), (t[0], t[1], t[2]), alpha=0.5)
)


@given(j=joint_strategy)
@settings(max_examples=80, deadline=None)
def test_every_measure_in_documented_range(j):
    for m, spec in MEASURES.items():
        try:
            v = evaluate(j, m, "b")
        except Exception:
            continue  # degenerate linear measures may legitimately refuse
        if math.isinf(v):
            assert spec.hi == math.inf
        else:
            assert spec.lo - 1e-9 <= v <= spec.hi + 1e-9, (m, v)


@given(j=joint_strategy, s=st.sampled_from(["a", "b", "c"]))
@settings(max_examples=60, deadline=None)
def test_filled_conditionals_are_distributions(j, s):
    # the joint as drawn, and a copy with its smaller cells emptied so
    # that every fill rule is exercised
    sparse = np.where(j.probs < np.median(j.probs), 0.0, j.probs)
    for probs in (j.probs, sparse / sparse.sum()):
        ctx = BatchContext(probs[None], s)
        for table, target_axis in ((ctx.ycond, 2), (ctx.xcond, 1)):
            assert np.all(table >= -1e-15)
            assert np.allclose(table.sum(axis=target_axis), 1.0, atol=1e-9)


@given(j=joint_strategy)
@settings(max_examples=60, deadline=None)
def test_cmi_reconstruction_preserves_pair_marginals(j):
    q = BatchContext(j.probs[None]).q_cmi()[0]
    assert np.allclose(q.sum(axis=1), j.probs.sum(axis=1), atol=1e-13)
    assert np.allclose(q.sum(axis=0), j.probs.sum(axis=0), atol=1e-13)


@given(j=joint_strategy, s=st.sampled_from(["a", "b", "c"]))
@settings(max_examples=40, deadline=None)
def test_pmi_reconstruction_normalized_per_stratum(j, s):
    q = BatchContext(j.probs[None], s).q_pmi()[0]
    pz = j.probs.sum(axis=(0, 1))
    assert np.allclose(q.sum(axis=(0, 1)), pz, atol=1e-11)


@given(j=joint_strategy, s=st.sampled_from(["a", "b", "c"]))
@settings(max_examples=60, deadline=None)
def test_do_rows_are_distributions_and_fill_count_matches(j, s):
    dc = do_conditional(j, SparseStrategy.parse(s))
    assert np.allclose(dc.rows.sum(axis=1), 1.0, atol=1e-12)
    assert dc.fill_count == int(np.count_nonzero(j.probs.sum(axis=1) == 0))


@given(j=joint_strategy)
@settings(max_examples=60, deadline=None)
def test_p_do_x_equals_observational_marginal(j):
    assert np.allclose(do_joint(j, "b").sum(axis=1), j.probs.sum(axis=(1, 2)), atol=1e-12)


def test_strategies_coincide_on_full_support(rng):
    for _ in range(25):
        j = random_joint(rng, (3, 2, 2), alpha=5.0)
        assert np.all(j.probs.sum(axis=1) > 0)
        rows = [do_conditional(j, s).rows for s in "abc"]
        assert np.allclose(rows[0], rows[1], atol=1e-15)
        assert np.allclose(rows[1], rows[2], atol=1e-15)
        for m in ("pmi", "rpmi", "icmi_xy", "ricmi_yx"):
            vals = [evaluate(j, m, s) for s in "abc"]
            assert vals[0] == pytest.approx(vals[1], abs=1e-12)
            assert vals[1] == pytest.approx(vals[2], abs=1e-12)


def test_removal_measures_invariant_under_relabeling(rng):
    for _ in range(10):
        j = random_joint(rng, (2, 3, 2))
        pz = rng.permutation(2)
        relabeled = Joint3(j.alphabets, np.ascontiguousarray(j.probs[:, :, pz]))
        for m in ("cmi", "rcmi", "rpmi", "ricmi_xy", "ricmi_yx", "nace", "race", "rmi_do"):
            assert evaluate(j, m, "b") == pytest.approx(evaluate(relabeled, m, "b"), abs=1e-10)


def test_conditionally_independent_joints_have_zero_rcmi(rng):
    for _ in range(40):
        j = cond_indep_joint(rng, (2, 3, 3))
        assert evaluate(j, "rcmi", "b") <= 1e-10
        assert evaluate(j, "cmi", "b") <= 1e-10


def test_kl_measures_report_infinity_not_errors():
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 0.5
    probs[1, 1, 1] = 0.5
    ab = Alphabet((0, 1))
    j = Joint3((ab, ab, ab), probs)
    assert evaluate(j, "icmi_xy", "b") == math.inf
    assert math.isfinite(evaluate(j, "ricmi_xy", "b"))
