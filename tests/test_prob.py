import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from directcorr.engine import BatchContext
from directcorr.errors import InvalidDistribution, ShapeMismatch, UnknownCategory, ZeroTotal
from directcorr.prob import (
    Alphabet,
    Joint3,
    entropy,
    from_counts,
    js_divergence,
    kl_divergence,
    sqrt_js,
    total_variation,
)

from conftest import random_joint

AB = Alphabet((0, 1))


def dist(*values):
    return np.asarray(values, dtype=float)


class TestAlphabet:
    def test_size_and_index(self):
        a = Alphabet(("x", "y", "z"))
        assert a.size == 3
        assert a.index("y") == 1

    def test_unknown_label(self):
        with pytest.raises(UnknownCategory):
            Alphabet(("a",)).index("b")

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidDistribution):
            Alphabet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistribution):
            Alphabet(())


class TestConstruction:
    def test_joint3_normalization_guard(self):
        bad = np.full((2, 2, 2), 0.2)
        with pytest.raises(InvalidDistribution):
            Joint3((AB, AB, AB), bad)

    def test_joint3_negative_guard(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = 1.5
        probs[1, 1, 1] = -0.5
        with pytest.raises(InvalidDistribution):
            Joint3((AB, AB, AB), probs)

    def test_immutable(self):
        j = Joint3((AB, AB, AB), np.full((2, 2, 2), 0.125))
        with pytest.raises(ValueError):
            j.probs[0, 0, 0] = 1.0

    def test_nan_entry_rejected(self):
        probs = np.full((2, 2, 2), 0.125)
        probs[0, 0, 0] = math.nan
        with pytest.raises(InvalidDistribution):
            Joint3((AB, AB, AB), probs)

    def test_two_dimensional_table_rejected(self):
        with pytest.raises(InvalidDistribution):
            Joint3((AB, AB), np.full((2, 2), 0.25))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_from_counts_non_finite_rejected(self, bad):
        counts = np.ones((2, 2, 2))
        counts[0, 1, 0] = bad
        with pytest.raises(InvalidDistribution):
            from_counts(counts, (AB, AB, AB))

    def test_from_counts_zero_total(self):
        with pytest.raises(ZeroTotal):
            from_counts(np.zeros((2, 2, 2)), (AB, AB, AB))

    def test_from_counts_delta(self):
        counts = np.zeros((2, 2, 2))
        counts[1, 0, 1] = 7
        j = from_counts(counts, (AB, AB, AB))
        assert j.probs[1, 0, 1] == 1.0

    def test_from_counts_uniform(self):
        j = from_counts(np.full((2, 2, 2), 3), (AB, AB, AB))
        assert np.allclose(j.probs, 0.125)

    @pytest.mark.parametrize(
        "counts",
        [np.full((2, 2, 2), 0.5), np.ones((2, 2, 2), dtype=bool), np.full((2, 2, 2), "1")],
        ids=["fractional", "boolean", "strings"],
    )
    def test_from_counts_rejects_non_integer_counts(self, counts):
        with pytest.raises(InvalidDistribution):
            from_counts(counts, (AB, AB, AB))

    def test_from_counts_total_exact_above_2_53(self):
        # a float sum of these cells loses the ones added to 2**53
        counts = np.ones((2, 2, 2), dtype=np.int64)
        counts[0, 0, 0] = 2**53
        j = from_counts(counts, (AB, AB, AB))
        assert np.array_equal(j.probs, counts / float(2**53 + 7))


class TestMarginal:
    """The engine's marginals of one joint."""

    def test_product_recovers_factors(self, rng):
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(2))
        pz = rng.dirichlet(np.ones(2))
        j = Joint3(
            (Alphabet.of_size(3), AB, AB),
            px[:, None, None] * py[None, :, None] * pz[None, None, :],
        )
        ctx = BatchContext(j.probs[None])
        assert np.allclose(ctx.px[0], px)
        assert np.allclose(ctx.py[0], py)
        assert np.allclose(ctx.pz[0], pz)

    def test_double_marginal_associative(self, rng):
        ctx = BatchContext(random_joint(rng, (3, 2, 4)).probs[None])
        assert np.allclose(ctx.pxy.sum(axis=2), ctx.px)
        assert np.allclose(ctx.pyz.sum(axis=2), ctx.pxy.sum(axis=1))
        assert np.allclose(ctx.pxz.sum(axis=1), ctx.pz)


class TestConditional:
    """The engine's filled conditionals p(y | x,z) and p(x | y,z) of one joint."""

    def test_zero_mass_cell_is_filled_not_raised(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = 0.5
        probs[1, 1, 1] = 0.5
        ycond = BatchContext(Joint3((AB, AB, AB), probs).probs[None], "b").ycond[0]
        # (x, z) = (0, 1) and (1, 0) have no mass: filled with p(y) under rule b
        assert np.array_equal(ycond[0, :, 1], [0.5, 0.5])
        assert np.array_equal(ycond[1, :, 0], [0.5, 0.5])
        assert np.array_equal(ycond[0, :, 0], [1.0, 0.0])
        assert np.array_equal(ycond[1, :, 1], [0.0, 1.0])

    def test_independent_joint_conditional_equals_marginal(self, rng):
        px = rng.dirichlet(np.ones(2))
        py = rng.dirichlet(np.ones(3))
        pz = rng.dirichlet(np.ones(2))
        j = Joint3(
            (AB, Alphabet.of_size(3), AB),
            px[:, None, None] * py[None, :, None] * pz[None, None, :],
        )
        ycond = BatchContext(j.probs[None]).ycond[0]  # (x, y, z)
        assert np.allclose(ycond, py[None, :, None])

    def test_deterministic_identity(self):
        probs = np.zeros((2, 2, 1))
        probs[0, 0, 0] = 0.3
        probs[1, 1, 0] = 0.7
        j = Joint3((AB, AB, Alphabet.of_size(1)), probs)
        assert np.allclose(BatchContext(j.probs[None]).ycond[0, :, :, 0], np.eye(2))

    def test_defined_rows_normalized(self, rng):
        j = random_joint(rng, (3, 2, 2), alpha=0.3)
        probs = np.where(j.probs < 0.05, 0.0, j.probs)  # empty some (y, z) cells
        probs[:, 0, 0] = 0.0
        probs /= probs.sum()
        ctx = BatchContext(probs[None], "b")
        xcond = ctx.xcond[0]  # (x, y, z)
        defined = probs.sum(axis=0) > 0
        assert np.allclose(xcond.sum(axis=0)[defined], 1.0)
        # empty (y, z) cells hold the rule-b fill, p(x)
        assert (~defined).any() and np.all(xcond[:, ~defined] == ctx.px[0][:, None])


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(dist(0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_delta(self):
        assert entropy(dist(1.0, 0.0)) == 0.0

    def test_three_quarters(self):
        assert entropy(dist(0.75, 0.25)) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_accepts_wrapper_types(self):
        j = Joint3((AB, AB, AB), np.full((2, 2, 2), 0.125))
        assert entropy(j) == pytest.approx(3.0)


class TestKl:
    def test_identical(self):
        assert kl_divergence(dist(0.3, 0.7), dist(0.3, 0.7)) == 0.0

    def test_one_bit(self):
        assert kl_divergence(dist(1, 0), dist(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_on_support_violation(self):
        assert kl_divergence(dist(0.5, 0.5), dist(1, 0)) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kl_divergence(dist(1, 0), dist(1, 0, 0))


class TestJs:
    def test_identical_exact_zero(self):
        assert js_divergence(dist(0.3, 0.7), dist(0.3, 0.7)) == 0.0

    def test_disjoint_is_one(self):
        assert js_divergence(dist(1, 0), dist(0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_half_mixture(self):
        assert js_divergence(dist(1, 0), dist(0.5, 0.5)) == pytest.approx(0.3112781244591328, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            js_divergence(dist(1, 0), np.eye(2))


class TestTotalVariation:
    def test_identical(self):
        assert total_variation(dist(0.4, 0.6), dist(0.4, 0.6)) == 0.0

    def test_disjoint(self):
        assert total_variation(dist(1, 0), dist(0, 1)) == pytest.approx(1.0)

    def test_direct_value(self):
        assert total_variation(dist(0.58, 0.42), dist(0.26, 0.74)) == pytest.approx(0.32, abs=1e-12)


@pytest.mark.parametrize("fn", [entropy, kl_divergence, js_divergence, sqrt_js, total_variation])
@pytest.mark.parametrize(
    "bad", [dist(math.nan, 1.0), dist(2.0, -1.0), dist(0.5, 0.6)], ids=["nan", "negative", "unnormalized"]
)
def test_public_functions_check_their_inputs(fn, bad):
    """Plain arrays get the checks a ``Joint3`` gets, on either side of a divergence."""
    calls = [(bad,)] if fn is entropy else [(bad, dist(0.5, 0.5)), (dist(0.5, 0.5), bad)]
    for args in calls:
        with pytest.raises(InvalidDistribution):
            fn(*args)


finite_dist = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
).map(lambda w: np.asarray(w) / np.sum(w))


@given(w=finite_dist)
@settings(max_examples=150, deadline=None)
def test_entropy_within_bounds(w):
    h = entropy(w)
    assert -1e-12 <= h <= math.log2(w.size) + 1e-12


@given(pair=st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
    )
))
@settings(max_examples=200, deadline=None)
def test_js_and_kl_axioms(pair):
    a, b = (np.asarray(v) for v in pair)
    if a.sum() == 0 or b.sum() == 0:
        return
    p, q = a / a.sum(), b / b.sum()
    js = js_divergence(p, q)
    assert 0.0 <= js <= 1.0
    assert js_divergence(p, q) == js_divergence(q, p)  # bitwise symmetric
    kl = kl_divergence(p, q)
    assert kl >= -1e-12  # Gibbs, up to the normalization slop of the inputs
    assert 0.0 <= total_variation(p, q) <= 1.0


@given(triple=st.integers(2, 5).flatmap(
    lambda n: st.tuples(*(st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n),) * 3)
))
@settings(max_examples=200, deadline=None)
def test_sqrt_js_triangle_inequality(triple):
    p, q, r = (np.asarray(v) / np.sum(v) for v in triple)
    assert sqrt_js(p, r) <= sqrt_js(p, q) + sqrt_js(q, r) + 1e-10


def test_js_zero_iff_equal(rng):
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        if np.allclose(p, q, atol=1e-12):
            continue
        assert js_divergence(p, q) > 0


def test_entropy_subadditive(rng):
    for _ in range(50):
        j = random_joint(rng, (3, 2, 2))
        hx = entropy(j.probs.sum(axis=(1, 2)))
        hyz = entropy(j.probs.sum(axis=0))
        assert entropy(j) <= hx + hyz + 1e-12


def test_from_counts_commutes_with_marginalization(rng):
    counts = rng.integers(0, 20, size=(3, 2, 2))
    counts[0, 0, 0] += 1  # nonzero total
    j = from_counts(counts, (Alphabet.of_size(3), AB, AB))
    assert np.allclose(j.probs.sum(axis=2), counts.sum(axis=2) / counts.sum())
