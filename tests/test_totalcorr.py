import numpy as np
import pytest

from directcorr.datasets import dataset_from_builtin
from directcorr.errors import DegenerateVariable, SingularDenominator
from directcorr.models import simple_model_joint
from directcorr.prob import Alphabet, Joint3, _kl_rows
from directcorr.registry import (
    NumericEncoding,
    mutual_information,
    normalized_mi,
    partial_correlation,
    pcc,
    regularized_mi,
)

from conftest import binary_joint, random_joint

AB = Alphabet((0, 1))


def joint2(cells):
    """A joint with the given (x,y) table and a one-letter Z."""
    arr = np.asarray(cells, dtype=float)[:, :, None]
    return Joint3(tuple(Alphabet.of_size(d) for d in arr.shape), arr)


@pytest.fixture(scope="module")
def titanic():
    return dataset_from_builtin("titanic")


class TestPcc:
    def test_titanic_class_survival(self, titanic):
        assert pcc(titanic.joint) == pytest.approx(-0.339, abs=1e-3)

    def test_identity_coupling_is_plus_one(self):
        assert pcc(joint2(np.eye(3) / 3)) == pytest.approx(1.0)

    def test_independent_is_zero(self, rng):
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(2))
        assert pcc(joint2(np.outer(px, py))) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_variable(self):
        with pytest.raises(DegenerateVariable):
            pcc(joint2([[0.5, 0.5], [0.0, 0.0]]))

    def test_sign_flips_with_negated_encoding(self, titanic):
        j = titanic.joint
        enc = NumericEncoding(y=(0.0, -1.0))
        assert pcc(j, enc) == pytest.approx(-pcc(j), abs=1e-12)

    def test_encoding_recodes_only_its_role(self):
        # X, Y and Z share the labels (0, 1) here; negating Y must leave X alone
        j = binary_joint(simple_model_joint(0.5, 0.5))
        assert pcc(j) == pytest.approx(0.75, abs=1e-12)
        assert pcc(j, NumericEncoding(y=(0.0, -1.0))) == pytest.approx(-0.75, abs=1e-12)
        assert partial_correlation(j, NumericEncoding(y=(0.0, -1.0))) == pytest.approx(
            -partial_correlation(j), abs=1e-12
        )

    @pytest.mark.parametrize("codes", [(0.0,), (0.0, 1.0, 2.0), (0.0, float("nan"))])
    def test_bad_encoding_rejected(self, codes):
        with pytest.raises(ValueError, match="finite values"):
            pcc(joint2(np.eye(2) / 2), NumericEncoding(x=codes))


class TestPartialCorrelation:
    def test_titanic(self, titanic):
        assert partial_correlation(titanic.joint) == pytest.approx(-0.321, abs=2e-3)

    def test_independent_z_reduces_to_pcc(self, rng):
        pxy = rng.dirichlet(np.ones(6)).reshape(3, 2)
        pz = rng.dirichlet(np.ones(2))
        j = Joint3(
            (Alphabet.of_size(3), AB, AB), pxy[:, :, None] * pz[None, None, :]
        )
        assert partial_correlation(j) == pytest.approx(pcc(j), abs=1e-10)

    def test_singular_denominator(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = 0.25
        probs[0, 1, 0] = 0.25
        probs[1, 0, 1] = 0.25
        probs[1, 1, 1] = 0.25  # x == z exactly
        with pytest.raises(SingularDenominator):
            partial_correlation(Joint3((AB, AB, AB), probs))


class TestMutualInformation:
    def test_independent(self, rng):
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(3))
        assert mutual_information(joint2(np.outer(px, py))) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_binary_identity(self):
        assert mutual_information(joint2(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_skewed_table(self):
        assert mutual_information(joint2([[0.4, 0.1], [0.1, 0.4]])) == pytest.approx(
            0.2780719051126377, abs=1e-12
        )

    def test_equals_kl_identity(self, rng):
        for _ in range(30):
            j = random_joint(rng, (3, 3, 2))
            xy = j.probs.sum(axis=2)
            prod = np.outer(xy.sum(axis=1), xy.sum(axis=0))
            assert mutual_information(j) == pytest.approx(_kl_rows(xy[None], prod[None])[0], abs=1e-12)


class TestNormalizedMi:
    def test_deterministic_function_gives_one(self):
        table = np.zeros((3, 2))
        table[0, 0] = 0.2
        table[1, 1] = 0.3
        table[2, 1] = 0.5
        r = normalized_mi(joint2(table))
        assert r.to_y == pytest.approx(1.0, abs=1e-12)

    def test_independent_gives_zeros(self, rng):
        px = rng.dirichlet(np.ones(2))
        py = rng.dirichlet(np.ones(2))
        r = normalized_mi(joint2(np.outer(px, py)))
        assert r.to_y == pytest.approx(0.0, abs=1e-12)
        assert r.to_x == pytest.approx(0.0, abs=1e-12)
        assert r.max == pytest.approx(0.0, abs=1e-12)

    def test_skewed_table(self):
        r = normalized_mi(joint2([[0.4, 0.1], [0.1, 0.4]]))
        assert r.to_y == pytest.approx(0.2780719051126377, abs=1e-12)

    def test_constant_target_defined_as_zero(self):
        r = normalized_mi(joint2([[0.4, 0.0], [0.6, 0.0]]))
        assert r.to_y == 0.0


class TestRegularizedMi:
    def test_uniform_binary_identity(self):
        from directcorr.bounds import rmi_max_uniform

        assert regularized_mi(joint2(np.eye(2) / 2)) == pytest.approx(rmi_max_uniform(2), abs=1e-12)
        assert regularized_mi(joint2(np.eye(2) / 2)) == pytest.approx(0.558, abs=1e-3)

    def test_independent_is_zero(self, rng):
        px = rng.dirichlet(np.ones(4))
        py = rng.dirichlet(np.ones(3))
        assert regularized_mi(joint2(np.outer(px, py))) == pytest.approx(0.0, abs=1e-7)

    def test_titanic(self, titanic):
        assert regularized_mi(titanic.joint) == pytest.approx(0.146, abs=2e-3)

    def test_always_strictly_below_one(self, rng):
        for _ in range(30):
            j = random_joint(rng, (2, 2, 2), alpha=0.2)
            assert regularized_mi(j) < 1.0

    def test_relabel_invariance(self, rng):
        j = random_joint(rng, (3, 3, 2))
        perm = rng.permutation(3)
        permuted = Joint3(j.alphabets, j.probs[perm][:, rng.permutation(3)])
        assert regularized_mi(permuted) == pytest.approx(regularized_mi(j), abs=1e-12)
