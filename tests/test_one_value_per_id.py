"""Every public measure function is the registry's value for its id, bit for bit.

The engine computes all 23 ids from one joint; each public measure
function in ``registry`` must give exactly the number
``registry.evaluate`` gives for the same (joint, id, fill rule), or raise
the same exception where the value is undefined.
"""

import numpy as np
import pytest

from directcorr.engine import BatchContext
from directcorr.errors import DegenerateVariable, DirectCorrError, SingleCategory, SingularDenominator, Undefined
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import (
    MEASURES,
    NumericEncoding,
    ace,
    ace_kl,
    cmi,
    cmi_js,
    do_conditional,
    evaluate,
    icmi_oneway,
    mi_do,
    mutual_information,
    nace,
    normalized_mi,
    partial_correlation,
    pcc,
    pmi,
    race,
    rcmi,
    regularized_mi,
    ricmi,
    rmi_do,
    rpmi,
)

PUBLIC = {
    "pcc": lambda j, s: pcc(j),
    "pc": lambda j, s: partial_correlation(j),
    "mi": lambda j, s: mutual_information(j),
    "nmi_y": lambda j, s: normalized_mi(j).to_y,
    "nmi_x": lambda j, s: normalized_mi(j).to_x,
    "nmi_max": lambda j, s: normalized_mi(j).max,
    "rmi": lambda j, s: regularized_mi(j),
    "cmi": lambda j, s: cmi(j),
    "cmi_js": lambda j, s: cmi_js(j),
    "rcmi": lambda j, s: rcmi(j),
    "pmi": pmi,
    "rpmi": rpmi,
    "icmi_xy": lambda j, s: icmi_oneway(j, "xy", s),
    "icmi_yx": lambda j, s: icmi_oneway(j, "yx", s),
    "ricmi_xy": lambda j, s: ricmi(j, s).xy,
    "ricmi_yx": lambda j, s: ricmi(j, s).yx,
    "ricmi_two": lambda j, s: ricmi(j, s).two_way,
    "ace": lambda j, s: ace(do_conditional(j, s)),
    "nace": lambda j, s: nace(do_conditional(j, s)),
    "ace_kl": lambda j, s: ace_kl(do_conditional(j, s)),
    "race": lambda j, s: race(do_conditional(j, s)),
    "mi_do": mi_do,
    "rmi_do": rmi_do,
}


def _joints() -> list[Joint3]:
    """Random joints of 2 or 3 letters per axis (one axis of 1 in every fifth);
    every other one has its smaller half of cells emptied."""
    rng = np.random.default_rng(20260419)
    joints = []
    for i in range(40):
        shape = [int(d) for d in rng.integers(2, 4, size=3)]
        if i % 5 == 0:
            shape[i // 5 % 3] = 1
        probs = rng.dirichlet(np.full(int(np.prod(shape)), 0.5)).reshape(shape)
        if i % 2:
            probs = np.where(probs < np.median(probs), 0.0, probs)
            probs /= probs.sum()
        joints.append(Joint3(tuple(Alphabet.of_size(d) for d in shape), probs))
    return joints


JOINTS = _joints()


def _outcome(fn):
    try:
        return fn()
    except DirectCorrError as exc:
        return type(exc)


def test_every_id_has_a_public_function():
    assert sorted(PUBLIC) == sorted(MEASURES)


@pytest.mark.parametrize("s", ["a", "b", "c"])
@pytest.mark.parametrize("measure", list(MEASURES))
def test_public_function_equals_evaluate(measure, s):
    for j in JOINTS:
        expected = _outcome(lambda: evaluate(j, measure, s))
        assert _outcome(lambda: PUBLIC[measure](j, s)) == expected, (measure, s, j.shape)


@pytest.mark.parametrize("measure", list(MEASURES))
def test_malformed_encoding_raises_for_every_id(measure):
    """The codes are built for every id, so a wrong-length encoding fails whichever measure is asked for."""
    j = JOINTS[1]
    assert j.shape[0] > 1
    with pytest.raises(ValueError, match=f"must be {j.shape[0]} finite values"):
        evaluate(j, measure, enc=NumericEncoding(x=(1.0,)))


def test_every_undefined_error_is_undefined():
    """What ``evaluate`` raises for a NaN value is an ``errors.Undefined``, whichever reason it names."""
    raised = set()
    for j in JOINTS:
        ctx = BatchContext(j.probs[None])
        for m in MEASURES:
            exc = ctx.undefined_error(m)
            assert isinstance(exc, Undefined), (m, exc)
            raised.add(type(exc))
    assert raised == {DegenerateVariable, SingularDenominator, SingleCategory}
