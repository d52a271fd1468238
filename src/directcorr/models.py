"""Closed-form joint distributions for the two voting toy models and the twin-graph corpus.

A voting model takes numbers or arrays that broadcast, one grid point per
element, and returns every point's table p(x,y,z) at once, shape
``(..., 2, 2, 2)``; ``RANGES`` holds each model's parameters in order.
"""

from __future__ import annotations

import numpy as np

from .prob import Alphabet, Joint3

_BINARY = Alphabet((0, 1))

RANGES = {
    "simple": {"lam0": (-1.0, 1.0), "lam1": (0.0, 1.0)},
    "decision": dict.fromkeys(("q0", "q1", "q2", "q3", "q4"), (-1.0, 1.0)),
}


def check_ranges(model: str, **params) -> list[np.ndarray]:
    """The model's parameters, in ``RANGES`` order, as float arrays broadcast to one grid shape.

    A value out of its range (NaN included) raises ValueError at the first
    such grid point in C order, naming the first parameter out of range there.
    """
    ranges = RANGES[model]
    arrays = np.broadcast_arrays(*(np.asarray(params[name], dtype=float) for name in ranges))
    bad = np.stack([~((lo <= a) & (a <= hi)) for a, (lo, hi) in zip(arrays, ranges.values())], axis=-1)
    if bad.any():
        point, i = divmod(int(np.argmax(bad)), len(ranges))  # row-major: the first point, then its first parameter
        name, (lo, hi) = list(ranges.items())[i]
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {float(arrays[i].flat[point])}")
    return arrays


def _agree(strength, a: int, b: int):
    return (1.0 + strength) / 2.0 if a == b else (1.0 - strength) / 2.0


def decision_model_joint(q0, q1, q2, q3, q4) -> np.ndarray:
    """Tables p(x,y,z) of the three-voter model by explicit summation.

    q0 biases Z's own choice; q1 is Z's pull on X; q3 is X's pull on Y's
    first pre-choice and q2 is Z's pull on the second; q4 is Y's own bias
    used when the two pre-choices disagree.  All in [-1, 1].

    Sums the full five-variable table over the two pre-choices rather
    than using any algebraic simplification, so the generator stays a
    faithful oracle for the model.
    """
    q0, q1, q2, q3, q4 = check_ranges("decision", q0=q0, q1=q1, q2=q2, q3=q3, q4=q4)
    probs = np.zeros((*q0.shape, 2, 2, 2))
    for z in (0, 1):
        pz = (1.0 + q0) / 2.0 if z == 0 else (1.0 - q0) / 2.0
        for x in (0, 1):
            pxz = _agree(q1, x, z)
            for y in (0, 1):
                acc = 0.0
                for y1 in (0, 1):
                    py1 = _agree(q3, y1, x)
                    for y2 in (0, 1):
                        py2 = _agree(q2, y2, z)
                        if y1 == y2:
                            pya = 1.0 if y == y1 else 0.0
                        else:
                            pya = (1.0 + q4) / 2.0 if y == 0 else (1.0 - q4) / 2.0
                        acc += pya * py1 * py2
                probs[..., x, y, z] = acc * pxz * pz
    return probs


def simple_model_joint(lam0, lam1) -> np.ndarray:
    """Tables p(x,y,z) of the two-parameter voter model, written out case by case.

    lam0 in [-1, 1] couples Z to X, lam1 in [0, 1] X to Y.
    """
    lam0, lam1 = check_ranges("simple", lam0=lam0, lam1=lam1)
    probs = np.zeros((*lam0.shape, 2, 2, 2))
    for z in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                if x == z and y == z:
                    probs[..., x, y, z] = (1.0 + lam0) / 4.0
                elif x == z:
                    probs[..., x, y, z] = 0.0
                elif y == 1 - z:  # x = 1 - z, y = x
                    probs[..., x, y, z] = (1.0 - lam0) * lam1 / 4.0
                else:  # x = 1 - z, y = z
                    probs[..., x, y, z] = (1.0 - lam0) * (1.0 - lam1) / 4.0
    return probs


def fig5_corpus() -> list[tuple[str, Joint3]]:
    """The two observationally equivalent chain/fork models and their shared joint.

    Model A is the chain Z -> X -> Y with every link deterministic;
    model B is the fork in which Z drives both X and Y directly.  Both
    induce probability 1/2 on each of (0,0,0) and (1,1,1), so no measure
    computed from the joint alone can tell them apart.
    """
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 0.5
    probs[1, 1, 1] = 0.5
    j = Joint3((_BINARY, _BINARY, _BINARY), probs)
    return [
        ("model_a_chain_z_to_x_to_y", j),
        ("model_b_fork_z_to_x_and_y", j),
    ]
