import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from directcorr.bounds import BOUND_MEASURES, achievable_bounds
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import evaluate


def random_joint(rng, shape, alpha=1.0) -> Joint3:
    probs = rng.dirichlet(np.full(int(np.prod(shape)), alpha)).reshape(shape)
    return Joint3(tuple(Alphabet.of_size(d) for d in shape), probs)


def binary_joint(probs) -> Joint3:
    """A (2, 2, 2) probability table, such as a toy model's, as a joint over binary alphabets."""
    return Joint3((Alphabet.of_size(2),) * 3, probs)


def cond_indep_joint(rng, shape) -> Joint3:
    """Random joint with X independent of Y inside every stratum of Z."""
    dx, dy, dz = shape
    pz = rng.dirichlet(np.ones(dz))
    xgz = np.stack([rng.dirichlet(np.ones(dx)) for _ in range(dz)], axis=1)
    ygz = np.stack([rng.dirichlet(np.ones(dy)) for _ in range(dz)], axis=1)
    probs = xgz[:, None, :] * ygz[None, :, :] * pz[None, None, :]
    return Joint3(tuple(Alphabet.of_size(d) for d in shape), probs)


def bounds_at_points(j: Joint3, measures=BOUND_MEASURES, s="b") -> dict:
    """``achievable_bounds`` of ``measures`` on ``j``, each around its ``evaluate`` value, as the CLI calls it."""
    return achievable_bounds(j, {m: evaluate(j, m, s) for m in measures}, s)


def traced_peak(f) -> int:
    """Bytes that ``f()`` holds at its peak above what was live before it, traced on a second call (warm caches)."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def data_file(name: str) -> Path | None:
    base = Path(os.environ.get("DIRECTCORR_DATA", "data"))
    candidates = [base / name, Path(__file__).parent.parent / "data" / name]
    for c in candidates:
        if c.exists():
            return c
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(20260419)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance criteria gate")
