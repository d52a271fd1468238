"""The entropy, KL and JS row kernels: bit for bit the plain formulas, in a few stack-sized buffers.

The kernels rewrite their buffers in place.  The reference formulas below
allocate a fresh array for every step; each cell must go through the same
floating-point operations in the same order, so both give the same bits.
The memory ceilings are traced peaks in stack units, one float64 array of
``engine.STACK_CELLS`` cells (16 KB).
"""

import math

import numpy as np
import pytest

from directcorr.datasets import dataset_from_builtin
from directcorr.engine import STACK_CELLS, measure_values
from directcorr.prob import LN2, _entropy_rows, _js_rows, _kl_rows
from directcorr.registry import TABLE_MEASURES
from directcorr.resampling import _resample_counts

from conftest import traced_peak

UNIT = STACK_CELLS * 8


def _axes(p):
    return tuple(range(1, np.ndim(p)))


def entropy_formula(p):
    return -(p * np.log2(p + (p == 0))).sum(axis=_axes(p))


def kl_formula(p, q):
    axes = _axes(p)
    pos = p > 0
    empty = q == 0
    pad = ~pos | empty
    terms = p * (np.log2(p + pad) - np.log2(q + pad))
    return np.where((pos & empty).any(axis=axes), math.inf, terms.sum(axis=axes))


def js_terms_formula(a, other, ratio):
    mask = a > 0
    extreme = mask & (np.abs(ratio) >= 0.5)
    near = mask & ~extreme
    safe_a = np.where(extreme, a, 1.0)
    safe_m = np.where(extreme, 0.5 * (a + other), 1.0)
    far = a * (np.log(2.0 * safe_a) - np.log(2.0 * safe_m))
    close = a * np.log1p(np.where(near, ratio, 0.0))
    return np.where(extreme, far, np.where(near, close, 0.0))


def js_formula(p, q, support=None):
    axes = _axes(p)
    m = 0.5 * (p + q)
    h = 0.5 * (p - q)
    ratio = np.divide(h, m, out=np.zeros_like(m), where=m > 0)
    tp = js_terms_formula(p, q, ratio)
    tq = js_terms_formula(q, p, -ratio)
    if support is not None:
        tp = np.where(support, tp, 0.0)
        tq = np.where(support, tq, 0.0)
    return np.minimum(np.maximum((tp.sum(axis=axes) + tq.sum(axis=axes)) / (2.0 * LN2), 0.0), 1.0)


def stack_pairs(rng, kind, count):
    """``count`` pairs of stacks (n, ...) of one kind, with axes of size 1 among the random shapes."""
    for _ in range(count):
        shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        n, cells = int(rng.integers(1, 6)), math.prod(shape)
        p = rng.dirichlet(np.ones(cells), size=n).reshape(n, *shape)
        q = rng.dirichlet(np.ones(cells), size=n).reshape(n, *shape)
        if kind == "sparse":
            p *= rng.random(p.shape) < 0.6
            q *= rng.random(q.shape) < 0.6
        elif kind == "near-equal":
            q = p * (1.0 + 1e-9 * rng.standard_normal(p.shape))
        elif kind == "subnormal":
            p *= 1e-300 * (rng.random(p.shape) < 0.7)
            q *= 1e-308  # every cell below the smallest normal float
        elif kind == "shared-zeros":
            q = np.where(rng.random(p.shape) < 0.3, 0.0, p)
        yield p, q


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


KINDS = ("random", "sparse", "near-equal", "subnormal", "shared-zeros")


@pytest.mark.parametrize("kind", KINDS)
def test_kernels_equal_the_formulas_bit_for_bit(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    with np.errstate(all="ignore"):  # the formulas warn on the cells they discard
        for p, q in stack_pairs(rng, kind, 600):
            # pair_max hands the kernels strided do-rows, rows[:, x]
            strided = [(p[:, 0], q[:, -1])] if p.ndim > 2 else []
            for a, b in [(p, q), (q, p), *strided]:
                assert same_bits(_entropy_rows(a), entropy_formula(a)), (kind, a)
                assert same_bits(_kl_rows(a, b), kl_formula(a, b)), (kind, a, b)
                assert same_bits(_js_rows(a, b), js_formula(a, b)), (kind, a, b)
                assert same_bits(_js_rows(a, b, a > 0), js_formula(a, b, a > 0)), (kind, a, b)
                assert same_bits(_js_rows(a, b, b > 0), js_formula(a, b, b > 0)), (kind, a, b)


def test_js_holds_at_most_five_stack_units():
    rng = np.random.default_rng(5)
    p, q = (rng.dirichlet(np.ones(16), size=STACK_CELLS // 16).reshape(-1, 4, 2, 2) for _ in range(2))
    support = p > 0
    assert traced_peak(lambda: _js_rows(p, q)) <= 5 * UNIT
    assert traced_peak(lambda: _js_rows(p, q, support)) <= 5 * UNIT


@pytest.mark.parametrize("name", ["titanic", "berkeley"])
def test_bootstrap_step_holds_at_most_twelve_stack_units(name):
    ds = dataset_from_builtin(name)
    obs = ds.observations
    counts = obs.counts()
    draws = _resample_counts(counts, obs.n, 1, range(STACK_CELLS // counts.size)) / obs.n
    codes = ds.encoding.codes(obs.alphabets)
    assert traced_peak(lambda: measure_values(draws, TABLE_MEASURES, "b", codes)) <= 12 * UNIT
