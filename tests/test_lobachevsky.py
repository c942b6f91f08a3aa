"""Lobachevsky evaluator: spec examples, symmetries, oracle agreement."""

import math

import numpy as np
import pytest

from hypmet.errors import DomainError
from hypmet.lobachevsky import _BLOCK, _estrin, lobachevsky, lobachevsky_array

from oracles import lobachevsky_quadrature

# frozen from the quadrature oracle
LOB_PI_6 = 0.5074708032048268
LOB_PI_4 = 0.4579827970886095  # half of Catalan's constant
LOB_PI_3 = 0.3383138688032180


def test_zero_and_pi_are_exact():
    assert lobachevsky(0.0) == 0.0
    assert lobachevsky(math.pi) == 0.0


def test_value_at_pi_over_6():
    assert lobachevsky(math.pi / 6) == pytest.approx(LOB_PI_6, abs=1e-12)


def test_value_at_pi_over_4_is_half_catalan():
    assert lobachevsky(math.pi / 4) == pytest.approx(LOB_PI_4, abs=1e-12)
    assert lobachevsky(math.pi / 4) == pytest.approx(
        lobachevsky_quadrature(math.pi / 4), abs=1e-12
    )


def test_pi_over_6_is_global_maximum():
    xs = np.linspace(0.0, math.pi, 2001)
    values = [lobachevsky(x) for x in xs]
    assert max(values) <= LOB_PI_6 + 1e-12


def test_period_and_oddness():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-10.0, 10.0, 1000)
    for x in xs:
        assert abs(lobachevsky(x + math.pi) - lobachevsky(x)) <= 1e-14
        assert abs(lobachevsky(-x) + lobachevsky(x)) <= 1e-14


def test_duplication_identity():
    # Lambda(2x)/2 = Lambda(x) - Lambda(pi/2 - x)
    rng = np.random.default_rng(8)
    for x in rng.uniform(1e-6, math.pi / 2 - 1e-6, 500):
        lhs = 0.5 * lobachevsky(2 * x)
        rhs = lobachevsky(x) - lobachevsky(math.pi / 2 - x)
        assert abs(lhs - rhs) <= 1e-11


def test_agrees_with_quadrature_oracle():
    for x in np.linspace(0.0, math.pi, 100):
        assert lobachevsky(x) == pytest.approx(lobachevsky_quadrature(x), abs=1e-10)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_rejected(bad):
    with pytest.raises(DomainError):
        lobachevsky(bad)


def test_array_evaluator_matches_scalar():
    rng = np.random.default_rng(9)
    xs = np.concatenate(
        [rng.uniform(-20.0, 20.0, 2002), [0.0, -0.0, 1e-300, math.pi / 2, -math.pi / 2, math.pi, 1e6]]
    )
    got = lobachevsky_array(xs.reshape(-1, 7))
    assert got.shape == (len(xs) // 7, 7)
    assert np.max(np.abs(got.ravel() - [lobachevsky(x) for x in xs])) <= 1e-15
    assert lobachevsky_array(math.pi / 4) == pytest.approx(LOB_PI_4, abs=1e-15)


def test_array_evaluator_small_sizes_and_position_independence():
    # each value depends on its own argument only: a slice, a single
    # element and a reshaped array give the values of the whole array
    rng = np.random.default_rng(10)
    xs = rng.uniform(-10.0, 10.0, 96)
    full = lobachevsky_array(xs)
    for j in range(len(xs)):
        assert lobachevsky_array(xs[j]) == full[j]
        assert lobachevsky_array(xs[j : j + 3])[0] == full[j]
    assert np.array_equal(lobachevsky_array(xs.reshape(6, 8, 2)).ravel(), full)
    assert np.max(np.abs(full - [lobachevsky(x) for x in xs])) <= 1e-15
    assert lobachevsky_array(np.zeros((0, 3))).shape == (0, 3)


def test_array_evaluator_blocks_match_one_pass():
    # arrays longer than a block go in blocks; every value is the one a
    # single pass over the whole array gives, bit for bit
    block = _BLOCK
    rng = np.random.default_rng(11)
    for size in (block - 1, block, block + 1, 3 * block + 5):
        xs = rng.uniform(-20.0, 20.0, size)
        xs[::97] = 0.0
        got = lobachevsky_array(xs)
        assert np.array_equal(got, _estrin(xs))
        assert np.array_equal(lobachevsky_array(xs.reshape(1, -1, 1)).ravel(), got)
    # the block boundary falls inside a row of a 2-D array
    xs = rng.uniform(-5.0, 5.0, (block // 7 + 3, 7))
    assert np.array_equal(lobachevsky_array(xs), _estrin(xs.ravel()).reshape(xs.shape))
