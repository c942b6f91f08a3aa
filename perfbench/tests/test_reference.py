"""The benchmark's reference geometry on known values."""

import math

import numpy as np
import pytest

import reference as ref
from hypmet.hyperideal import hyper_angles_from_lengths, vol_hyper
from hypmet.ideal import ideal_lengths_to_angles

CATALAN = 0.915965594177219015


def test_ideal_angles_of_known_triangles():
    assert ref.ideal_angles([0.0] * 6) == pytest.approx([math.pi / 3] * 6, abs=1e-15)
    # sides 3, 4, 5: a right angle opposite the longest side
    lengths = [math.log(3.0), math.log(4.0), math.log(5.0)] * 2
    assert ref.ideal_angles(lengths)[:3] == pytest.approx(
        [math.atan2(3.0, 4.0), math.atan2(4.0, 3.0), math.pi / 2], abs=1e-15
    )


def test_ideal_angles_reject_a_degenerate_triangle():
    with pytest.raises(ValueError):
        ref.ideal_angles([2 * math.log(3.0), 0.0, 0.0, 0.0, 0.0, 0.0])


def test_hyper_angles_of_the_regular_tetrahedron():
    assert ref.hyper_angles([math.acosh(2.0)] * 6) == pytest.approx([math.acos(2.0 / 3.0)] * 6, abs=1e-15)


def test_hyper_angles_reject_a_flat_tetrahedron():
    with pytest.raises(ValueError):
        ref.hyper_angles([5.0, 0.5, 0.5, 5.0, 0.5, 0.5])


def test_kernels_agree_with_hypmet_near_the_benchmark_targets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        l = rng.uniform(-0.25, 0.25, 6)
        assert ref.ideal_angles(l) == pytest.approx(ideal_lengths_to_angles(l), abs=1e-13)
        l = math.acosh(2.0) + rng.uniform(-0.2, 0.2, 6)
        assert ref.hyper_angles(l) == pytest.approx(hyper_angles_from_lengths(l), abs=1e-13)


def test_lobachevsky_known_values():
    assert ref.lobachevsky(0.0) == 0.0
    assert ref.lobachevsky(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert ref.lobachevsky(math.pi / 4) == pytest.approx(CATALAN / 2, abs=1e-15)
    assert ref.lobachevsky(math.pi / 6) == pytest.approx(1.5 * ref.lobachevsky(math.pi / 3), abs=1e-15)
    assert ref.lobachevsky(math.pi - 0.3) == pytest.approx(-ref.lobachevsky(0.3), abs=1e-15)
    assert 6 * ref.lobachevsky(math.pi / 3) == pytest.approx(ref.FIG8_VOLUME, abs=1e-15)


def test_regular_hyper_volume():
    volume = ref.regular_hyper_volume()
    assert volume == pytest.approx(2.3695937312240, abs=1e-13)
    assert volume == pytest.approx(vol_hyper([math.acosh(2.0)] * 6), abs=4e-15)
