"""Assembled quantities over a complex: angles, cone angles, curvature,
volume, covolume, and the gauge invariance of the shifted objective."""

import json
import math

import numpy as np
import pytest

from hypmet.errors import DomainError, NumericalError, UnsupportedAngleTypeError
from hypmet.hyperideal import vol_hyper, volume_from_angles
from hypmet.ideal import cov_ideal
from hypmet.lobachevsky import lobachevsky
from hypmet.metrics import (
    _evaluate,
    angles_of_metric,
    cone_angles,
    cov_complex,
    curvature,
    volume,
    volume_of_metric,
)
from hypmet.triangulation import GluingSpec, build_complex, gauge_apply

from oracles import FIG8_COCYCLE, central_difference, cyclic_cover, disjoint_union

ACOSH2 = math.acosh(2.0)
EQUI_ANGLE = math.acos(2.0 / 3.0)


def load_dict(path):
    with open(path) as fh:
        return json.load(fh)


class TestAnglesOfMetric:
    def test_doubled_ideal_zero(self, double_tet):
        a = angles_of_metric(double_tet, np.zeros(6), "ideal")
        assert a.shape == (2, 3)
        assert np.allclose(a, math.pi / 3, atol=1e-14)

    def test_doubled_hyper_equilateral(self, double_tet):
        a = angles_of_metric(double_tet, np.full(6, ACOSH2), "hyper")
        assert a.shape == (2, 6)
        assert np.allclose(a, EQUI_ANGLE, atol=1e-14)

    def test_fig8_ideal_zero(self, fig8):
        a = angles_of_metric(fig8, np.zeros(2), "ideal")
        assert np.allclose(a, math.pi / 3, atol=1e-14)

    def test_hyper_rejects_nonpositive(self, double_tet):
        with pytest.raises(DomainError):
            angles_of_metric(double_tet, np.array([1.0, 1, 1, 1, 1, -0.2]), "hyper")

    def test_bad_flavor(self, fig8):
        with pytest.raises(DomainError):
            angles_of_metric(fig8, np.zeros(2), "spherical")


class TestConeAngles:
    def test_fig8_regular_is_two_pi(self, fig8):
        a = np.full((2, 3), math.pi / 3)
        assert np.allclose(cone_angles(fig8, a), 2 * math.pi, atol=1e-12)

    def test_doubled_hyper(self, double_tet):
        a = np.full((2, 6), EQUI_ANGLE)
        assert np.allclose(cone_angles(double_tet, a), 2 * EQUI_ANGLE, atol=1e-14)

    def test_zero_assignment(self, fig8):
        assert np.allclose(cone_angles(fig8, np.zeros((2, 3))), 0.0)

    @pytest.mark.parametrize("shape, what", [((2, 4), "shape"), ((3, 3), "rows")])
    def test_rejects_the_wrong_shape(self, fig8, shape, what):
        # the wrong width, and the wrong row count for fig8's two tetrahedra
        with pytest.raises(DomainError, match=what):
            cone_angles(fig8, np.zeros(shape))

    def test_bit_equal_to_instance_accumulation(self, fig8, double_tet, fixtures_dir):
        # the incidence matvec adds the instances of each edge in (tet, slot)
        # order, exactly as np.add.at over the slots does
        tri = disjoint_union(load_dict(fixtures_dir / "fig8.json"), 32, np.random.default_rng(7))
        complexes = (fig8, double_tet, build_complex(GluingSpec.from_dict(tri)))
        rng = np.random.default_rng(8)
        for c in complexes:
            for _ in range(50):
                slots = rng.uniform(0.0, math.pi, (c.n_tets, 6)) * rng.choice([1e-8, 1.0, 1e3])
                ref = np.zeros(c.num_edges)
                np.add.at(ref, c.edge_index.ravel(), slots.ravel())
                assert np.array_equal(cone_angles(c, slots), ref)


class TestCurvature:
    def test_closed_flat(self, fig8):
        k = np.full(2, 2 * math.pi)
        assert np.allclose(curvature(fig8, k), 0.0)

    def test_boundary_convention(self, single_tet):
        a = np.full((1, 3), math.pi / 3)
        k = cone_angles(single_tet, a)
        assert np.allclose(k, math.pi / 3)  # one instance per boundary edge
        kk = curvature(single_tet, k)
        assert np.allclose(kk, 2 * math.pi / 3)  # pi less the cone angle

    def test_zero_cone_angles_closed(self, fig8):
        assert np.allclose(curvature(fig8, np.zeros(2)), 2 * math.pi)

    def test_one_entry_is_too_few(self, fig8):
        # a length-1 vector once broadcast over both edges
        with pytest.raises(DomainError, match="one entry per edge"):
            curvature(fig8, [1.0])

    def test_three_entries_are_too_many(self, fig8):
        with pytest.raises(DomainError, match="one entry per edge"):
            curvature(fig8, [1.0, 2.0, 3.0])


class TestEvaluator:
    """_evaluate's rows are the library's single-metric values, to the bit."""

    @pytest.fixture(scope="class")
    def complexes(self, fixtures_dir):
        fig8 = load_dict(fixtures_dir / "fig8.json")
        union = disjoint_union(load_dict(fixtures_dir / "double_tet.json"), 5, np.random.default_rng(7))
        return {
            "fig8_16": build_complex(GluingSpec.from_dict(cyclic_cover(fig8, FIG8_COCYCLE, 8))),
            "double_tet_5": build_complex(GluingSpec.from_dict(union)),
        }

    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8_16", "double_tet_5"])
    def test_rows_are_the_single_metric_values(self, complexes, name, flavor, m):
        c = complexes[name]
        low, high = (-1.0, 1.0) if flavor == "ideal" else (0.2, 3.0)
        x = np.random.default_rng(m).uniform(low, high, (m, c.num_edges))
        kernel, cov, kx = _evaluate(c, x, flavor)
        assert cov.shape == (m,) and kx.shape == (m, c.num_edges)
        assert all(a.shape[:2] == (m, c.n_tets) for a in kernel)
        for i in range(m):
            value, grad = cov_complex(c, x[i], flavor)
            assert cov[i] == value and np.array_equal(kx[i], grad)
            assert float(kernel.vol[i].sum()) == volume_of_metric(c, x[i], flavor)
            assert np.array_equal(kx[i], cone_angles(c, kernel.angles[i]))
            alone = _evaluate(c, x[i : i + 1], flavor)[0]
            for got, want in zip(kernel, alone):
                assert np.array_equal(got[i], want[0])

    def test_an_ideal_covolume_past_the_range_keeps_its_bits_in_a_batch(self, fig8):
        # each tetrahedron's covolume 2 pi 1e306 fits DBL_MAX / T for the
        # complex's T = 2, but not DBL_MAX / (100 T), the batch's count
        x = np.full(fig8.num_edges, 1e306)
        alone = _evaluate(fig8, x[None], "ideal")[1]
        batch = _evaluate(fig8, np.tile(x, (100, 1)), "ideal")[1]
        assert alone[0] == cov_complex(fig8, x, "ideal")[0] == 4.0 * (math.pi * 1e306)
        assert np.array_equal(batch, np.full(100, alone[0]))


class TestVolume:
    def test_fig8_regular(self, fig8):
        a = np.full((2, 3), math.pi / 3)
        assert volume(fig8, a, "ideal") == pytest.approx(6 * lobachevsky(math.pi / 3), abs=1e-12)

    def test_zero_angle_per_tet_gives_zero(self, fig8):
        mu = 0.8
        a = np.array([[0.0, mu, math.pi - mu], [0.0, 0.3, math.pi - 0.3]])
        assert volume(fig8, a, "ideal") == pytest.approx(0.0, abs=1e-12)

    def test_doubled_hyper_matches_kernel(self, double_tet):
        a = np.full((2, 6), EQUI_ANGLE)
        expected = 2 * vol_hyper([ACOSH2] * 6, tol=1e-12)
        assert volume(double_tet, a, "hyper") == pytest.approx(expected, abs=1e-10)

    def test_hyper_type_three_unsupported(self, double_tet):
        al = 0.7
        row = [0.0, al, math.pi - al, 0.0, al, math.pi - al]
        a = np.array([row, [0.3] * 6])
        with pytest.raises(UnsupportedAngleTypeError):
            volume(double_tet, a, "hyper")

    def test_hyper_type_two_contributes_zero(self, double_tet):
        flat = [math.pi, 0, 0, math.pi, 0, 0]
        a = np.array([flat, flat])
        assert volume(double_tet, a, "hyper") == 0.0

    def test_hyper_near_flat_wall(self, double_tet):
        # 1e-7 short of the wall phi_0 = -1 along the flat family's first
        # length: the volume from the angles agrees with the one from the
        # lengths, which the kernel integrates there
        s = 0.7
        wall = math.acosh(2.0 * math.cosh(s) + 1.0)
        l = np.array([wall - 1e-7, s, s, wall, s, s])
        expected = 2 * vol_hyper(l, tol=1e-13)
        assert expected > 0.0
        a = angles_of_metric(double_tet, l, "hyper")
        assert volume(double_tet, a, "hyper") == pytest.approx(expected, abs=1e-12)
        assert volume_of_metric(double_tet, l, "hyper") == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "flavor, row, what",
        [
            ("ideal", [-0.1, 1.6, math.pi - 1.5], "nonnegative"),
            ("ideal", [1.0, 1.0, 1.0], "equal pi"),
            # vertex 0 carries slots 0, 1 and 2, whose sum is 3.6
            ("hyper", [1.2, 1.2, 1.2, 0.3, 0.3, 0.3], "at most pi"),
        ],
    )
    def test_invalid_assignments_raise(self, fig8, double_tet, flavor, row, what):
        c = fig8 if flavor == "ideal" else double_tet
        with pytest.raises(DomainError, match=what):
            volume(c, np.array([row, row]), flavor)

    def test_volume_of_metric_beyond_the_hyper_range_raises(self, double_tet):
        # the kernel gives these tetrahedra NaN volumes
        for l in ([1e13, 1, 1, 1, 1, 1], [800, 1, 1, 1, 1, 1]):
            with pytest.raises(NumericalError, match="outside the double range"):
                volume_of_metric(double_tet, l, "hyper")

    def test_volume_of_metric_ideal_matches_angles(self, fig8):
        l = np.array([0.3, -0.3])
        expected = volume(fig8, angles_of_metric(fig8, l, "ideal"), "ideal")
        assert volume_of_metric(fig8, l, "ideal") == expected


def hyper_volume_loop(c, a):
    """The per-tetrahedron loop the hyper branch of volume replaced."""
    total = 0.0
    for t in range(c.n_tets):
        row = np.clip(a[t], 0.0, math.pi)
        try:
            total += volume_from_angles(tuple(row))
        except UnsupportedAngleTypeError:
            raise UnsupportedAngleTypeError(
                f"tetrahedron {t} carries a type-III angle vector {a[t]}"
            ) from None
    return float(total)


class TestHyperVolumeAgainstLoop:
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_realized_flat_and_mixed(self, request, name):
        c = request.getfixturevalue(name)
        rng = np.random.default_rng(61)
        flat = [math.pi, 0, 0, math.pi, 0, 0]
        for _ in range(5):
            a = angles_of_metric(c, rng.uniform(0.5, 2.0, c.num_edges), "hyper")
            assert volume(c, a, "hyper") == pytest.approx(hyper_volume_loop(c, a), abs=1e-13)
            a[0] = flat
            assert volume(c, a, "hyper") == pytest.approx(hyper_volume_loop(c, a), abs=1e-13)

    def test_near_flat_wall(self, double_tet):
        s = 0.7
        wall = math.acosh(2.0 * math.cosh(s) + 1.0)
        a = angles_of_metric(double_tet, np.array([wall - 1e-7, s, s, wall, s, s]), "hyper")
        expected = hyper_volume_loop(double_tet, a)
        assert expected > 0.0
        assert volume(double_tet, a, "hyper") == pytest.approx(expected, abs=1e-13)

    def test_type_three_names_the_tetrahedron(self, fixtures_dir):
        with open(fixtures_dir / "double_tet.json") as fh:
            c = build_complex(GluingSpec.from_dict(disjoint_union(json.load(fh), 2)))
        al = 0.7
        a = np.full((4, 6), 0.3)
        a[2] = [0.0, al, math.pi - al, 0.0, al, math.pi - al]
        a[3] = a[2]
        with pytest.raises(UnsupportedAngleTypeError) as loop:
            hyper_volume_loop(c, a)
        with pytest.raises(UnsupportedAngleTypeError) as batched:
            volume(c, a, "hyper")
        assert str(batched.value) == str(loop.value)
        assert str(batched.value).startswith("tetrahedron 2 carries a type-III angle vector")


class TestCovComplex:
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_rejects_non_finite_metrics(self, fig8, flavor):
        for l in ([math.nan, 1.0], [1.0, math.inf]):
            with pytest.raises(DomainError, match="finite"):
                cov_complex(fig8, l, flavor)

    def test_fig8_ideal_at_zero(self, fig8):
        value, grad = cov_complex(fig8, np.zeros(2), "ideal")
        assert value == pytest.approx(12 * lobachevsky(math.pi / 3), abs=1e-10)
        assert np.allclose(grad, 2 * math.pi, atol=1e-12)

    def test_doubled_hyper_near_zero(self, double_tet):
        value, _ = cov_complex(double_tet, np.full(6, 1e-6), "hyper")
        assert value == pytest.approx(32 * lobachevsky(math.pi / 4), abs=1e-6)

    def test_decomposition_regression(self, double_tet):
        rng = np.random.default_rng(0)
        l = rng.uniform(-1, 1, 6)
        value, _ = cov_complex(double_tet, l, "ideal")
        per_tet = sum(cov_ideal(l[double_tet.edge_index[t]])[0] for t in range(2))
        assert value == pytest.approx(per_tet, abs=0.0)

    def test_gradient_fd_ideal(self, fig8, double_tet):
        rng = np.random.default_rng(1)
        for c in (fig8, double_tet):
            checked = 0
            while checked < 50:
                l = rng.uniform(-1.5, 1.5, c.num_edges)
                _, grad = cov_complex(c, l, "ideal")
                a = angles_of_metric(c, l, "ideal")
                if np.min(a) < 1e-2 or np.min(math.pi - a) < 1e-2:
                    continue  # stand off the degeneration cusp for FD
                fd = central_difference(lambda v: cov_complex(c, v, "ideal")[0], l, h=1e-6)
                assert np.allclose(fd, grad, rtol=1e-5, atol=1e-7)
                checked += 1

    def test_gradient_fd_hyper(self, double_tet):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 30:
            l = rng.uniform(0.3, 2.5, 6)
            _, grad = cov_complex(double_tet, l, "hyper", tol=1e-12)
            a = angles_of_metric(double_tet, l, "hyper")
            if np.min(a) < 5e-2 or np.min(math.pi - a) < 5e-2:
                continue
            fd = central_difference(
                lambda v: cov_complex(double_tet, v, "hyper", tol=1e-12)[0], l, h=1e-5
            )
            assert np.allclose(fd, grad, rtol=1e-5, atol=2e-6)
            checked += 1

    def test_gradient_is_cone_angles(self, fig8):
        rng = np.random.default_rng(3)
        for _ in range(20):
            l = rng.uniform(-1, 1, 2)
            _, grad = cov_complex(fig8, l, "ideal")
            a = angles_of_metric(fig8, l, "ideal")
            assert np.allclose(grad, cone_angles(fig8, a), atol=1e-12)

    def test_ideal_gradient_bit_equal_to_per_tet_accumulation(self, fig8, double_tet):
        rng = np.random.default_rng(9)
        for c in (fig8, double_tet):
            for _ in range(20):
                l = rng.uniform(-1, 1, c.num_edges)
                ref = np.zeros(c.num_edges)
                for t in range(c.n_tets):
                    np.add.at(ref, c.edge_index[t], np.asarray(cov_ideal(l[c.edge_index[t]])[1]))
                assert np.array_equal(cov_complex(c, l, "ideal")[1], ref)

    def test_ideal_quad_sum_consistency(self, fig8):
        # per tet, sum over quads of Lambda equals half the six-slot sum
        rng = np.random.default_rng(4)
        l = rng.uniform(-1, 1, 2)
        a = angles_of_metric(fig8, l, "ideal")
        for t in range(2):
            quad_sum = sum(lobachevsky(x) for x in a[t])
            slot_sum = sum(lobachevsky(x) for x in np.concatenate([a[t], a[t]]))
            assert quad_sum == pytest.approx(0.5 * slot_sum, abs=1e-12)

    def test_covolume_outside_the_double_range_raises(self, fig8):
        # the angles and the volume of these lengths are fig8's complete
        # structure; their covolume, about 4 pi 1e308, is no double
        with pytest.raises(NumericalError, match="outside the double range"):
            cov_complex(fig8, [1e308, 1e308], "ideal")
        assert volume_of_metric(fig8, [1e308, 1e308], "ideal") == pytest.approx(
            6 * lobachevsky(math.pi / 3), abs=1e-15
        )
        value, k = cov_complex(fig8, [1e307, 1e307], "ideal")
        assert value == pytest.approx(4 * math.pi * 1e307, rel=1e-15)
        assert np.allclose(k, 2 * math.pi, rtol=0.0, atol=1e-14)


class TestGaugeInvariance:
    def test_shifted_objective_invariant(self, fig8, double_tet):
        # cov(w + x) - <w + x, k> = cov(x) - <x, k> whenever k is the cone
        # angle vector of a nonnegative assignment
        rng = np.random.default_rng(5)
        for c in (fig8, double_tet):
            for _ in range(25):
                alpha = rng.dirichlet((1.0, 1.0, 1.0), size=c.n_tets) * math.pi
                k = cone_angles(c, alpha)
                x = rng.normal(0, 1, c.num_edges)
                w = rng.normal(0, 1, c.num_vertices)
                xg = gauge_apply(c, w, x)
                v0, _ = cov_complex(c, x, "ideal")
                v1, _ = cov_complex(c, xg, "ideal")
                assert (v1 - xg @ k) - (v0 - x @ k) == pytest.approx(0.0, abs=1e-9)
