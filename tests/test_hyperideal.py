"""Hyper-ideal kernel: cosine laws, degeneration geometry, convex covolume.

The analytically solvable families used as oracles:

* all edges equal to arccosh(2): vertex triangles are equilateral with side
  arccosh(2), phi = 2/3 everywhere, psi = 2;
* the one-parameter flat family l = (F(s), s, s, F(s), s, s) with
  F(s) = arccosh(2 cosh s + 1), which satisfies phi_pair0 = -1 exactly
  (derived by factoring the symmetric phi formula on this family), giving
  exact points of the flat-region wall with all-positive entries.
"""

import math
import warnings

import numpy as np
import pytest

from scipy.integrate import quad
from scipy.optimize import brentq

from hypmet import hyperideal

from hypmet.errors import (
    ConsistencyError,
    DomainError,
    NumericalError,
    UnsupportedAngleTypeError,
)
from hypmet.hyperideal import (
    COV_AT_ORIGIN,
    EDGE_VERTICES,
    classify_angles,
    classify_lengths,
    cov_hyper,
    flat_pairs,
    hyper_angles,
    hyper_angles_from_lengths,
    hyper_kernel,
    mu_segment_integral,
    phi,
    psi,
    vertex_edge_length,
    vol_hyper,
    volume_from_angles,
)
from hypmet.lobachevsky import lobachevsky

from oracles import (
    central_difference,
    lengths_of_angles,
    lobachevsky_quadrature,
    schlafli_angle_integral,
)

ACOSH2 = math.acosh(2.0)
EQUI_ANGLE = math.acos(2.0 / 3.0)
OCTA_VOL = 3.6638623767088760  # 8 Lambda(pi/4), frozen from the oracle


def flat_wall_point(s):
    """Exact point of the flat wall: phi on pair 0 equals -1."""
    f = math.acosh(2.0 * math.cosh(s) + 1.0)
    return np.array([f, s, s, f, s, s])


def reference_angles(l):
    """The scalar cosine law slot by slot, with math.cosh and math.acos.

    Unscaled, so it overflows once the cube of a cosh leaves double range.
    """
    cosh = {frozenset(e): (math.cosh(v) if v > 0.0 else 1.0) for e, v in zip(EDGE_VERTICES, l)}

    def face(u, v, w):
        ca, cb, cc = cosh[frozenset((u, v))], cosh[frozenset((u, w))], cosh[frozenset((v, w))]
        return 2.0 * ca * cb * cc + ca * ca + cb * cb + cc * cc - 1.0

    out = []
    for i, j in EDGE_VERTICES:
        k, h = sorted(set(range(4)) - {i, j})
        cij = cosh[frozenset((i, j))]
        if cij == 1.0:
            out.append(0.0)
            continue
        cik, cih = cosh[frozenset((i, k))], cosh[frozenset((i, h))]
        cjk, cjh = cosh[frozenset((j, k))], cosh[frozenset((j, h))]
        num = cik * cih + cjk * cjh + cij * (cik * cjh + cih * cjk) - (cij * cij - 1.0) * cosh[frozenset((k, h))]
        value = num / math.sqrt(face(*sorted((i, j, k))) * face(*sorted((i, j, h))))
        out.append(math.acos(min(1.0, max(-1.0, value))))
    return out


def regular_volume_schlafli():
    """Volume of the regular tetrahedron with lengths arccosh 2, by Schlaefli.

    Along the regular family with angle t, dV/dt = -3 arccosh(cos t / (2 cos t
    - 1)), from the regular ideal tetrahedron (t = pi/3, 3 Lambda(pi/3)).
    """
    integral, _ = quad(
        lambda t: math.acosh(math.cos(t) / (2.0 * math.cos(t) - 1.0)),
        EQUI_ANGLE,
        math.pi / 3.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return 3.0 * lobachevsky_quadrature(math.pi / 3.0) + 3.0 * integral


def oracle_cov(l):
    return COV_AT_ORIGIN + mu_segment_integral([0.0] * 6, l, tol=1e-12)


def sample_type_one(rng, lo=0.05, margin=0.05):
    """Rejection-sample a type-I interior angle vector."""
    while True:
        a = rng.uniform(lo, math.pi / 2, 6)
        sums = [a[0] + a[1] + a[2], a[0] + a[4] + a[5], a[1] + a[3] + a[5], a[2] + a[3] + a[4]]
        if max(sums) < math.pi - margin:
            return a


class TestVertexEdgeLength:
    def test_equilateral_fixed_point(self):
        assert vertex_edge_length(ACOSH2, ACOSH2, ACOSH2) == pytest.approx(ACOSH2, abs=1e-12)

    def test_equal_lengths_closed_form(self):
        # x = arccosh(cosh l / (cosh l - 1)), an algebraic simplification
        for l in (0.3, 0.9, 1.7, 3.0, 8.0):
            c = math.cosh(l)
            assert vertex_edge_length(l, l, l) == pytest.approx(
                math.acosh(c / (c - 1.0)), rel=1e-12
            )

    def test_shrinks_to_zero_at_large_lengths(self):
        assert vertex_edge_length(20.0, 20.0, 20.0) == pytest.approx(
            math.acosh(math.cosh(20.0) / (math.cosh(20.0) - 1.0)), rel=1e-5
        )
        assert vertex_edge_length(20.0, 20.0, 20.0) < 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            vertex_edge_length(0.0, 1.0, 1.0)


class TestPhi:
    def test_equilateral_value(self):
        assert phi([ACOSH2] * 6) == pytest.approx((2.0 / 3.0,) * 6, abs=1e-14)

    def test_tends_to_one_at_short_edge(self):
        values = phi([1e-8, 1.0, 1.2, 0.9, 1.1, 1.3])
        assert values[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [[0.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0, -0.5]])
    def test_rejects_non_positive_lengths(self, l):
        with pytest.raises(DomainError, match="strictly positive"):
            phi(l)

    def test_flat_wall_is_exactly_minus_one(self):
        for s in (0.2, 0.5, 1.0, 2.0):
            values = phi(flat_wall_point(s))
            assert values[0] == pytest.approx(-1.0, abs=1e-12)
            assert values[3] == pytest.approx(-1.0, abs=1e-12)
            # the four adjacent slots sit on the +1 wall simultaneously
            for s_adj in (1, 2, 4, 5):
                assert values[s_adj] == pytest.approx(1.0, abs=1e-12)

    def test_vertex_route_symmetry(self):
        # phi computed through either endpoint's vertex triangle agrees with
        # the symmetric formula (the two-route compatibility identity)
        from hypmet.hyperideal import EDGE_VERTICES

        def phi_from_vertex(l, slot, which):
            lv = {frozenset(EDGE_VERTICES[s]): l[s] for s in range(6)}
            i, j = EDGE_VERTICES[slot]
            if which == 1:
                i, j = j, i
            k, h = sorted(set(range(4)) - {i, j})

            def x(a, b, c):
                return vertex_edge_length(lv[frozenset((a, b))], lv[frozenset((a, c))], lv[frozenset((b, c))])

            xjk = x(i, j, k)
            xjh = x(i, j, h)
            xkh = x(i, k, h)
            return (math.cosh(xjk) * math.cosh(xjh) - math.cosh(xkh)) / (
                math.sinh(xjk) * math.sinh(xjh)
            )

        rng = np.random.default_rng(10)
        for _ in range(200):
            l = rng.uniform(0.3, 2.5, 6)
            symmetric = phi(l)
            for slot in range(6):
                a = phi_from_vertex(l, slot, 0)
                b = phi_from_vertex(l, slot, 1)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
                assert abs(a - symmetric[slot]) <= 1e-11 * max(1.0, abs(a))

    def test_flat_pair_exclusivity_ten_thousand_samples(self):
        rng = np.random.default_rng(11)
        violations = 0
        for _ in range(10_000):
            l = rng.uniform(0.05, 3.0, 6)
            values = phi(l)
            flat = {p for p in range(3) if values[p] <= -1.0 or values[p + 3] <= -1.0}
            if len(flat) > 1:
                violations += 1
        assert violations == 0


class TestClassifyLengths:
    def test_equilateral_hyper_ideal(self):
        assert classify_lengths([ACOSH2] * 6).kind == "hyper_ideal"

    def test_wall_is_flat_boundary(self):
        cls = classify_lengths(flat_wall_point(0.5))
        assert cls.kind == "flat_boundary"
        assert cls.pair == 0

    def test_deep_flat_interior(self):
        l = flat_wall_point(0.5)
        l[0] += 0.6
        l[3] += 0.6
        cls = classify_lengths(l)
        assert cls.kind == "flat_interior"
        assert cls.pair == 0
        assert min(cls.phi[0], cls.phi[3]) < -1.0

    def test_near_zero_length_stays_hyper_ideal(self):
        # some phi approaches 1 without any pair reaching -1: closure of L
        assert classify_lengths([1e-6, 1.0, 1.2, 0.9, 1.1, 1.3]).kind == "hyper_ideal"

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            classify_lengths([0.0, 1, 1, 1, 1, 1])

    def test_batched_rows_match_the_scalar_view(self):
        deep = flat_wall_point(0.5)[[1, 0, 2, 4, 3, 5]]  # the wall of pair 1
        deep[[1, 4]] += 0.6
        rows = [[ACOSH2] * 6, flat_wall_point(0.5), deep, [1e-6, 1.0, 1.2, 0.9, 1.1, 1.3]]
        pair, ph = flat_pairs(rows)
        assert pair.tolist() == [-1, 0, 1, -1]
        for row, p, values in zip(rows, pair, ph):
            cls = classify_lengths(row)
            assert cls.pair == (None if p < 0 else p) and cls.phi == tuple(values.tolist())

    def test_batched_errors_name_the_row(self):
        with pytest.raises(DomainError, match="tetrahedron 1 "):
            flat_pairs([[ACOSH2] * 6, [1.0, 1, 1, -0.5, 1, 1]])
        # a tolerance past 2 flags every pair of the equilateral row
        with pytest.raises(ConsistencyError, match="tetrahedron 0: two opposite pairs"):
            flat_pairs([[ACOSH2] * 6], tol=2.5)


class TestHyperAngles:
    def test_equilateral(self):
        a = hyper_angles_from_lengths([ACOSH2] * 6)
        assert a == pytest.approx((EQUI_ANGLE,) * 6, abs=1e-14)

    def test_nonpositive_length_gives_zero_angle(self):
        a = hyper_angles_from_lengths([-1.0, 1.0, 1.2, 0.9, 1.1, 1.3])
        assert a[0] == 0.0
        a = hyper_angles_from_lengths([0.0, 1.0, 1.2, 0.9, 1.1, 1.3])
        assert a[0] == 0.0

    def test_flat_region_pattern(self):
        l = flat_wall_point(0.7)
        l[0] += 0.4
        l[3] += 0.4
        assert hyper_angles_from_lengths(l) == (math.pi, 0.0, 0.0, math.pi, 0.0, 0.0)

    def test_opposite_slots_differ_in_general(self):
        a = hyper_angles_from_lengths([0.5, 1.0, 1.2, 0.9, 1.1, 1.3])
        assert abs(a[0] - a[3]) > 1e-3


class TestPsiAndRoundTrip:
    def test_equilateral(self):
        assert psi([EQUI_ANGLE] * 6) == pytest.approx((2.0,) * 6, abs=1e-14)

    def test_zero_angle_gives_psi_one(self):
        values = psi([0.0, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert values[0] == pytest.approx(1.0, abs=1e-14)

    def test_type_two_and_three_rejected(self):
        with pytest.raises(DomainError):
            psi([math.pi, 0, 0, math.pi, 0, 0])
        with pytest.raises(DomainError):
            psi([0.0, 0.7, math.pi - 0.7, 0.0, 0.7, math.pi - 0.7])

    def test_round_trip_five_hundred_points(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = sample_type_one(rng)
            lengths = lengths_of_angles(a)
            back = hyper_angles_from_lengths(lengths)
            assert np.max(np.abs(np.asarray(back) - a)) <= 1e-10


class TestClassifyAngles:
    def test_type_one(self):
        assert classify_angles([math.pi / 4] * 6) == "type_I"

    def test_type_two_all_three_pairs(self):
        for p in range(3):
            a = [0.0] * 6
            a[p] = math.pi
            a[p + 3] = math.pi
            assert classify_angles(a) == "type_II"

    def test_type_three_flat_one_parameter_family(self):
        for alpha in (0.3, 0.7, 1.5, 2.8):
            a = [0.0, alpha, math.pi - alpha, 0.0, alpha, math.pi - alpha]
            assert classify_angles(a) == "type_III"

    def test_outside_closure_rejected(self):
        with pytest.raises(DomainError):
            classify_angles([math.pi] * 6)
        with pytest.raises(DomainError):
            classify_angles([-0.1, 0.2, 0.2, 0.2, 0.2, 0.2])


class TestCovHyper:
    def test_base_point(self):
        assert cov_hyper([0.0] * 6) == pytest.approx(COV_AT_ORIGIN, abs=1e-12)
        assert COV_AT_ORIGIN == pytest.approx(16 * lobachevsky(math.pi / 4), abs=1e-14)

    def test_nonpositive_orthant_is_constant(self):
        assert cov_hyper([-2.0, -0.5, -1.0, -3.0, -0.1, -7.0]) == pytest.approx(
            COV_AT_ORIGIN, abs=1e-12
        )

    def test_path_independence(self):
        rng = np.random.default_rng(13)
        tol = 1e-11
        for _ in range(25):
            l = rng.uniform(-0.5, 2.5, 6)
            straight = mu_segment_integral([0.0] * 6, l, tol=tol)
            p = np.zeros(6)
            axis = 0.0
            for e in range(6):
                q = p.copy()
                q[e] = l[e]
                axis += mu_segment_integral(p, q, tol=tol)
                p = q
            assert abs(straight - axis) <= 2 * tol

    def test_gradient_matches_angles(self):
        """FD of cov vs the angle vector at 100+ points on both sides of the
        walls: hyper-ideal, flat interior, and clamped negative coordinates.
        Points too close to a wall are excluded: cov is C^1 but its gradient
        has a square-root modulus there, so central differences at step 1e-5
        are only meaningful at a standoff."""
        rng = np.random.default_rng(14)
        points = []
        while len(points) < 60:  # generic, mostly hyper-ideal
            points.append(rng.uniform(0.3, 2.5, 6))
        for _ in range(25):  # flat interiors
            l = flat_wall_point(rng.uniform(0.3, 1.2))
            l[0] += rng.uniform(0.3, 1.0)
            l[3] += rng.uniform(0.3, 1.0)
            points.append(l)
        for _ in range(15):  # clamped coordinates
            l = rng.uniform(0.4, 2.0, 6)
            l[rng.integers(0, 6)] = rng.uniform(-2.0, -0.5)
            points.append(l)
        checked = 0
        for l in points:
            ph = phi(np.maximum(l, 1e-9))
            # clamped slots (length <= 0) sit on their wall by construction,
            # but cov is locally constant in them, so only positive slots
            # need the cusp standoff
            standoff = min(
                (min(abs(ph[s] - 1.0), abs(ph[s] + 1.0)) for s in range(6) if l[s] > 0.01),
                default=1.0,
            )
            if standoff < 5e-3:
                continue
            a = np.asarray(hyper_angles_from_lengths(l))
            fd = central_difference(lambda v: cov_hyper(v, tol=1e-12), l, h=1e-5)
            assert np.allclose(fd, a, rtol=1e-5, atol=2e-6), (l, fd, a)
            checked += 1
        assert checked >= 90

    def test_midpoint_convexity_across_walls(self):
        rng = np.random.default_rng(15)
        tol = 1e-10
        for _ in range(200):
            inside = rng.uniform(0.4, 1.2, 6)  # typically in L
            l = flat_wall_point(rng.uniform(0.3, 1.0))
            l[0] += rng.uniform(0.2, 1.0)
            l[3] += rng.uniform(0.2, 1.0)
            outside = l + rng.uniform(-0.05, 0.05, 6)  # typically flat
            vm = cov_hyper(0.5 * (inside + outside), tol=tol)
            v1 = cov_hyper(inside, tol=tol)
            v2 = cov_hyper(outside, tol=tol)
            assert vm <= 0.5 * (v1 + v2) + 2 * tol


class TestVolHyper:
    def test_small_length_limit_is_octahedron(self):
        assert vol_hyper([1e-4] * 6) == pytest.approx(OCTA_VOL, abs=1e-4)

    @pytest.mark.parametrize("l", [[0.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -2.0, 1.0, 1.0, 1.0]])
    def test_rejects_non_positive_lengths(self, l):
        with pytest.raises(DomainError, match="strictly positive"):
            vol_hyper(l)

    def test_flat_region_volume_vanishes(self):
        for s, bump in ((0.4, 0.5), (0.8, 0.3), (1.1, 1.0)):
            l = flat_wall_point(s)
            l[0] += bump
            l[3] += bump
            assert abs(vol_hyper(l, tol=1e-11)) <= 1e-9

    def test_monotone_ideal_limit_at_long_lengths(self):
        # Along the diagonal the vertex triangles shrink to ideal vertices:
        # every angle increases toward pi/3 and the volume decreases toward
        # the regular ideal tetrahedron volume 3 Lambda(pi/3).  (Continuity
        # of vol on the closed angle polytope; the all-angles-to-zero,
        # volume-to-zero limit sometimes quoted for this path is a
        # misreading: angle zero happens at short edges, not long ones.)
        previous_vol = None
        previous_angle = None
        for t in (1.0, 2.0, 4.0, 8.0, 12.0):
            a = hyper_angles_from_lengths([t] * 6)
            v = vol_hyper([t] * 6)
            if previous_vol is not None:
                assert v <= previous_vol + 1e-9
                assert a[0] >= previous_angle - 1e-9
            previous_vol, previous_angle = v, a[0]
        assert previous_angle == pytest.approx(math.pi / 3, abs=1e-5)
        assert previous_vol == pytest.approx(3 * lobachevsky(math.pi / 3), abs=2e-4)

    def test_schlafli_in_angle_space(self):
        # FD of vol along angle coordinates equals -l/2 (step 1e-5)
        rng = np.random.default_rng(16)
        for _ in range(30):
            a = sample_type_one(rng, lo=0.3, margin=0.25)
            lengths = lengths_of_angles(a)

            def vol_at(angles):
                return vol_hyper(lengths_of_angles(angles), tol=1e-12)

            fd = central_difference(vol_at, a, h=1e-5)
            assert np.allclose(fd, -lengths / 2.0, rtol=1e-4, atol=1e-7)

    def test_agrees_with_angle_space_integral_oracle(self):
        a0 = np.full(6, EQUI_ANGLE)
        a1 = np.array([0.9, 0.7, 0.8, 0.75, 0.85, 0.65])
        delta_oracle = schlafli_angle_integral(a0, a1, n=200)
        delta_cov = vol_hyper(lengths_of_angles(a1), tol=1e-12) - vol_hyper(
            lengths_of_angles(a0), tol=1e-12
        )
        assert delta_oracle == pytest.approx(delta_cov, abs=1e-10)


class TestVolumeFromAngles:
    def test_round_trip_matches_length_route(self):
        v_angles = volume_from_angles([EQUI_ANGLE] * 6)
        v_lengths = vol_hyper([ACOSH2] * 6)
        assert v_angles == pytest.approx(v_lengths, abs=1e-12)

    def test_type_two_is_flat(self):
        assert volume_from_angles([math.pi, 0, 0, math.pi, 0, 0]) == 0.0

    def test_type_three_unsupported(self):
        with pytest.raises(UnsupportedAngleTypeError):
            volume_from_angles([0.0, 0.7, math.pi - 0.7, 0.0, 0.7, math.pi - 0.7])

    def test_zero_angle_against_schlafli_oracle(self):
        # closed form on the boundary stratum: volume differences from the
        # regular point match the angle-space Schlaefli integral
        rng = np.random.default_rng(26)
        regular = np.full(6, EQUI_ANGLE)
        for _ in range(12):
            a = sample_type_one(rng, lo=0.3, margin=0.2)
            a[rng.integers(6)] = 0.0
            delta = schlafli_angle_integral(regular, a)
            got = volume_from_angles(a) - volume_from_angles(regular)
            assert abs(got - delta) <= 1e-12

    def test_boundary_stratum_zero_angle(self):
        # one zero angle: length 0 on that slot; the closed form covers it
        a = [0.0, 0.5, 0.6, 0.55, 0.65, 0.45]
        v = volume_from_angles(a)
        assert v > 0.0
        inner = [1e-4, 0.5, 0.6, 0.55, 0.65, 0.45]
        v_in = volume_from_angles(inner)
        assert v == pytest.approx(v_in, abs=1e-3)

    def test_near_wall_matches_length_route(self):
        # angles from lengths 1e-3 ... 1e-11 short of a flat wall: the closed
        # form on them agrees with the kernel's volume of the lengths, which
        # integrates there instead
        rng = np.random.default_rng(27)
        for wall, d in wall_crossing_rays(rng, 6):
            for k in range(3, 12, 2):
                l = wall - 10.0**-k * d
                v = volume_from_angles(hyper_angles_from_lengths(l))
                assert abs(v - vol_hyper(l, tol=1e-13)) <= 1e-12

    def test_near_wall_against_oracle(self):
        # 1e-7 short of a flat wall; the volume from the quadrature oracle
        # is (cov - sum a l) / 2
        rng = np.random.default_rng(28)
        for wall, d in wall_crossing_rays(rng, 3):
            l = wall - 1e-7 * d
            a = hyper_angles_from_lengths(l)
            oracle = 0.5 * (oracle_cov(l) - float(np.dot(a, l)))
            assert abs(volume_from_angles(a) - oracle) <= 1e-10

    def test_linear_toward_flat_pattern(self):
        # on the ray a(t) = flat + t (a - flat) the volume is c t + O(t^3);
        # two points fix c, and the closed form must follow the line down to
        # t = 1e-9, where the Gram determinant is of order 1e-55
        rng = np.random.default_rng(29)
        for p in range(3):
            flat = np.zeros(6)
            flat[[p, p + 3]] = math.pi
            direction = np.zeros(6)
            direction[[p, p + 3]] = -rng.uniform(0.5, 1.0, 2)
            others = [s for s in range(6) if s not in (p, p + 3)]
            direction[others] = rng.uniform(0.05, 0.2, 4)
            assert classify_angles(flat + 0.01 * direction) == "type_I"

            def slope(t):
                return volume_from_angles(flat + t * direction) / t

            c = (100.0 * slope(1e-3) - slope(1e-2)) / 99.0
            assert c > 0.0
            for t in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
                assert abs(volume_from_angles(flat + t * direction) - c * t) <= 1e-14


class TestHyperKernel:
    def test_angles_match_scalar_cosine_law(self):
        rng = np.random.default_rng(20)
        lengths = np.vstack(
            [
                rng.uniform(-0.5, 3.0, (300, 6)),
                rng.uniform(0.0, 1e-7, (30, 6)),
                rng.uniform(0.0, 60.0, (100, 6)),
                np.hstack([rng.uniform(70.0, 110.0, (50, 1)), rng.uniform(0.1, 3.0, (50, 5))]),
            ]
        )
        got = hyper_angles(lengths)
        ref = np.array([reference_angles(l) for l in lengths])
        # cosines, because arccos near +-1 magnifies roundoff in its argument
        np.testing.assert_allclose(np.cos(got), np.cos(ref), rtol=0, atol=1e-14)

    def test_batch_rows_match_single_tetrahedron_views(self):
        rng = np.random.default_rng(21)
        lengths = rng.uniform(-0.5, 3.0, (40, 6))
        lengths[:5] = flat_wall_point(0.6) + [0.3, 0, 0, 0.3, 0, 0]
        kernel = hyper_kernel(lengths)
        for t, l in enumerate(lengths):
            assert kernel.cov[t] == pytest.approx(cov_hyper(l), abs=1e-13)
            assert kernel.angles[t].tolist() == list(hyper_angles_from_lengths(l))
        assert np.all(kernel.vol[:5] == 0.0)

    def test_rows_do_not_depend_on_the_batch(self):
        # every field of a row has the same bits whatever rows share its
        # call: flat and near-wall rows, and rows up to 64 long, which take
        # the unscaled cosine law alone and the scaled one next to a row
        # with a longer edge
        rng = np.random.default_rng(22)
        near_wall = flat_wall_point(0.6) - [1e-9, 0, 0, 1e-9, 0, 0]
        for _ in range(200):
            lengths = rng.uniform(-0.5, 3.0, (int(rng.integers(2, 26)), 6))
            lengths[rng.random(len(lengths)) < 0.2] = flat_wall_point(0.6) + [0.3, 0, 0, 0.3, 0, 0]
            lengths[rng.random(len(lengths)) < 0.05] = near_wall
            lengths[rng.random(len(lengths)) < 0.1, 0] += 70.0
            top = np.flatnonzero((rng.random(len(lengths)) < 0.1) & (lengths.max(axis=1) < 64.0))
            lengths[top, rng.integers(0, 6, len(top))] = 64.0
            kernel = hyper_kernel(lengths)
            for t in range(len(lengths)):
                for got, want in zip(kernel, hyper_kernel(lengths[t : t + 1])):
                    assert np.array_equal(got[t], want[0])

    def test_long_flat_pair_does_not_overflow(self):
        # cosh(400) overflows a double's cube: the scaled cosine law still
        # finds the flat pattern
        a = hyper_angles_from_lengths([400.0, 1.0, 1.0, 400.0, 1.0, 1.0])
        assert a == (math.pi, 0.0, 0.0, math.pi, 0.0, 0.0)
        assert vol_hyper([400.0, 1.0, 1.0, 400.0, 1.0, 1.0]) == 0.0

    def test_long_regular_lengths_tend_to_regular_ideal(self):
        a = hyper_angles_from_lengths([800.0] * 6)
        assert a == pytest.approx((math.pi / 3,) * 6, abs=1e-15)
        assert vol_hyper([800.0] * 6) == pytest.approx(3 * lobachevsky(math.pi / 3), abs=1e-12)
        assert math.isfinite(cov_hyper([800.0] * 6))
        assert hyper_angles_from_lengths([1e5] * 6) == pytest.approx((math.pi / 3,) * 6, abs=1e-15)

    def test_range_of_one_long_edge(self):
        # one scale per tetrahedron: the face of length-1 edges opposite a
        # long edge shrinks like the cube of that scale and leaves double
        # range once the long edge passes about 216
        l = [170.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        np.testing.assert_allclose(
            np.cos(hyper_angles_from_lengths(l)), np.cos(reference_angles(l)), rtol=0, atol=1e-14
        )
        flat = (math.pi, 0.0, 0.0, math.pi, 0.0, 0.0)
        assert hyper_angles_from_lengths([215.0, 1.0, 1.0, 1.0, 1.0, 1.0]) == flat
        with pytest.raises(NumericalError):
            hyper_angles_from_lengths([217.0, 1.0, 1.0, 1.0, 1.0, 1.0])

    def test_unevaluable_lengths_raise_typed_error(self):
        # one edge e^800 times longer than a whole face, or lengths whose
        # cosh no binary exponent can hold: no double carries the cosine law
        for l in ([800.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0, 900.0], [1e300] * 6):
            with pytest.raises(NumericalError):
                hyper_angles_from_lengths(l)
            with pytest.raises(NumericalError):
                cov_hyper(l)

    @pytest.mark.parametrize("band_fails", [False, True])
    def test_rows_it_cannot_evaluate_come_back_nan(self, monkeypatch, band_fails):
        # a length above 1e12, one edge of 800 next to length-1 edges and,
        # with the quadrature patched, a band row whose integral does not
        # converge: those rows are NaN in phi, the angles, cov and vol, and
        # every other row keeps the bits it gets alone; nothing warns
        good = np.array(
            [
                flat_wall_point(0.6) + [0.3, 0, 0, 0.3, 0, 0],  # flat
                flat_wall_point(0.6) - [1e-9, 0, 0, 1e-9, 0, 0],  # near-wall band
                [-0.5, 1.0, 1.2, 0.9, 1.1, 1.3],  # clamped
                [64.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                [70.0, 1.0, 1.2, 0.9, 1.1, 1.3],
                [750.0, 720.0, 760.0, 740.0, 730.0, 705.0],
            ]
        )
        lengths = np.vstack([[1e13, 1.0, 1.0, 1.0, 1.0, 1.0], good, [800.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        lost = np.array([True] + [band_fails and t == 1 for t in range(len(good))] + [True])
        if band_fails:
            monkeypatch.setattr(hyperideal, "quad", lambda *args, **kwargs: (0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = hyper_kernel(lengths)
            alone = [hyper_kernel(lengths[t : t + 1]) for t in range(len(lengths))]
        for field in (kernel.phi, kernel.angles, kernel.cov, kernel.vol):
            rows = field.reshape(len(lengths), -1)
            assert np.all(np.isnan(rows[lost])) and not np.isnan(rows[~lost]).any()
        for t in range(len(lengths)):
            for got, want in zip(kernel, alone[t]):
                assert np.array_equal(got[t], want[0], equal_nan=True)

    def test_rejects_bad_batches(self):
        with pytest.raises(DomainError):
            hyper_kernel(np.ones((2, 5)))
        with pytest.raises(DomainError):
            hyper_angles([[1.0, 1.0, math.nan, 1.0, 1.0, 1.0]])


def wall_crossing_rays(rng, count):
    """Segments from a point of L into a flat region, with their wall point.

    Yields (wall point, unit direction into the flat region).
    """
    made = 0
    while made < count:
        inside = rng.uniform(0.05, 3.0, 6)
        if min(phi(inside)) <= -0.9:
            continue
        outside = rng.uniform(0.05, 3.0, 6)
        p = rng.integers(3)
        outside[p] += rng.uniform(1.0, 4.0)
        outside[p + 3] += rng.uniform(1.0, 4.0)
        if min(phi(outside)) > -1.0:
            continue
        d = outside - inside
        t = brentq(lambda t: min(phi(inside + t * d)) + 1.0, 0.0, 1.0, xtol=1e-15)
        made += 1
        yield inside + t * d, d / np.linalg.norm(d)


class TestClosedFormGate:
    """The closed-form covolume against the quadrature oracle, to 1e-10."""

    GATE = 1e-10

    def test_random_points_of_l(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 40:
            l = rng.uniform(0.05, 3.0, 6)
            if classify_lengths(l).kind != "hyper_ideal":
                continue
            assert abs(cov_hyper(l) - oracle_cov(l)) <= self.GATE
            checked += 1

    def test_wall_crossing_rays_both_sides(self):
        # 44 rays, each at two of the offsets 1e-1 ... 1e-11 on both sides
        # of the wall, so that every offset is visited 8 times per side; the
        # near-wall band takes over where the closed form loses accuracy
        rng = np.random.default_rng(23)
        offsets = [10.0**-k for k in range(1, 12)]
        worst = 0.0
        for i, (wall, d) in enumerate(wall_crossing_rays(rng, 44)):
            for off in (offsets[i % 11], offsets[(i + 5) % 11]):
                for side in (-1.0, 1.0):
                    l = wall + side * off * d
                    worst = max(worst, abs(cov_hyper(l) - oracle_cov(l)))
        assert worst <= self.GATE

    def test_band_next_to_wall(self):
        # 1e-12 ... 1e-14 short of a wall the covolume is the flat one,
        # pi (l_p + l_{p+3}), up to the offset to the power 3/2; angles
        # computed from such lengths carry the closed form no closer than
        # about 1e-9, so this is the near-wall band's work
        rng = np.random.default_rng(30)
        for wall, d in wall_crossing_rays(rng, 6):
            p = int(np.argmin(np.minimum(phi(wall)[:3], phi(wall)[3:])))
            for off in (1e-12, 1e-13, 1e-14):
                l = wall - off * d
                assert abs(cov_hyper(l) - math.pi * (l[p] + l[p + 3])) <= 1e-13

    def test_flat_interiors(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            l = flat_wall_point(rng.uniform(0.3, 1.2))
            l[0] += rng.uniform(0.1, 1.0)
            l[3] += rng.uniform(0.1, 1.0)
            assert abs(cov_hyper(l) - oracle_cov(l)) <= self.GATE
            assert cov_hyper(l) == pytest.approx(math.pi * (l[0] + l[3]), abs=1e-12)

    def test_zero_and_negative_slots(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            l = rng.uniform(0.2, 2.5, 6)
            picked = rng.choice(6, size=rng.integers(1, 4), replace=False)
            l[picked] = rng.choice([0.0, -0.7, -2.0], size=len(picked))
            assert abs(cov_hyper(l) - oracle_cov(l)) <= self.GATE
            assert cov_hyper(l) == cov_hyper(np.maximum(l, 0.0))

    def test_origin(self):
        assert abs(cov_hyper([0.0] * 6) - COV_AT_ORIGIN) <= 1e-14
        assert abs(cov_hyper([0.0] * 6) - oracle_cov([1e-12] * 6)) <= self.GATE

    def test_regular_point_against_schlafli(self):
        vol = regular_volume_schlafli()
        expected = 2.0 * vol + 6.0 * EQUI_ANGLE * ACOSH2
        assert abs(cov_hyper([ACOSH2] * 6) - expected) <= self.GATE
        assert abs(vol_hyper([ACOSH2] * 6) - vol) <= self.GATE
        assert abs(oracle_cov([ACOSH2] * 6) - expected) <= self.GATE
