"""Decorated ideal tetrahedron kernel: examples, gradients, convexity, and the
batched kernel against the scalar per-tetrahedron reference it replaced."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmet.errors import DomainError, NumericalError
from hypmet.ideal import (
    _log_side_kernel,
    cov_ideal,
    ideal_kernel,
    ideal_lengths_to_angles,
    ideal_volume,
    is_decorated_ideal,
    penner_angle,
    phi_star,
    triangle_angles,
)
from hypmet.lobachevsky import lobachevsky

from oracles import central_difference

LN2 = math.log(2.0)
REGULAR_VOL = 1.0149416064096539  # 3 Lambda(pi/3), frozen from the oracle


def _ref_angles_from_sides(x1, x2, x3):
    """The scalar angle map the batched kernel replaced, kept as its reference.

    Inner angles (a1, a2, a3) of the generalized Euclidean triangle with
    sides x_i > 0, a_i opposite x_i; the largest angle is pi minus the other
    two, and a side at least the sum of the others gives (pi, 0, 0).
    """
    sides = (x1, x2, x3)
    order = sorted(range(3), key=lambda i: sides[i])
    ic, ib, ia = order  # ascending: x[ic] <= x[ib] <= x[ia]
    a, b, c = sides[ia], sides[ib], sides[ic]
    t2 = c - (a - b)
    out = [0.0, 0.0, 0.0]
    if t2 <= 0.0:
        out[ia] = math.pi
        return tuple(out)
    t1 = a + (b + c)
    t3 = c + (a - b)
    t4 = a + (b - c)
    ang_b = 2.0 * math.atan2(math.sqrt(t2 * t4), math.sqrt(t1 * t3))
    ang_c = 2.0 * math.atan2(math.sqrt(t2 * t3), math.sqrt(t1 * t4))
    out[ib] = ang_b
    out[ic] = ang_c
    out[ia] = math.pi - ang_b - ang_c
    return tuple(out)


def _ref_phi_star(y1, y2, y3):
    """Scalar phi_star reference: (value, angles) from log sides."""
    m = max(y1, y2, y3)
    a = _ref_angles_from_sides(math.exp(y1 - m), math.exp(y2 - m), math.exp(y3 - m))
    value = sum(lobachevsky(ai) + ai * yi for ai, yi in zip(a, (y1, y2, y3)))
    return value, a


def _ref_kernel(rows):
    """Per-row (angles, cov, vol) from the scalar reference, as arrays."""
    angles, cov, vol = [], [], []
    for l in rows:
        y = [0.5 * (l[p] + l[p + 3]) for p in range(3)]
        value, a = _ref_phi_star(*y)
        angles.append(a)
        cov.append(2.0 * value)
        vol.append(sum(lobachevsky(ai) for ai in a))
    return np.array(angles), np.array(cov), np.array(vol)


def _near_flat_rows(deltas):
    """Labels with sides (1, s, s), 2 s = 1 - delta: past the flat frontier for delta > 0."""
    rows = []
    for d in deltas:
        ys = math.log(0.5 * (1.0 - d))
        rows.append([0.0, ys, ys, 0.0, ys, ys])
    return np.array(rows)


class TestTriangleAngles:
    def test_equilateral(self):
        assert triangle_angles(1, 1, 1) == pytest.approx((math.pi / 3,) * 3, abs=1e-15)

    def test_degenerate_collapses(self):
        assert triangle_angles(3, 1, 1) == (math.pi, 0.0, 0.0)
        assert triangle_angles(1, 3, 1) == (0.0, math.pi, 0.0)
        assert triangle_angles(2, 1, 1) == (math.pi, 0.0, 0.0)  # tie included

    def test_right_triangle(self):
        a = triangle_angles(3, 4, 5)
        assert a[0] == pytest.approx(math.asin(3 / 5), abs=1e-12)
        assert a[1] == pytest.approx(math.asin(4 / 5), abs=1e-12)
        assert a[2] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            triangle_angles(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            triangle_angles(1.0, -2.0, 1.0)

    @given(
        st.tuples(
            st.floats(0.01, 100.0),
            st.floats(0.01, 100.0),
            st.floats(0.01, 100.0),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_is_pi_and_permutation_equivariant(self, sides):
        a = triangle_angles(*sides)
        assert abs(sum(a) - math.pi) <= 1e-12
        assert all(0.0 <= x <= math.pi for x in a)
        rolled = triangle_angles(sides[1], sides[2], sides[0])
        assert rolled == pytest.approx((a[1], a[2], a[0]), abs=1e-12)


class TestPennerAngle:
    def test_examples(self):
        assert penner_angle(0, 0, 0) == 1.0
        assert penner_angle(2, 1, 1) == 1.0
        assert penner_angle(0, 1, 1) == pytest.approx(math.exp(-1), abs=1e-16)

    def test_cosine_law_regression(self):
        # same formula as the cosine law display; guards against edits
        rng = np.random.default_rng(0)
        for l1, l2, l3 in rng.normal(0.0, 2.0, (100, 3)):
            assert penner_angle(l1, l2, l3) == math.exp(0.5 * (l1 - l2 - l3))


class TestLengthsToAngles:
    def test_zero_lengths_regular(self):
        a = ideal_lengths_to_angles([0.0] * 6)
        assert a == pytest.approx((math.pi / 3,) * 6, abs=1e-15)

    def test_degenerate_sides_4_1_1(self):
        a = ideal_lengths_to_angles([2 * LN2, 0, 0, 2 * LN2, 0, 0])
        assert a == (math.pi, 0.0, 0.0, math.pi, 0.0, 0.0)

    def test_degenerate_sides_3_1_1_one_sided(self):
        a = ideal_lengths_to_angles([0, 0, 0, 2 * math.log(3), 0, 0])
        assert a == (math.pi, 0.0, 0.0, math.pi, 0.0, 0.0)

    def test_huge_lengths_never_overflow(self):
        a = ideal_lengths_to_angles([800.0, 0, 0, 800.0, 0, 0])
        assert a[0] == math.pi
        a = ideal_lengths_to_angles([-900.0, 100.0, 0, -900.0, 100.0, 0])
        assert abs(sum(a[:3]) - math.pi) <= 1e-12

    def test_opposite_slots_exactly_equal(self):
        rng = np.random.default_rng(1)
        for l in rng.uniform(-2, 2, (50, 6)):
            a = ideal_lengths_to_angles(l)
            assert a[0] == a[3] and a[1] == a[4] and a[2] == a[5]
            assert abs(a[0] + a[1] + a[2] - math.pi) <= 1e-12


class TestIsDecoratedIdeal:
    def test_zero_is_ideal(self):
        assert is_decorated_ideal([0.0] * 6)

    def test_sides_4_1_1_is_not(self):
        assert not is_decorated_ideal([2 * LN2, 0, 0, 2 * LN2, 0, 0])

    def test_tie_is_not_ideal_but_interior_is(self):
        # sides (2,1,1) sit exactly on the frontier (1 + 1 = 2), so the
        # strict inequalities fail; sides (1.5,1,1) are strictly inside
        assert not is_decorated_ideal([LN2, 0, 0, LN2, 0, 0])
        r = math.log(1.5)
        assert is_decorated_ideal([r, 0, 0, r, 0, 0])

    def test_agrees_with_the_triangle_inequalities(self):
        # the rule is_decorated_ideal checked before it became a view of the kernel
        def strict_triangle(l):
            y = [0.5 * (l[p] + l[p + 3]) for p in range(3)]
            x = [math.exp(v - max(y)) for v in y]
            return all(x[j] + x[k] > x[i] for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))

        rows = np.random.default_rng(21).uniform(-3.0, 3.0, (2000, 6))
        got = [is_decorated_ideal(l) for l in rows]
        assert got == [strict_triangle(l) for l in rows]
        assert 0 < sum(got) < len(got)
        with pytest.raises(DomainError, match="edge labels"):
            is_decorated_ideal([0.0] * 5)
        with pytest.raises(DomainError, match="edge labels"):
            is_decorated_ideal([math.nan] + [0.0] * 5)


class TestIdealVolume:
    def test_regular(self):
        assert ideal_volume([math.pi / 3] * 6) == pytest.approx(REGULAR_VOL, abs=1e-12)
        # duplication identity: 3 Lambda(pi/3) = 2 Lambda(pi/6)
        assert ideal_volume([math.pi / 3] * 6) == pytest.approx(
            2 * lobachevsky(math.pi / 6), abs=1e-10
        )

    def test_flat_is_zero(self):
        assert ideal_volume([math.pi, 0, 0, math.pi, 0, 0]) == 0.0

    def test_octahedron_quarter_is_catalan(self):
        a = (math.pi / 2, math.pi / 4, math.pi / 4) * 2
        assert ideal_volume(a) == pytest.approx(0.9159655941772190, abs=1e-12)

    def test_nonnegative_on_random_angles(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.dirichlet((1, 1, 1)) * math.pi
            assert ideal_volume(tuple(x) + tuple(x)) >= 0.0

    def test_invalid_angles_rejected(self):
        with pytest.raises(DomainError):
            ideal_volume([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # sum != pi
        with pytest.raises(DomainError):
            ideal_volume([math.pi / 3] * 3 + [math.pi / 3, 0.1, math.pi / 3])

    def test_negative_angle_rejected(self):
        # opposite slots agree and the quads sum to pi, but one angle is negative
        with pytest.raises(DomainError, match="nonnegative"):
            ideal_volume([-0.1, 1.6, math.pi - 1.5] * 2)


class TestPhiStar:
    @pytest.mark.parametrize("y", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
    def test_non_finite_arguments_rejected(self, y):
        with pytest.raises(DomainError, match="finite"):
            phi_star(*y)

    def test_at_origin(self):
        value, grad = phi_star(0.0, 0.0, 0.0)
        assert value == pytest.approx(REGULAR_VOL, abs=1e-12)
        assert grad == pytest.approx((math.pi / 3,) * 3, abs=1e-15)

    def test_degenerate_closed_form_is_exact(self):
        value, grad = phi_star(2.0, 0.0, 0.0)
        assert value == 2.0 * math.pi  # exactly pi * y_1
        assert grad == (math.pi, 0.0, 0.0)

    def test_diagonal_shift_adds_k_pi(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y = rng.normal(0, 1.5, 3)
            k = rng.normal()
            v0, _ = phi_star(*y)
            v1, _ = phi_star(*(y + k))
            assert v1 - v0 == pytest.approx(k * math.pi, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
            y = rng.uniform(-1.5, 1.5, 3)
            m = max(y)
            x = np.exp(y - m)
            slacks = [x[j] + x[k] - x[i] for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
            if min(abs(s) for s in slacks) < 1e-2:
                continue  # FD needs standoff from the sqrt-cusp frontier
            _, grad = phi_star(*y)
            fd = central_difference(lambda v: phi_star(*v)[0], y, h=1e-6)
            assert np.allclose(fd, grad, rtol=1e-5, atol=1e-7)
            checked += 1

    @pytest.mark.parametrize("y", [(1e308,) * 3, (-1e308,) * 3, (1e308, 0.0, 0.0)])
    def test_covolume_past_the_float_limit_raises(self, y):
        # pi * 1e308 leaves the double range: a typed error, no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                phi_star(*y)

    def test_covolume_near_the_float_limit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = phi_star(1e307, 1e307, 1e307)
        assert value == pytest.approx(math.pi * 1e307, rel=1e-15)
        assert grad == pytest.approx((math.pi / 3,) * 3, abs=1e-15)


class TestCovIdeal:
    @pytest.mark.parametrize("l", [[1e308] * 6, [-1e308] * 6, [1e308, 1e308, 0, 1e308, 0, 0]])
    def test_covolume_past_the_float_limit_raises(self, l):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                cov_ideal(l)

    def test_covolume_near_the_float_limit(self):
        value, grad = cov_ideal([1e307] * 6)
        assert value == pytest.approx(2 * math.pi * 1e307, rel=1e-15)
        assert grad == pytest.approx((math.pi / 3,) * 6, abs=1e-15)

    def test_at_origin(self):
        value, grad = cov_ideal([0.0] * 6)
        assert value == pytest.approx(2 * REGULAR_VOL, abs=1e-10)
        assert grad == pytest.approx((math.pi / 3,) * 6, abs=1e-15)

    def test_degenerate_value_and_gradient(self):
        value, grad = cov_ideal([2 * LN2, 0, 0, 2 * LN2, 0, 0])
        assert value == pytest.approx(4 * math.pi * LN2, abs=1e-12)
        assert grad == (math.pi, 0.0, 0.0, math.pi, 0.0, 0.0)

    def test_gradient_matches_finite_differences(self):
        # includes genuinely degenerate samples; skips only frontier grazers
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            l = rng.uniform(-2.0, 2.0, 6)
            y = np.array([0.5 * (l[p] + l[p + 3]) for p in range(3)])
            x = np.exp(y - y.max())
            slacks = [x[j] + x[k] - x[i] for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
            if min(abs(s) for s in slacks) < 1e-2:
                continue
            _, grad = cov_ideal(l)
            fd = central_difference(lambda v: cov_ideal(v)[0], l, h=1e-6)
            assert np.allclose(fd, grad, rtol=1e-5, atol=1e-7)
            checked += 1

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            l1 = rng.uniform(-2, 2, 6)
            l2 = rng.uniform(-2, 2, 6)
            vm, _ = cov_ideal(0.5 * (l1 + l2))
            v1, _ = cov_ideal(l1)
            v2, _ = cov_ideal(l2)
            assert vm <= 0.5 * (v1 + v2) + 1e-12

    def test_continuity_at_degeneration_frontier(self):
        # sides (2,1,1): the limit from both sides is the (pi,0,0) pattern
        base = np.array([2 * LN2, 0, 0, 0, 0, 0])
        at = np.asarray(cov_ideal(base)[1])
        for delta in (1e-16, 1e-17):
            inside = base.copy()
            inside[0] -= delta
            outside = base.copy()
            outside[0] += delta
            for probe in (inside, outside):
                a = np.asarray(cov_ideal(probe)[1])
                assert np.max(np.abs(a - at)) <= 1e-8

    def test_gauge_shift_moves_value_by_gradient_pairing(self):
        # shifting by a per-vertex decoration change w adds sum_slots a_s * shift_s
        # to cov up to second order is exact here because the angle part is
        # invariant: cov(l + d) - cov(l) = pi * sum(w) for the 4-vertex action
        rng = np.random.default_rng(7)
        for _ in range(50):
            l = rng.uniform(-1.5, 1.5, 6)
            w = rng.normal(0, 1, 4)
            # slot s joins vertices u, v: shift_s = w_u + w_v
            from hypmet.hyperideal import EDGE_VERTICES

            shift = np.array([w[u] + w[v] for u, v in EDGE_VERTICES])
            v0, a0 = cov_ideal(l)
            v1, a1 = cov_ideal(l + shift)
            assert np.allclose(a0, a1, atol=1e-9)
            assert v1 - v0 == pytest.approx(math.pi * w.sum(), abs=1e-9)


class TestIdealKernel:
    """ideal_kernel against the scalar reference, and its T = 1 views."""

    def test_random_rows_match_reference(self):
        rows = np.random.default_rng(11).uniform(-3.0, 3.0, (400, 6))
        k = ideal_kernel(rows)
        angles, cov, vol = _ref_kernel(rows)
        assert k.angles.shape == (400, 3) and k.cov.shape == (400,) and k.vol.shape == (400,)
        assert np.max(np.abs(k.angles - angles)) <= 1e-13
        assert np.max(np.abs(k.cov - cov)) <= 1e-12
        assert np.max(np.abs(k.vol - vol)) <= 1e-13
        assert np.max(np.abs(k.angles.sum(axis=1) - math.pi)) <= 1e-15

    def test_views_are_the_kernel_rows(self):
        rows = np.random.default_rng(12).uniform(-2.0, 2.0, (30, 6))
        k = ideal_kernel(rows)
        for t, l in enumerate(rows):
            value, grad = cov_ideal(l)
            assert value == k.cov[t]
            assert grad == tuple(k.angles[t]) * 2
            assert ideal_lengths_to_angles(l) == grad
            y = [0.5 * (l[p] + l[p + 3]) for p in range(3)]
            assert phi_star(*y) == (0.5 * k.cov[t], tuple(k.angles[t]))

    def test_exact_ties_break_by_slot(self):
        # equal sides rank by position (a stable sort): the largest-ranked
        # slot takes pi minus the other two angles, bit for bit
        for sides, top in (
            ((1.0, 1.0, 1.0), 2),
            ((1.0, 1.0, 0.5), 1),
            ((1.0, 0.5, 1.0), 2),
            ((0.5, 1.0, 1.0), 2),
            ((0.75, 0.5, 0.5), 0),
            ((0.5, 0.75, 0.5), 1),
        ):
            a = triangle_angles(*sides)
            others = [p for p in range(3) if p != top]
            assert a[top] == math.pi - a[others[-1]] - a[others[0]]
            assert np.max(np.abs(np.subtract(a, _ref_angles_from_sides(*sides)))) <= 1e-15
        assert triangle_angles(1.0, 1.0, 1.0) == pytest.approx((math.pi / 3,) * 3, abs=1e-15)
        # ties on the flat frontier: sides (2, 1, 1) in every position
        for sides in ((2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)):
            assert triangle_angles(*sides) == _ref_angles_from_sides(*sides)
        # labels with exactly equal log sides
        rows = np.array(
            [[0.0] * 6, [1.0, 1.0, -1.0, 1.0, 1.0, -1.0], [5.0, -3.0, 5.0, 5.0, -3.0, 5.0]]
        )
        k = ideal_kernel(rows)
        angles, cov, _ = _ref_kernel(rows)
        assert np.max(np.abs(k.angles - angles)) <= 1e-15
        assert np.max(np.abs(k.cov - cov)) <= 1e-14

    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_near_degeneracy(self, delta):
        # the angle map on identical sides matches the reference to rounding,
        # short of the flat frontier and past it
        for s in (0.5 * (1.0 - delta), 0.5 * (1.0 + delta)):
            got = triangle_angles(1.0, s, s)
            want = _ref_angles_from_sides(1.0, s, s)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
        assert triangle_angles(1.0, 0.5 * (1.0 - delta), 0.5 * (1.0 - delta)) == (math.pi, 0.0, 0.0)
        # from labels, an ulp of exp moves the angles by about 1e-16 / sqrt(delta),
        # and the covolume (whose gradient they are) only by rounding
        rows = _near_flat_rows([delta, -delta])
        k = ideal_kernel(rows)
        angles, cov, vol = _ref_kernel(rows)
        assert np.max(np.abs(k.cov - cov)) <= 1e-14
        assert np.max(np.abs(k.angles - angles)) <= 1e-14 / math.sqrt(delta)
        assert np.max(np.abs(k.vol - vol)) <= 1e-14 / math.sqrt(delta)
        assert tuple(k.angles[0]) == (math.pi, 0.0, 0.0) and k.vol[0] == 0.0
        assert k.cov[0] == 0.0
        assert np.min(k.angles[1]) > 0.0

    def test_large_labels_never_overflow(self):
        rng = np.random.default_rng(13)
        rows = np.concatenate(
            [
                rng.uniform(-700.0, 700.0, (200, 6)),
                [[700.0, -700.0, 0.0, 700.0, -700.0, 0.0], [-700.0] * 6, [700.0] * 6],
            ]
        )
        k = ideal_kernel(rows)
        angles, cov, vol = _ref_kernel(rows)
        assert np.all(np.isfinite(k.cov)) and np.all(np.isfinite(k.angles))
        assert np.max(np.abs(k.angles - angles)) <= 1e-13
        assert np.max(np.abs(k.cov - cov) / np.maximum(1.0, np.abs(cov))) <= 1e-14
        assert np.max(np.abs(k.vol - vol)) <= 1e-13

    def test_halved_log_sides_are_the_summed_ones_where_those_fit(self):
        # l_p / 2 + l_{p+3} / 2 rounds as (l_p + l_{p+3}) / 2 wherever the sum
        # neither overflows nor goes subnormal, so the kernel keeps its bits
        rng = np.random.default_rng(17)
        rows = rng.uniform(-3.0, 3.0, (300, 6)) * 10.0 ** rng.integers(-300, 300, (300, 6))
        k = ideal_kernel(rows)
        old = _log_side_kernel(0.5 * (rows[:, :3] + rows[:, 3:]))
        for a, b in zip(k, old):
            assert a.tobytes() == b.tobytes()

    def test_labels_near_the_float_limit(self):
        # log sides of up to 1.8e308 in size: the angles and volumes stay
        # exact and nothing warns; a covolume beyond DBL_MAX / T is NaN
        big = np.finfo(float).max
        rows = np.array(
            [
                [1e308] * 6,
                [-1e308] * 6,
                [big, 0.0, 0.0, big, 0.0, 0.0],
                [big, -big, 1.0, big, -big, 1.0],
                [2e307, 0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = ideal_kernel(rows)
            one = ideal_kernel(rows[4:])
        third = math.pi / 3
        assert np.allclose(k.angles[:2], third, rtol=0.0, atol=1e-15)
        assert np.array_equal(k.angles[2:4], [[math.pi, 0.0, 0.0]] * 2)
        assert np.allclose(k.vol, [REGULAR_VOL, REGULAR_VOL, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
        assert np.all(np.isnan(k.cov[:4]))
        # a flat row's covolume 2 pi 1e307 fits DBL_MAX / 1 but not DBL_MAX / 5
        assert np.isnan(k.cov[4]) and one.cov[0] == 2.0 * (math.pi * 1e307)
        # and fits it again where each row is a complex of its own (tets = 1)
        assert ideal_kernel(rows, tets=1).cov[4] == one.cov[0]

    def test_mixed_flat_and_realized_rows(self):
        rng = np.random.default_rng(14)
        realized = rng.uniform(-0.3, 0.3, (20, 6))
        flat = np.zeros((20, 6))
        for t in range(20):
            p = t % 3
            flat[t, p] = flat[t, p + 3] = rng.uniform(1.5, 4.0)  # side exp(y) >= 2 * 1
        rows = np.empty((40, 6))
        rows[0::2], rows[1::2] = realized, flat
        k = ideal_kernel(rows)
        for t in range(20):
            p = t % 3
            y = flat[t, p]
            pattern = [0.0, 0.0, 0.0]
            pattern[p] = math.pi
            assert list(k.angles[2 * t + 1]) == pattern
            assert k.cov[2 * t + 1] == 2.0 * (math.pi * y)
            assert k.vol[2 * t + 1] == 0.0
            assert np.min(k.angles[2 * t]) > 0.0
        # each row is the T = 1 kernel of that row, bit for bit
        for t in range(40):
            one = ideal_kernel(rows[t : t + 1])
            assert np.array_equal(one.angles[0], k.angles[t])
            assert one.cov[0] == k.cov[t] and one.vol[0] == k.vol[t]
        angles, cov, _ = _ref_kernel(rows)
        assert np.max(np.abs(k.angles - angles)) <= 1e-13
        assert np.max(np.abs(k.cov - cov)) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        rows = np.zeros((3, 6))
        rows[1, 4] = bad
        with pytest.raises(DomainError):
            ideal_kernel(rows)
        with pytest.raises(DomainError):
            cov_ideal(rows[1])

    def test_shape_checked(self):
        for bad in (np.zeros(6), np.zeros((2, 5)), np.zeros((1, 2, 6))):
            with pytest.raises(DomainError):
                ideal_kernel(bad)
        k = ideal_kernel(np.zeros((0, 6)))
        assert k.angles.shape == (0, 3) and k.cov.shape == (0,)
