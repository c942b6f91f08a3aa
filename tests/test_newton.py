"""The descent's Newton step: per-tetrahedron angle Jacobians, the assembled
sparse Hessian and the bordered gauge system."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import block_diag

import hypmet.solver
from hypmet import hyperideal
from hypmet.hyperideal import hyper_angles, hyper_jacobian, hyper_kernel
from hypmet.ideal import ideal_jacobian, ideal_kernel
from hypmet.metrics import angles_of_metric, cone_angles, cov_complex
from hypmet.solver import _NewtonSystem, _Union, rigidity_check, solve_metric
from hypmet.triangulation import GluingSpec, build_complex, gauge_matrix

from oracles import FIG8_COCYCLE, cyclic_cover, disjoint_union

TWO_PI = 2 * math.pi


def five_point(f, rows, h):
    """Five-point central differences of a map (T, 6) -> (T, 6), shape (T, 6, 6)."""
    out = np.empty((len(rows), 6, 6))
    for s in range(6):
        def at(t):
            x = rows.copy()
            x[:, s] += t
            return f(x)

        out[:, :, s] = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)
    return out


def ideal_slot_angles(rows):
    return np.tile(ideal_kernel(rows).angles, 2)


def ideal_jacobian_at(rows):
    return ideal_jacobian(ideal_kernel(rows))


def hyper_jacobian_at(rows):
    return hyper_jacobian(hyper_kernel(rows))


def asymmetry(jac):
    return float(np.max(np.abs(jac - jac.transpose(0, 2, 1))))


def flat_wall_row(s, past=0.0):
    """Lengths on (past >= 0: beyond) the flat wall of pair 0, phi_0 = -1."""
    f = math.acosh(2.0 * math.cosh(s) + 1.0) + past
    return [f, s, s, f, s, s]


class TestIdealJacobian:
    def test_central_differences(self):
        rows = np.random.default_rng(31).uniform(-1.0, 1.0, (200, 6))
        jac = ideal_jacobian_at(rows)
        assert np.max(np.abs(jac - five_point(ideal_slot_angles, rows, 3e-5))) <= 1e-7

    def test_symmetric_with_the_scaling_in_its_kernel(self):
        rows = np.random.default_rng(32).uniform(-3.0, 3.0, (200, 6))
        jac = ideal_jacobian_at(rows)
        assert asymmetry(jac) <= 1e-12
        # adding a constant to all six labels scales the triangle, not its angles
        scale = np.maximum(np.abs(jac).max(axis=(1, 2)), 1.0)
        assert np.max(np.abs(jac.sum(axis=2)).max(axis=1) / scale) <= 1e-13

    def test_flat_rows_give_zero_blocks(self):
        rng = np.random.default_rng(33)
        y12 = rng.uniform(-1.0, 1.0, (50, 2))
        y0 = np.log(np.exp(y12).sum(axis=1)) + rng.uniform(0.0, 2.0, 50)
        y = np.column_stack([y0, y12])
        u = rng.uniform(-1.0, 1.0, (50, 3))
        rows = np.hstack([y + u, y - u])
        rows[0] = [2 * math.log(2), 0, 0, 2 * math.log(2), 0, 0]  # sides (4, 1, 1)
        assert np.all(ideal_kernel(rows).angles[:, 1:] == 0.0)
        assert np.all(ideal_jacobian_at(rows) == 0.0)

    def test_from_the_kernels_angles(self):
        # the kernel record's quad angles are all the Jacobian reads
        rows = np.random.default_rng(35).uniform(-2.0, 2.0, (40, 6))
        rows[::4] = [2 * math.log(2), 0, 0, 2 * math.log(2), 0, 0]
        kernel = ideal_kernel(rows)
        angles_only = kernel._replace(cov=None, vol=None)
        assert np.array_equal(ideal_jacobian(angles_only), ideal_jacobian(kernel))

    def test_rows_are_independent(self):
        rows = np.random.default_rng(34).uniform(-2.0, 2.0, (20, 6))
        rows[::3] = [2 * math.log(2), 0, 0, 2 * math.log(2), 0, 0]
        jac = ideal_jacobian_at(rows)
        for t, row in enumerate(rows):
            assert np.array_equal(ideal_jacobian_at([row])[0], jac[t])


class TestHyperJacobian:
    def test_central_differences(self):
        rows = np.random.default_rng(41).uniform(0.8, 1.8, (200, 6))
        jac = hyper_jacobian_at(rows)
        assert np.all(np.abs(jac).max(axis=(1, 2)) > 0.0)
        assert np.max(np.abs(jac - five_point(hyper_angles, rows, 1e-4))) <= 1e-7

    @pytest.mark.parametrize("lo", [65.0, 705.0])
    def test_central_differences_on_scaled_lengths(self, lo):
        # past 64 the cosine law runs on scaled cosh values, past 700 on e^l / 2
        rows = np.random.default_rng(42).uniform(lo, lo + 0.3, (20, 6))
        jac = hyper_jacobian_at(rows)
        assert np.max(np.abs(jac - five_point(hyper_angles, rows, 1e-4))) <= 1e-7

    def test_symmetric(self):
        # Schlaefli: the angles are the gradient of the covolume
        rows = np.random.default_rng(43).uniform(0.3, 2.5, (200, 6))
        assert asymmetry(hyper_jacobian_at(rows)) <= 1e-12

    def test_flat_band_and_negative_rows_give_zero_blocks(self):
        rows = np.array(
            [
                flat_wall_row(0.5),  # on the wall
                flat_wall_row(0.7, past=0.4),  # inside the flat region
                flat_wall_row(0.6, past=-1e-9),  # short of the wall, in the band
                [-0.5, -1.0, 0.0, -2.0, -0.1, -0.3],  # every slot clamped
                [1.0] * 6,
            ]
        )
        a = hyper_angles(rows)
        assert np.min(a[2, [0, 3]]) > math.pi - 1e-3 and np.max(a[2, [0, 3]]) < math.pi
        jac = hyper_jacobian_at(rows)
        assert np.all(jac[:4] == 0.0)
        assert np.all(np.abs(jac[4]) > 0.0)

    def test_zero_blocks_are_the_kernels_flat_and_band_rows(self, monkeypatch):
        # the wall-scan family (t, s, s, t, s, s) on both sides of its wall t*
        rows = np.array(
            [
                flat_wall_row(s, past=sign * 10.0 ** -e)
                for s in (0.5, 1.0, 2.0)
                for e in range(2, 13)
                for sign in (-1.0, 1.0)
            ]
        )
        band = []
        integrate = hyperideal._cov_near_wall

        def recording(lp, p, tol):
            band.append(lp.tolist())
            return integrate(lp, p, tol)

        monkeypatch.setattr(hyperideal, "_cov_near_wall", recording)
        kernel = hyper_kernel(rows)
        in_band = np.array([row in band for row in rows.tolist()])
        # flat rows get volume 0 and the covolume pi (l_0 + l_3) of pair 0
        flat = ~in_band & (kernel.vol == 0.0)
        assert np.all(kernel.cov[flat] == math.pi * (rows[flat, 0] + rows[flat, 3]))
        assert in_band.sum() > 0 and flat.sum() > 0 and (~in_band & ~flat).sum() > 0
        zeroed = np.all(hyper_jacobian(kernel) == 0.0, axis=(1, 2))
        assert np.array_equal(zeroed, in_band | flat)

    def test_clamped_slots_give_zero_rows_and_columns(self):
        rows = np.random.default_rng(44).uniform(0.8, 1.8, (30, 6))
        rows[:, 2] = -0.5
        rows[::2, 4] = 0.0
        jac = hyper_jacobian_at(rows)
        assert np.all(jac[:, 2, :] == 0.0) and np.all(jac[:, :, 2] == 0.0)
        assert np.all(jac[::2, 4, :] == 0.0) and np.all(jac[::2, :, 4] == 0.0)
        assert asymmetry(jac) <= 1e-12


def dense_hessian(c, x, flavor):
    jacobian = ideal_jacobian_at if flavor == "ideal" else hyper_jacobian_at
    op = c.incidence.toarray()
    return op @ block_diag(*jacobian(x[c.edge_index])) @ op.T


def record(c, x, flavor):
    """The kernel record of one start at x, as the descent keeps it: shape (1, T, ...)."""
    return _Union(c, flavor, 1).evaluate(x[None], np.zeros(c.num_edges)).kernel


def assembled(c, x, flavor, shift=0.0):
    system = _NewtonSystem(c, flavor)
    system.step(record(c, x, flavor), np.ones(c.num_edges), shift)
    return system.matrix.toarray()


class TestNewtonSystem:
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_assembled_matrix_is_the_dense_product(self, request, name, flavor):
        c = request.getfixturevalue(name)
        rng = np.random.default_rng(51)
        x = rng.uniform(-0.3, 0.3, c.num_edges) + (0.0 if flavor == "ideal" else 1.3)
        matrix = assembled(c, x, flavor)
        e = c.num_edges
        assert np.max(np.abs(matrix[:e, :e] - dense_hessian(c, x, flavor))) <= 1e-12
        if flavor == "ideal":
            b = gauge_matrix(c)
            assert matrix.shape == (e + c.num_vertices,) * 2
            assert np.array_equal(matrix[:e, e:], b) and np.array_equal(matrix[e:, :e], b.T)
            assert np.all(matrix[e:, e:] == 0.0)
        else:
            assert matrix.shape == (e, e)
        # the shift goes on the diagonal of H, not on the border's zero block
        shifted = assembled(c, x, flavor, shift=0.25) - matrix
        assert np.max(np.abs(shifted[:e, :e] - 0.25 * np.eye(e))) <= 1e-14
        assert np.all(shifted[e:] == 0.0) and np.all(shifted[:, e:] == 0.0)

    def test_bordered_step_stays_in_the_gauge_complement(self, fixtures_dir):
        with open(fixtures_dir / "fig8.json") as fh:
            c = build_complex(GluingSpec.from_dict(disjoint_union(json.load(fh), 16)))
        assert c.num_vertices == 16
        rng = np.random.default_rng(52)
        k = cone_angles(c, angles_of_metric(c, rng.uniform(-0.3, 0.3, c.num_edges), "ideal"))
        x = rng.uniform(-0.3, 0.3, c.num_edges)
        r = cov_complex(c, x, "ideal")[1] - k
        d = _NewtonSystem(c, "ideal").step(record(c, x, "ideal"), r, 0.0)
        assert np.max(np.abs(gauge_matrix(c).T @ d)) <= 1e-12
        assert np.max(np.abs(dense_hessian(c, x, "ideal") @ d + r)) <= 1e-12
        assert float(r @ d) < 0.0

    def test_singular_system_falls_back_to_steepest_descent(self, double_tet):
        # every hyper slot clamped: all blocks vanish and H = 0
        r = np.random.default_rng(53).uniform(-1.0, 1.0, double_tet.num_edges)
        x = -np.ones(double_tet.num_edges)
        d = _NewtonSystem(double_tet, "hyper").step(record(double_tet, x, "hyper"), r, 0.0)
        assert np.array_equal(d, -r)

    def test_bordered_factorization_is_ordered_against_fill(self, fixtures_dir, monkeypatch):
        # one vertex class holds every edge of a fig8 cover, so the border
        # row and column are dense; under SuperLU's default column ordering
        # L + U held 2.1 million entries at T = 2048, under minimum degree
        # on A^T + A about 105 thousand
        with open(fixtures_dir / "fig8.json") as fh:
            c = build_complex(GluingSpec.from_dict(cyclic_cover(json.load(fh), FIG8_COCYCLE, 1024)))
        assert c.n_tets == 2048 and c.num_vertices == 1
        fill = []
        factor = hypmet.solver.splu

        def recording(matrix, **kwargs):
            lu = factor(matrix, **kwargs)
            fill.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(hypmet.solver, "splu", recording)
        rng = np.random.default_rng(54)
        x = rng.uniform(-0.3, 0.3, c.num_edges)
        k = cone_angles(c, angles_of_metric(c, np.zeros(c.num_edges), "ideal"))
        r = cov_complex(c, x, "ideal")[1] - k
        d = _NewtonSystem(c, "ideal").step(record(c, x, "ideal"), r, 1e-3)
        assert len(fill) == 1 and fill[0] < 400_000
        assert np.max(np.abs(gauge_matrix(c).T @ d)) <= 1e-10 and float(r @ d) < 0.0

    def test_pattern_built_once_per_descent_and_only_when_stepping(self, fig8, monkeypatch):
        builds = []
        build = _NewtonSystem._build

        def counting(self):
            builds.append(self.flavor)
            build(self)

        monkeypatch.setattr(hypmet.solver._NewtonSystem, "_build", counting)
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal")  # starts at the answer
        assert res.iterations == 0 and builds == []
        # the three starts descend in lockstep, one descent with one pattern
        rep = rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", starts=3, seed=1)
        assert rep.ok and min(rep.iterations) > 1 and builds == ["ideal"]
