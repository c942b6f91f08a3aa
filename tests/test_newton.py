"""The descent's Newton step: per-tetrahedron angle Jacobians, the assembled
Hessian on the dense and the sparse path, its shift floor and the
gauge-projected ideal step."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import block_diag

import hypmet.solver
from hypmet import hyperideal
from hypmet.hyperideal import hyper_angles, hyper_jacobian, hyper_kernel
from hypmet.ideal import ideal_jacobian, ideal_kernel
from hypmet.metrics import _evaluate, angles_of_metric, cone_angles, cov_complex
from hypmet.solver import _NewtonSystem, _rowdot, rigidity_check, solve_metric
from hypmet.triangulation import GluingSpec, build_complex, gauge_matrix

from oracles import FIG8_COCYCLE, cyclic_cover, disjoint_union


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

    def test_rows_are_independent(self):
        # alone, a row no longer than 64 takes the unscaled cosine law; next
        # to longer rows it takes the scaled law with scale 1: same bits
        rows = np.random.default_rng(45).uniform(0.3, 2.5, (24, 6))
        rows[1] = flat_wall_row(0.5)
        rows[2] = flat_wall_row(0.7, past=0.4)
        rows[3] = flat_wall_row(0.6, past=-1e-9)
        rows[4, [1, 4]] = [-0.5, 0.0]
        rows[5] = [-0.5, -1.0, 0.0, -2.0, -0.1, -0.3]
        rows[6] += 64.5
        rows[7] += 705.0
        rows[8, 0] = 70.0
        rows[9, 2] = 64.0
        jac = hyper_jacobian_at(rows)
        for t, row in enumerate(rows):
            assert np.array_equal(hyper_jacobian_at([row])[0], jac[t])


def dense_hessian(c, x, flavor):
    jacobian = ideal_jacobian_at if flavor == "ideal" else hyper_jacobian_at
    op = c.incidence.toarray()
    return op @ block_diag(*jacobian(x[c.edge_index])) @ op.T


def record(c, x, flavor):
    """The kernel record of one start at x, as the descent keeps it: shape (1, T, ...)."""
    return record_rows(c, x[None], flavor)


def record_rows(c, x, flavor):
    """The kernel record of the starts at the rows of x, shape (m, T, ...)."""
    return _evaluate(c, x, flavor)[0]


def fig8_cover(fixtures_dir, tets):
    """A fig8 cyclic cover of `tets` tetrahedra, built anew."""
    with open(fixtures_dir / "fig8.json") as fh:
        return build_complex(GluingSpec.from_dict(cyclic_cover(json.load(fh), FIG8_COCYCLE, tets // 2)))


def named_complex(request, name):
    """A fixture complex, or a fig8 cover: fig8_16 takes the dense path, fig8_sparse the sparse one."""
    fixtures_dir = request.getfixturevalue("fixtures_dir")
    if name == "fig8_16":
        return fig8_cover(fixtures_dir, 16)
    if name == "fig8_sparse":
        return fig8_cover(fixtures_dir, request.getfixturevalue("sparse_tets"))
    return request.getfixturevalue(name)


def newton_matrix(system):
    """The last step's Newton matrix as one dense array: block-diagonal over the starts."""
    if system.dense:
        return block_diag(*system.matrix)
    return system.matrix.toarray()


def assembled(c, x, flavor, shift=0.0):
    system = _NewtonSystem(c, flavor)
    system.step(record(c, x, flavor), np.ones(c.num_edges), shift)
    return newton_matrix(system)


def shift_floor(c, x, flavor):
    """The least shift of one start's Newton matrix at x: _SHIFT_FLOOR max |H_ee|."""
    return hypmet.solver._SHIFT_FLOOR * np.max(np.abs(np.diag(dense_hessian(c, x, flavor))))


def kkt_step(c, x, r, shift):
    """The ideal step of the bordered system [[H + shift I, B], [B^T, 0]], by a dense solve."""
    h, b = dense_hessian(c, x, "ideal"), gauge_matrix(c)
    e, v = b.shape
    kkt = np.block([[h + shift * np.eye(e), b], [b.T, np.zeros((v, v))]])
    return np.linalg.solve(kkt, np.concatenate([-r, np.zeros(v)]))[:e]


class TestNewtonSystem:
    @pytest.mark.parametrize("name", ["fig8", "double_tet", "fig8_sparse"])
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_assembled_matrix_is_the_dense_product(self, request, name, flavor):
        # one E x E matrix for both flavors and both paths, H plus the shift
        # or, where the shift is below it, the floor
        c = named_complex(request, name)
        assert _NewtonSystem(c, flavor).dense == (name != "fig8_sparse")
        rng = np.random.default_rng(51)
        x = rng.uniform(-0.3, 0.3, c.num_edges) + (0.0 if flavor == "ideal" else 1.3)
        h, e = dense_hessian(c, x, flavor), c.num_edges
        floor = shift_floor(c, x, flavor)
        assert floor > 0.0
        for shift in (0.0, 1e-20, 0.25):
            matrix = assembled(c, x, flavor, shift)
            assert matrix.shape == (e, e)
            assert np.max(np.abs(matrix - h - max(shift, floor) * np.eye(e))) <= 1e-14

    @pytest.mark.parametrize("name", ["fig8", "double_tet", "fig8_16", "fig8_sparse"])
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_copies_matrix_is_the_block_diagonal_of_one_copys(self, request, name, flavor):
        # the first m of 5 copies are the m one-copy matrices, to the bit:
        # the dense path stacks them, and the sparse one numbers copy i's
        # edges after copy i - 1's
        c = named_complex(request, name)
        rng = np.random.default_rng(55)
        x = rng.uniform(-0.3, 0.3, (5, c.num_edges)) + (0.0 if flavor == "ideal" else 1.3)
        shift = rng.uniform(0.0, 0.1, (5, 1))
        system = _NewtonSystem(c, flavor, 5)
        assert system.dense == (name != "fig8_sparse")
        for m in (1, 3, 5):
            system.step(record_rows(c, x[:m], flavor), np.ones((m, c.num_edges)), shift[:m])
            blocks = [assembled(c, x[i], flavor, float(shift[i, 0])) for i in range(m)]
            assert np.array_equal(newton_matrix(system), block_diag(*blocks))

    @pytest.mark.parametrize("name", ["double_tet", "fig8_16"])
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_dense_and_sparse_paths_give_one_step(self, request, newton_paths, name, flavor):
        # the two paths hold the same matrices and solve them by different
        # eliminations: the steps of three starts agree to rounding, and
        # ideal steps stay in ker B^T on both
        c = named_complex(request, name)
        rng = np.random.default_rng(57)
        x = rng.uniform(-0.3, 0.3, (3, c.num_edges)) + (0.0 if flavor == "ideal" else 1.3)
        r = rng.uniform(-0.1, 0.1, x.shape)
        shift = np.array([[1e-3], [0.0], [0.1]])
        steps = {}
        for dense in newton_paths(c):
            system = _NewtonSystem(c, flavor, 3)
            steps[dense] = system.step(record_rows(c, x, flavor), r, shift)
            assert system.dense == dense
            assert np.all(_rowdot(r, steps[dense]) < 0.0)
            if flavor == "ideal":
                assert np.max(np.abs(steps[dense] @ gauge_matrix(c))) <= 1e-12
        gap = np.abs(steps[True] - steps[False]).max(axis=1)
        assert np.all(gap <= 1e-12 * np.abs(steps[False]).max(axis=1))
        assert not np.any(np.all(steps[True] == -r, axis=1))  # no start fell back to -r

    def test_bordered_step_stays_in_the_gauge_complement(self, fixtures_dir):
        # the projected step P (H + mu' I)^-1 (-P r) is the step of the
        # bordered system, solved densely here, at the floored shift mu'
        with open(fixtures_dir / "fig8.json") as fh:
            c = build_complex(GluingSpec.from_dict(disjoint_union(json.load(fh), 16)))
        assert c.num_vertices == 16
        rng = np.random.default_rng(52)
        k = cone_angles(c, angles_of_metric(c, rng.uniform(-0.3, 0.3, c.num_edges), "ideal"))
        x = rng.uniform(-0.3, 0.3, c.num_edges)
        r = cov_complex(c, x, "ideal")[1] - k
        for shift in (1e-1, 1e-6, 1e-20):
            d = _NewtonSystem(c, "ideal").step(record(c, x, "ideal"), r, shift)
            assert np.max(np.abs(gauge_matrix(c).T @ d)) <= 1e-12
            want = kkt_step(c, x, r, max(shift, shift_floor(c, x, "ideal")))
            assert np.max(np.abs(d - want)) <= 1e-10 * np.max(np.abs(want))
            assert float(r @ d) < 0.0

    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_shift_floor_keeps_the_ideal_step_near_a_solution(self, request, name):
        # near a solution mu = |r|^2 is lost when rounded onto H's diagonal,
        # and H is singular on col(B): without the floor double_tet's matrix
        # is exactly singular and its step -r; with it, the step is the one
        # at the floored shift
        c = request.getfixturevalue(name)
        rng = np.random.default_rng(56)
        lengths = rng.uniform(-0.3, 0.3, c.num_edges)
        k = cone_angles(c, angles_of_metric(c, lengths, "ideal"))
        x = lengths + 1e-9 * rng.uniform(-1.0, 1.0, c.num_edges)
        r = cov_complex(c, x, "ideal")[1] - k
        assert 0.0 < np.max(np.abs(r)) <= 1e-7
        d = _NewtonSystem(c, "ideal").step(record(c, x, "ideal"), r, 1e-20)
        assert np.all(np.isfinite(d)) and not np.array_equal(d, -r)
        floored = _NewtonSystem(c, "ideal").step(record(c, x, "ideal"), r, shift_floor(c, x, "ideal"))
        assert np.max(np.abs(d - floored)) <= 1e-12 * np.max(np.abs(d))
        assert float(r @ d) < 0.0

    def test_singular_system_falls_back_to_steepest_descent(self, double_tet, newton_paths):
        # every hyper slot clamped: all blocks vanish and H = 0, on both paths
        r = np.random.default_rng(53).uniform(-1.0, 1.0, double_tet.num_edges)
        x = -np.ones(double_tet.num_edges)
        for dense in newton_paths(double_tet):
            system = _NewtonSystem(double_tet, "hyper")
            assert system.dense == dense
            assert np.array_equal(system.step(record(double_tet, x, "hyper"), r, 0.0), -r)

    def test_bordered_factorization_is_ordered_against_fill(self, fixtures_dir, monkeypatch):
        # one vertex class holds every edge of a fig8 cover, so a border by
        # B would add a dense row and column; the unbordered E x E matrix
        # under SuperLU's default ordering has neither, and its L + U hold
        # about 31 thousand entries here, where the bordered system's held
        # about 105 thousand
        c = fig8_cover(fixtures_dir, 2048)
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
        assert len(fill) == 1 and fill[0] < 64_000
        assert np.max(np.abs(gauge_matrix(c).T @ d)) <= 1e-10 and float(r @ d) < 0.0

    def test_pattern_built_once_per_complex_flavor_and_copies_and_only_when_stepping(
        self, fixtures_dir, sparse_tets, monkeypatch
    ):
        # fig8 takes the dense path and its cover of sparse_tets tetrahedra
        # the sparse one; each complex builds the pattern of its own path
        # only
        builds = {"dense": [], "sparse": []}

        def counting(path, build):
            def built(c, copies):
                builds[path].append((c.num_edges, copies))
                return build(c, copies)

            return built

        monkeypatch.setattr(hypmet.solver, "_dense_pattern", counting("dense", hypmet.solver._dense_pattern))
        monkeypatch.setattr(hypmet.solver, "_newton_pattern", counting("sparse", hypmet.solver._newton_pattern))
        for tets, path, other in ((2, "dense", "sparse"), (sparse_tets, "sparse", "dense")):
            c = fig8_cover(fixtures_dir, tets)
            e = c.num_edges
            complete = cone_angles(c, angles_of_metric(c, np.zeros(e), "ideal"))
            res = solve_metric(c, complete, "ideal")  # starts at the answer
            assert res.iterations == 0 and builds[path] == []
            # the three starts descend in lockstep, one descent with one
            # pattern, which the complex keeps for the next check with three
            for seed in (1, 2):
                rep = rigidity_check(c, complete, "ideal", starts=3, seed=seed)
                assert rep.ok and min(rep.iterations) > 1 and builds[path] == [(e, 3)]
            # one start gets its own pattern, once, and both flavors share it
            lengths = np.random.default_rng(tets).uniform(-0.3, 0.3, e)
            for flavor, x in (("ideal", lengths), ("hyper", lengths + 1.3)):
                k = cone_angles(c, angles_of_metric(c, x, flavor))
                for _ in range(2):
                    assert solve_metric(c, k, flavor).iterations > 0
            assert builds[path] == [(e, 3), (e, 1)]
            # a complex built anew builds its own
            solve_metric(fig8_cover(fixtures_dir, tets), k, "hyper")
            assert builds[path] == [(e, 3), (e, 1), (e, 1)] and builds[other] == []
            builds[path].clear()
