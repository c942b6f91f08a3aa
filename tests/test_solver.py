"""Variational solvers: feasibility LP, covolume minimization, duality,
maximizer structure, rigidity."""

import collections
import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.optimize import linprog

import hypmet.hyperideal
import hypmet.metrics
import hypmet.solver
from hypmet.errors import (
    ConsistencyError,
    DomainError,
    HypmetError,
    LineSearchError,
    MaxIterationsError,
    NotPositiveFeasibleError,
    NumericalError,
)
from hypmet.hyperideal import VERTEX_SLOTS, classify_lengths, hyper_kernel, mu_segment_integral
from hypmet.ideal import PAIRS, ideal_kernel
from hypmet.metrics import (
    _cone_angles,
    _evaluate,
    angles_of_metric,
    cone_angles,
    cov_complex,
    volume,
    volume_of_metric,
)
from hypmet.solver import (
    SolveOptions,
    SolveResult,
    classify_maximizer,
    duality_gap,
    feasibility,
    objective_trace,
    rigidity_check,
    solve_metric,
)
from hypmet.triangulation import GluingSpec, build_complex, gauge_matrix, gauge_project

from oracles import (
    FIG8_COCYCLE,
    cyclic_cover,
    disjoint_union,
    random_positive_hyper_k,
    random_positive_ideal_k,
    sample_ideal_assignments,
)

TWO_PI = 2 * math.pi
ACOSH2 = math.acosh(2.0)
EQUI_ANGLE = math.acos(2.0 / 3.0)
K_HYPER = np.full(6, 2 * EQUI_ANGLE)
FIG8_VOL = 2.0298832128193078  # 6 Lambda(pi/3), frozen from the oracle


class TestFeasibility:
    def test_fig8_regular_target(self, fig8):
        rep = feasibility(fig8, [TWO_PI, TWO_PI], "ideal")
        assert rep.status == "positive_feasible"
        assert rep.max_slack > 1e-9
        w = rep.witness
        assert np.allclose(w.sum(axis=1), math.pi, atol=1e-9)
        assert np.allclose(cone_angles(fig8, w), TWO_PI, atol=1e-9)
        assert np.min(w) >= rep.max_slack - 1e-9

    def test_doubled_hyper_target(self, double_tet):
        rep = feasibility(double_tet, K_HYPER, "hyper")
        assert rep.status == "positive_feasible"
        w = rep.witness
        assert np.allclose(cone_angles(double_tet, w), K_HYPER, atol=1e-9)

    def test_fig8_budget_violation_infeasible(self, fig8):
        rep = feasibility(fig8, [6 * math.pi, 6 * math.pi], "ideal")
        assert rep.status == "infeasible"

    def test_nonnegative_only_target(self, double_tet):
        # flat assignment (pi,0,0) per tet: the zero cone angles force zero
        # quad angles, so the assignment polytope touches the boundary
        alpha = np.array([[math.pi, 0.0, 0.0], [math.pi, 0.0, 0.0]])
        k = cone_angles(double_tet, alpha)
        assert np.allclose(sorted(k), [0, 0, 0, 0, 2 * math.pi, 2 * math.pi])
        rep = feasibility(double_tet, k, "ideal")
        assert rep.status == "nonnegative_only"
        assert abs(rep.max_slack) <= 1e-9
        with pytest.raises(NotPositiveFeasibleError):
            solve_metric(double_tet, k, "ideal")

    def test_requires_closed(self, single_tet):
        with pytest.raises(Exception):
            feasibility(single_tet, np.zeros(6), "ideal")


def reference_feasibility(c, k, flavor):
    """The max-slack LP in its dense form: (status, max slack).

    Variables are the angles x and the slack s, with rows -x_i + s <= 0 for
    every angle, built with per-edge-class loops and identity blocks.
    """
    t_count, e_count = c.n_tets, c.num_edges
    if flavor == "ideal":
        nvar = 3 * t_count
        a_eq = np.zeros((t_count + e_count, nvar + 1))
        b_eq = np.zeros(t_count + e_count)
        for t in range(t_count):
            a_eq[t, 3 * t : 3 * t + 3] = 1.0
            b_eq[t] = math.pi
        for eid, cls in enumerate(c.edge_classes):
            for t, s in cls:
                a_eq[t_count + eid, 3 * t + s % 3] += 1.0
            b_eq[t_count + eid] = k[eid]
        a_ub = np.hstack([-np.eye(nvar), np.ones((nvar, 1))])
        b_ub = np.zeros(nvar)
    else:
        nvar = 6 * t_count
        a_eq = np.zeros((e_count, nvar + 1))
        for eid, cls in enumerate(c.edge_classes):
            for t, s in cls:
                a_eq[eid, 6 * t + s] += 1.0
        b_eq = np.asarray(k, dtype=float)
        vrows = np.zeros((4 * t_count, nvar + 1))
        for t in range(t_count):
            for vtx, slots in enumerate(VERTEX_SLOTS):
                for s in slots:
                    vrows[4 * t + vtx, 6 * t + s] = 1.0
                vrows[4 * t + vtx, -1] = 1.0
        a_ub = np.vstack([np.hstack([-np.eye(nvar), np.ones((nvar, 1))]), vrows])
        b_ub = np.concatenate([np.zeros(nvar), np.full(4 * t_count, math.pi)])
    cost = np.zeros(nvar + 1)
    cost[-1] = -1.0
    bounds = [(None, None)] * nvar + [(None, math.pi)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        return "infeasible", -math.inf
    assert res.status == 0, res.message
    slack = float(res.x[-1])
    if slack > 1e-9:
        return "positive_feasible", slack
    return ("nonnegative_only" if slack >= -1e-9 else "infeasible"), slack


def assert_witness_meets_dense_lp(c, k, flavor, rep, tol=1e-9):
    """Every constraint of the dense LP holds at (witness, max slack)."""
    w, s = rep.witness, rep.max_slack
    assert s <= math.pi + tol
    assert np.min(w) >= s - tol
    assert np.max(np.abs(cone_angles(c, w) - k)) <= tol
    if flavor == "ideal":
        assert np.max(np.abs(w.sum(axis=1) - math.pi)) <= tol
    else:
        vertex = np.stack([w[:, list(slots)].sum(axis=1) for slots in VERTEX_SLOTS])
        assert np.max(vertex) + s <= math.pi + tol


def boundary_ideal_target(c):
    """Cone angles on the boundary of the ideal feasible set.

    In each tetrahedron, pi goes on the quad that meets the tet's lowest
    edge class most often; that maximizes the cone angle of the lowest edge
    of every connected component, so every assignment with these cone angles
    has zero angles and the max slack is 0.
    """
    alpha = np.zeros((c.n_tets, 3))
    for t in range(c.n_tets):
        low = c.edge_index[t].min()
        mult = [np.count_nonzero(c.edge_index[t, [q, q + 3]] == low) for q in range(3)]
        alpha[t, int(np.argmax(mult))] = math.pi
    return cone_angles(c, alpha)


def lp_targets(c, flavor, rng):
    """(expected status, target) for each status the LP can report."""
    if flavor == "ideal":
        positive = random_positive_ideal_k(c, rng)
        boundary = boundary_ideal_target(c)
        return [
            ("positive_feasible", positive),
            ("nonnegative_only", boundary),
            ("infeasible", boundary + 0.3 * (boundary - positive)),
            ("infeasible", np.full(c.num_edges, 6 * math.pi)),
        ]
    # angles pi/3 fill every vertex sum to pi: slack 0 exactly
    tight = cone_angles(c, np.full((c.n_tets, 6), math.pi / 3))
    return [
        ("positive_feasible", random_positive_hyper_k(c, rng)),
        ("nonnegative_only", tight),
        ("infeasible", 1.1 * tight),
    ]


@pytest.fixture(scope="module")
def lp_complexes(fig8, double_tet, fixtures_dir):
    out = {"fig8": fig8, "double_tet": double_tet}
    for name in ("fig8", "double_tet"):
        with open(fixtures_dir / f"{name}.json") as fh:
            tri = disjoint_union(json.load(fh), 16, np.random.default_rng(11))
        out[f"{name}x16"] = build_complex(GluingSpec.from_dict(tri))
    return out


class TestFeasibilityAgainstDenseLP:
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet", "fig8x16", "double_tetx16"])
    def test_status_slack_and_witness(self, lp_complexes, name, flavor):
        c = lp_complexes[name]
        for expected, k in lp_targets(c, flavor, np.random.default_rng(12)):
            rep = feasibility(c, k, flavor)
            ref_status, ref_slack = reference_feasibility(c, k, flavor)
            assert rep.status == ref_status == expected
            if math.isinf(ref_slack):
                assert rep.max_slack == ref_slack
            else:
                assert abs(rep.max_slack - ref_slack) <= 1e-9
            if rep.witness is not None:
                assert_witness_meets_dense_lp(c, k, flavor, rep)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_sparse_rows_of_linear_size(self, fixtures_dir, monkeypatch, flavor):
        with open(fixtures_dir / "fig8.json") as fh:
            tri = disjoint_union(json.load(fh), 32, np.random.default_rng(13))
        c = build_complex(GluingSpec.from_dict(tri))
        assert c.n_tets == 64
        real = hypmet.solver.linprog
        calls = []

        def capture(*args, **kwargs):
            calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(hypmet.solver, "linprog", capture)
        if flavor == "ideal":
            k = cone_angles(c, np.full((c.n_tets, 3), math.pi / 3))
        else:
            k = cone_angles(c, np.full((c.n_tets, 6), 0.5))
        assert feasibility(c, k, flavor).positive
        (args,) = calls
        matrices = [args.get(name) for name in ("A_ub", "A_eq")]
        matrices = [m for m in matrices if m is not None]
        assert matrices
        assert all(scipy.sparse.issparse(m) for m in matrices)
        assert sum(m.nnz for m in matrices) <= 25 * c.n_tets + 2 * c.num_edges


class TestSolveIdeal:
    def test_fig8_regular(self, fig8):
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal")
        assert np.allclose(res.assignment, math.pi / 3, atol=1e-7)
        assert res.volume == pytest.approx(FIG8_VOL, abs=1e-7)
        # minimizer sits in the gauge class of zero
        assert np.allclose(gauge_project(fig8, res.lengths), 0.0, atol=1e-7)
        assert np.max(np.abs(res.achieved_cone_angles - TWO_PI)) <= 1e-9
        assert res.w_value == pytest.approx(-2 * res.volume, abs=1e-7)

    def test_two_random_starts_same_answer(self, fig8):
        rep = rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", starts=2, seed=42)
        assert rep.ok

    def test_not_positive_feasible_raises(self, fig8):
        with pytest.raises(NotPositiveFeasibleError):
            solve_metric(fig8, [6 * math.pi, 6 * math.pi], "ideal")

    def test_random_feasible_targets_converge(self, fig8):
        rng = np.random.default_rng(0)
        for _ in range(3):
            k = random_positive_ideal_k(fig8, rng)
            res = solve_metric(fig8, k, "ideal")
            assert np.max(np.abs(res.achieved_cone_angles - k)) <= 1e-8

    def test_monotone_descent(self, fig8):
        rng = np.random.default_rng(1)
        k = random_positive_ideal_k(fig8, rng)
        res = solve_metric(fig8, k, "ideal")
        trace = np.asarray(objective_trace(fig8, res))
        assert np.all(np.diff(trace) <= 1e-12)

    def test_target_off_vertex_sum_refused(self, fig8):
        # 1e-8 per edge passes the LP but puts B^T k at 4e-8 from pi n_v,
        # beyond the (B^T 1) tol = 4e-9 that a converged residual allows
        off = [TWO_PI + 1e-8] * 2
        with pytest.raises(NotPositiveFeasibleError, match="vertex sum"):
            solve_metric(fig8, off, "ideal")
        with pytest.raises(NotPositiveFeasibleError, match="vertex sum"):
            rigidity_check(fig8, off, "ideal", starts=2)
        res = solve_metric(fig8, [TWO_PI + 1e-10] * 2, "ideal")
        assert np.max(np.abs(res.achieved_cone_angles - TWO_PI)) <= 1e-9

    def test_iteration_budget_exhausted(self, fig8):
        from hypmet.errors import MaxIterationsError

        rng = np.random.default_rng(2)
        k = random_positive_ideal_k(fig8, rng)
        with pytest.raises(MaxIterationsError) as exc:
            rigidity_check(fig8, k, "ideal", starts=1, seed=0, opts=SolveOptions(max_iter=1))
        assert "grad_norm" in exc.value.diagnostics


class TestSolveHyper:
    def test_doubled_symmetric(self, double_tet):
        res = solve_metric(double_tet, K_HYPER, "hyper")
        assert np.max(np.abs(res.lengths - ACOSH2)) <= 1e-8
        assert np.allclose(res.assignment, EQUI_ANGLE, atol=1e-8)
        assert res.w_value == pytest.approx(-2 * res.volume, abs=1e-7)
        # the reported objective is the exact value at the solution
        fresh, _ = cov_complex(double_tet, res.lengths, "hyper")
        assert res.objective == pytest.approx(fresh - float(res.lengths @ K_HYPER), abs=1e-12)

    def test_fig8_hyper_target(self, fig8):
        rng = np.random.default_rng(2)
        k = random_positive_hyper_k(fig8, rng)
        res = solve_metric(fig8, k, "hyper")
        assert np.max(np.abs(res.achieved_cone_angles - k)) <= 1e-8
        assert np.min(res.lengths) > 0.0

    def test_round_trip_on_128_tets(self, fixtures_dir):
        # the objective sums 128 covolumes, so its rounding exceeds a fixed
        # 1e-13 Armijo allowance; the allowance scales with the terms instead
        with open(fixtures_dir / "fig8.json") as fh:
            c = build_complex(GluingSpec.from_dict(disjoint_union(json.load(fh), 64)))
        lengths = np.random.default_rng(0).uniform(0.8, 1.6, c.num_edges)
        k = cone_angles(c, angles_of_metric(c, lengths, "hyper"))
        res = solve_metric(c, k, "hyper", SolveOptions(max_iter=200))
        assert np.max(np.abs(res.lengths - lengths)) <= 1e-8

    def test_monotone_descent_up_to_quadrature_noise(self, double_tet):
        rng = np.random.default_rng(3)
        k = random_positive_hyper_k(double_tet, rng)
        res = solve_metric(double_tet, k, "hyper")
        trace = np.asarray(objective_trace(double_tet, res))
        assert np.all(np.diff(trace) <= 1e-7)

    def test_line_search_increment_consistency(self, double_tet):
        # the line search's closed-form value differences agree with the
        # quadrature of the angle form along the step (its closedness)
        rng = np.random.default_rng(4)
        tol = 1e-11
        for _ in range(10):
            x = rng.uniform(0.2, 2.0, 6)
            y = x + rng.uniform(-0.5, 0.5, 6)
            inc = sum(
                mu_segment_integral(
                    x[double_tet.edge_index[t]], y[double_tet.edge_index[t]], tol=tol
                )
                for t in range(2)
            )
            v0, _ = cov_complex(double_tet, x, "hyper", tol=tol)
            v1, _ = cov_complex(double_tet, y, "hyper", tol=tol)
            assert abs(inc - (v1 - v0)) <= 2 * tol * 10


@pytest.fixture(scope="module")
def fig8_cover(fixtures_dir):
    """The connected T-tetrahedron cyclic cover of fig8, one build per T."""
    with open(fixtures_dir / "fig8.json") as fh:
        base = json.load(fh)
    built = {}

    def cover(tets):
        if tets not in built:
            tri = cyclic_cover(base, FIG8_COCYCLE, tets // 2)
            built[tets] = build_complex(GluingSpec.from_dict(tri))
        return built[tets]

    return cover


class TestRoundTripsAtScale:
    """Newton's iteration count does not grow with T: at most 10 per solve."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ideal_on_512_tets(self, fig8_cover, seed):
        # the draws of the benchmark's ideal round trips; with a 1e-9
        # residual alone, seed 0 once left the gauge class by 2.4e-7
        c = fig8_cover(512)
        lengths = np.random.default_rng(seed).uniform(-0.25, 0.25, c.num_edges)
        k = cone_angles(c, angles_of_metric(c, lengths, "ideal"))
        res = solve_metric(c, k, "ideal")
        assert res.iterations <= 10
        assert np.max(np.abs(gauge_project(c, res.lengths - lengths))) <= 1e-8

    def test_random_starts_on_a_16_tet_cover(self, fig8_cover):
        # from these starts the unshifted Newton step ran to lengths of 1e17
        # and more, where flat tetrahedra leave H nearly singular, and the
        # line search gave up
        c = fig8_cover(16)
        k = random_positive_ideal_k(c, np.random.default_rng(1000))
        rep = rigidity_check(c, k, "ideal", starts=3, seed=0)
        assert rep.ok and max(rep.iterations) <= 10

    def test_hyper_on_256_tets(self, fig8_cover):
        c = fig8_cover(256)
        lengths = ACOSH2 + np.random.default_rng(0).uniform(-0.2, 0.2, c.num_edges)
        k = cone_angles(c, angles_of_metric(c, lengths, "hyper"))
        res = solve_metric(c, k, "hyper")
        assert res.iterations <= 10
        assert np.max(np.abs(res.lengths - lengths)) <= 1e-8


@pytest.fixture
def lp_calls(monkeypatch):
    """The number of feasibility LPs solved since the fixture was set up."""
    real = hypmet.solver.linprog
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hypmet.solver, "linprog", counting)
    return calls


@pytest.fixture
def newton_steps(monkeypatch):
    """The number of Newton steps taken since the fixture was set up."""
    real = hypmet.solver._NewtonSystem.step
    calls = []

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(hypmet.solver._NewtonSystem, "step", counting)
    return calls


def refusal_message(c, k, flavor):
    """The LP's refusal of a non-positive target, as the solvers word it."""
    rep = feasibility(c, k, flavor)
    assert not rep.positive
    return (
        f"target has no positive angle assignment (status {rep.status}, "
        f"max slack {rep.max_slack})"
    )


def near_boundary_targets(c, flavor, fractions):
    """Targets a fraction t of the way from the boundary to a positive target.

    The max slack is concave along the segment and 0 at its boundary end, so
    it is at least t times the positive target's slack.
    """
    targets = lp_targets(c, flavor, np.random.default_rng(12))
    positive, boundary = targets[0][1], targets[1][1]
    return [boundary + t * (positive - boundary) for t in fractions]


class TestCertificateGate:
    """A converged solve with positive angles certifies its own target.

    The feasibility LP runs at most once per call: only when the solution
    does not certify, the descent raises, or it runs 20 iterations
    unconverged.
    """

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet", "fig8_16"])
    def test_positive_targets_solve_without_lp(self, request, fig8_cover, lp_calls, name, flavor):
        c = fig8_cover(16) if name == "fig8_16" else request.getfixturevalue(name)
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        k = draw(c, np.random.default_rng(14))
        res = solve_metric(c, k, flavor)
        assert np.max(np.abs(res.achieved_cone_angles - k)) <= 1e-9
        rep = rigidity_check(c, k, flavor, starts=10, seed=3)
        assert rep.ok
        assert lp_calls == []

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet", "fig8x16", "double_tetx16"])
    def test_refusals_keep_the_lp_message(
        self, lp_complexes, lp_calls, newton_steps, name, flavor
    ):
        c = lp_complexes[name]
        corners = np.bincount(c.vertex_index.ravel(), minlength=c.num_vertices)
        for expected, k in lp_targets(c, flavor, np.random.default_rng(12)):
            if expected == "positive_feasible":
                continue
            vertex_miss = np.max(np.abs(gauge_matrix(c).T @ k - math.pi * corners))
            if flavor == "ideal" and vertex_miss > 1e-6:
                # refused by the vertex sums, before any LP or descent
                message, lps = "target misses the vertex sum", 0
            else:
                message, lps = refusal_message(c, k, flavor), 1
            for solve in (
                lambda: solve_metric(c, k, flavor),
                lambda: rigidity_check(c, k, flavor, starts=10),
            ):
                lp_calls.clear()
                newton_steps.clear()
                with pytest.raises(NotPositiveFeasibleError) as exc:
                    solve()
                assert str(exc.value).startswith(message)
                assert len(lp_calls) == lps
                assert len(newton_steps) <= 20 * lps

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_near_boundary_targets_still_solve(self, request, lp_calls, name, flavor):
        # ideal targets closer to the boundary than this fail to converge
        # (see test_ideal_targets_nearer_the_boundary_fail)
        c = request.getfixturevalue(name)
        fractions = [8e-5, 4e-5] if flavor == "ideal" else [5e-5, 1e-5, 1e-6, 1e-7, 1e-8]
        for k in near_boundary_targets(c, flavor, fractions):
            slack = feasibility(c, k, flavor).max_slack
            assert 1e-9 < slack <= 1e-4
            lp_calls.clear()
            res = solve_metric(c, k, flavor)
            assert np.max(np.abs(res.achieved_cone_angles - k)) <= 1e-9
            assert len(lp_calls) <= 1
            if not lp_calls:  # the witness certified the target
                assert feasibility(c, k, flavor).positive

    @pytest.mark.xfail(
        raises=LineSearchError, strict=True, reason="the ideal descent stalls near the boundary"
    )
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_ideal_targets_nearer_the_boundary_fail(self, request, name):
        # positive-feasible, LP max slack about 1e-7: the descent's line
        # search gives up, as it did before the certificate
        c = request.getfixturevalue(name)
        (k,) = near_boundary_targets(c, "ideal", [1e-7])
        assert feasibility(c, k, "ideal").positive
        solve_metric(c, k, "ideal")

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_certificate_needs_residual_and_margin(self, double_tet, flavor):
        # the solution's LP slack must exceed 1e-6, 1000 times the LP's
        # threshold, at a residual within the LP's 1e-9
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        k = draw(double_tet, np.random.default_rng(15))
        res = solve_metric(double_tet, k, flavor)
        certifies = hypmet.solver._certifies
        assert certifies(res)
        assert not certifies(dataclasses.replace(res, grad_norm=2e-9))
        for slack in (1e-6, 1e-9, 0.0):
            a = res.assignment.copy()
            a[1, 2] = slack
            assert not certifies(dataclasses.replace(res, assignment=a))
        if flavor == "hyper":
            a = res.assignment.copy()
            a[0, 3] += math.pi - 1e-7 - a[0, list(VERTEX_SLOTS[2])].sum()
            assert not certifies(dataclasses.replace(res, assignment=a))

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_loose_tol_keeps_the_lp_verdict(self, double_tet, lp_calls, flavor):
        # a residual above 1e-9 cannot certify, so the LP decides
        opts = SolveOptions(tol=1e-3)
        targets = lp_targets(double_tet, flavor, np.random.default_rng(12))
        (_, positive), (_, boundary) = targets[:2]
        message = refusal_message(double_tet, boundary, flavor)
        lp_calls.clear()
        res = solve_metric(double_tet, positive, flavor, opts)
        assert np.max(np.abs(res.achieved_cone_angles - positive)) <= 1e-3
        assert res.grad_norm > 1e-9 and len(lp_calls) == 1
        lp_calls.clear()
        with pytest.raises(NotPositiveFeasibleError) as exc:
            solve_metric(double_tet, boundary, flavor, opts)
        assert str(exc.value) == message
        assert len(lp_calls) == 1

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_one_iteration_budget(self, double_tet, lp_calls, flavor):
        opts = SolveOptions(max_iter=1)
        targets = lp_targets(double_tet, flavor, np.random.default_rng(12))
        (_, positive), (_, boundary) = targets[:2]
        with pytest.raises(MaxIterationsError):
            solve_metric(double_tet, positive, flavor, opts)
        assert len(lp_calls) == 1
        message = refusal_message(double_tet, boundary, flavor)
        lp_calls.clear()
        with pytest.raises(NotPositiveFeasibleError) as exc:
            solve_metric(double_tet, boundary, flavor, opts)
        assert str(exc.value) == message
        assert len(lp_calls) == 1


class TestSolverOptions:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, fig8, tol):
        opts = SolveOptions(tol=tol)
        with pytest.raises(DomainError, match="tol"):
            solve_metric(fig8, [TWO_PI, TWO_PI], "ideal", opts)
        with pytest.raises(DomainError, match="tol"):
            rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", opts=opts)

    def test_max_iter_must_be_nonnegative(self, fig8):
        opts = SolveOptions(max_iter=-1)
        with pytest.raises(DomainError, match="max_iter"):
            solve_metric(fig8, [TWO_PI, TWO_PI], "ideal", opts)
        with pytest.raises(DomainError, match="max_iter"):
            rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", opts=opts)
        # a zero budget is valid: the regular target's start is its solution
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal", SolveOptions(max_iter=0))
        assert res.iterations == 0

    @pytest.mark.parametrize(
        "field, value",
        [("max_iter", 2.5), ("max_iter", True), ("max_iter", math.nan), ("max_iter", None),
         ("max_iter", "3"), ("tol", True), ("tol", "1e-9"), ("tol", None)],
    )
    def test_options_of_the_wrong_type_are_domain_errors(self, fig8, field, value):
        opts = SolveOptions(**{field: value})
        with pytest.raises(DomainError, match=field):
            solve_metric(fig8, [TWO_PI, TWO_PI], "ideal", opts)
        with pytest.raises(DomainError, match=field):
            rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", opts=opts)
        # numpy integers and reals are counts and tolerances like any other
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal", SolveOptions(np.float64(1e-9), np.int64(3)))
        assert res.iterations == 0

    def test_rigidity_needs_a_start(self, fig8):
        for starts in (0, -1):
            with pytest.raises(DomainError, match="start"):
                rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", starts=starts)
        assert len(rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", starts=1).iterations) == 1

    def test_negative_seed_is_a_domain_error(self, fig8):
        k = [TWO_PI, TWO_PI]
        with pytest.raises(DomainError, match="seed"):
            rigidity_check(fig8, k, "ideal", starts=2, seed=-1)
        res = solve_metric(fig8, k, "ideal")
        with pytest.raises(DomainError, match="seed"):
            duality_gap(fig8, k, res, samples=3, seed=-1)


class TestMaxVolumeAngles:
    def test_fig8_regular(self, fig8):
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal")
        assert np.allclose(res.assignment, math.pi / 3, atol=1e-7)
        assert res.volume == pytest.approx(FIG8_VOL, abs=1e-7)

    def test_doubled_hyper(self, double_tet):
        res = solve_metric(double_tet, K_HYPER, "hyper")
        assert np.allclose(res.assignment, EQUI_ANGLE, atol=1e-8)

    def test_sampled_dominance(self, fig8):
        rng = np.random.default_rng(5)
        k = np.array([TWO_PI, TWO_PI])
        best = solve_metric(fig8, k, "ideal").volume
        for theta in sample_ideal_assignments(fig8, k, 100, rng):
            assert volume(fig8, np.clip(theta, 0, None), "ideal") <= best + 1e-9


class TestDualityGap:
    def test_gap_nonpositive_near_minimizer(self, fig8):
        k = np.array([TWO_PI, TWO_PI])
        res = solve_metric(fig8, k, "ideal")
        gap = duality_gap(fig8, k, res, samples=1000, seed=6)
        assert gap <= 1e-9

    def test_gap_zero_at_minimizer(self, fig8):
        k = np.array([TWO_PI, TWO_PI])
        res = solve_metric(fig8, k, "ideal")
        v, _ = cov_complex(fig8, res.lengths, "ideal")
        assert float(res.lengths @ k) - v == pytest.approx(res.w_value, abs=1e-9)

    def test_gap_strictly_negative_far_away(self, fig8):
        # the probe must leave the gauge orbit of the minimizer: along the
        # diagonal (the gauge direction) the pairing is exactly W
        k = np.array([TWO_PI, TWO_PI])
        res = solve_metric(fig8, k, "ideal")
        diag = np.full(2, 10.0)
        v, _ = cov_complex(fig8, diag, "ideal")
        assert float(diag @ k) - v == pytest.approx(res.w_value, abs=1e-9)
        x = np.array([10.0, -10.0])
        v, _ = cov_complex(fig8, x, "ideal")
        assert float(x @ k) - v < res.w_value - 1e-3

    def test_hyper_gap(self, double_tet):
        res = solve_metric(double_tet, K_HYPER, "hyper")
        gap = duality_gap(double_tet, K_HYPER, res, samples=100, seed=7)
        assert gap <= 1e-8

    def test_samples_beyond_the_kernels_range_raise(self, double_tet):
        # the hyper kernel gives these samples NaN covolumes, which are no gap
        res = solve_metric(double_tet, K_HYPER, "hyper")
        far = dataclasses.replace(res, lengths=np.full(double_tet.num_edges, 1e13))
        with pytest.raises(NumericalError, match="outside the double range"):
            duality_gap(double_tet, K_HYPER, far, samples=5)

    def test_ideal_samples_past_the_range_give_a_gap_in_any_number(self, fig8):
        # the samples all round to lengths 1e306, whose covolume fits the
        # double range for fig8's two tetrahedra, in a batch of any size
        res = synthetic_result(fig8, np.full(fig8.num_edges, 1e306), "ideal")
        k = res.target_cone_angles
        cov = cov_complex(fig8, res.lengths, "ideal")[0]
        for samples in (1, 100):
            gap = duality_gap(fig8, k, res, samples)
            assert abs(gap) <= 8.0 * np.finfo(float).eps * cov

    @pytest.mark.parametrize("case", ["past-the-range", "round-trip"])
    def test_a_second_sample_never_lowers_the_gap(self, fig8, case):
        # a seed draws the same first sample in a batch of any size, and that
        # sample's pairing <x, k> is the same number in every batch, so the
        # gap of two samples is at least the gap of one, bit for bit; a
        # matrix-vector product x @ k once gave 1.2566370614359175e307 for
        # the first of one sample at lengths 1e306 and ...172e307 in a pair
        if case == "past-the-range":
            res = synthetic_result(fig8, np.full(fig8.num_edges, 1e306), "ideal")
            k = res.target_cone_angles
        else:
            lengths = np.random.default_rng(9).uniform(-0.3, 0.3, fig8.num_edges)
            k = cone_angles(fig8, angles_of_metric(fig8, lengths, "ideal"))
            res = solve_metric(fig8, k, "ideal")
        for seed in range(8):
            assert duality_gap(fig8, k, res, 1, seed) <= duality_gap(fig8, k, res, 2, seed)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_batched_samples_match_per_sample_loop(self, request, name, flavor):
        # one kernel call over all samples gives the gap of the old per-sample loop
        c = request.getfixturevalue(name)
        rng = np.random.default_rng(8)
        make_k = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        k = make_k(c, rng)
        res = solve_metric(c, k, flavor)
        for samples, seed in ((50, 3), (7, 4), (1, 5)):
            gap = duality_gap(c, k, res, samples=samples, seed=seed)
            want = _per_sample_duality_gap(c, k, res, samples, seed)
            assert abs(gap - want) <= 1e-12
        # no samples would be a vacuous pass (the max of nothing, -inf)
        with pytest.raises(DomainError, match="samples"):
            duality_gap(c, k, res, samples=0)


def _per_sample_duality_gap(c, k, result, samples, seed):
    """The per-sample loop duality_gap replaced: one cov_complex call per sample."""
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(samples):
        x = result.lengths + rng.uniform(-1.0, 1.0, c.num_edges)
        v, _ = cov_complex(c, x, result.flavor)
        best = max(best, float(x @ k) - v)
    return best - result.w_value


class TestResultOfAnotherComplex:
    """A result that does not fit the complex is refused before it is read."""

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_fig8_result_on_double_tet(self, fig8, double_tet, flavor):
        # once a broadcast ValueError in duality_gap, an IndexError in classify
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        res = solve_metric(fig8, draw(fig8, np.random.default_rng(40)), flavor)
        k = draw(double_tet, np.random.default_rng(41))
        with pytest.raises(DomainError, match="result lengths"):
            duality_gap(double_tet, k, res, samples=5)
        with pytest.raises(DomainError, match="result lengths"):
            classify_maximizer(double_tet, res)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_assignment_of_the_other_flavors_shape(self, double_tet, flavor):
        res = solve_metric(double_tet, K_HYPER if flavor == "hyper" else np.full(6, TWO_PI / 3), flavor)
        other = res.assignment[:, :3] if flavor == "hyper" else np.tile(res.assignment, 2)
        wrong = dataclasses.replace(res, assignment=other)
        with pytest.raises(DomainError, match="assignment must have shape"):
            duality_gap(double_tet, res.target_cone_angles, wrong, samples=5)
        with pytest.raises(DomainError, match="assignment must have shape"):
            classify_maximizer(double_tet, wrong)
        # the result itself fits
        assert duality_gap(double_tet, res.target_cone_angles, res, samples=5) <= 1e-8
        assert len(classify_maximizer(double_tet, res)) == double_tet.n_tets


class TestClassifyMaximizer:
    def test_fig8_realized(self, fig8):
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal")
        verdicts = classify_maximizer(fig8, res)
        assert [v.verdict for v in verdicts] == ["realized", "realized"]

    def test_flat_ideal_pattern(self, double_tet):
        # synthetic converged result at the degenerate lengths of sides (4,1,1)
        lengths = np.array([2 * math.log(2), 0, 0, 2 * math.log(2), 0, 0])
        assignment = angles_of_metric(double_tet, lengths, "ideal")
        res = SolveResult(
            flavor="ideal",
            lengths=lengths,
            assignment=assignment,
            achieved_cone_angles=cone_angles(double_tet, assignment),
            target_cone_angles=cone_angles(double_tet, assignment),
            volume=0.0,
            w_value=0.0,
            objective=0.0,
            iterations=0,
            grad_norm=0.0,
        )
        verdicts = classify_maximizer(double_tet, res)
        assert all(v.verdict == "flat_ideal" for v in verdicts)
        # side inequality residual: e^{(l1+l4)/2} - 1 - 1 = 2
        assert verdicts[0].residual == pytest.approx(2.0, abs=1e-12)

    def test_flat_hyper_pattern(self, double_tet):
        s = 0.5
        f = math.acosh(2 * math.cosh(s) + 1) + 0.4
        lengths = np.array([f, s, s, f, s, s])
        assignment = angles_of_metric(double_tet, lengths, "hyper")
        res = SolveResult(
            flavor="hyper",
            lengths=lengths,
            assignment=assignment,
            achieved_cone_angles=cone_angles(double_tet, assignment),
            target_cone_angles=cone_angles(double_tet, assignment),
            volume=0.0,
            w_value=0.0,
            objective=0.0,
            iterations=0,
            grad_norm=0.0,
        )
        verdicts = classify_maximizer(double_tet, res)
        assert all(v.verdict == "flat_hyper" for v in verdicts)
        assert all(v.residual > 0 for v in verdicts)

    def test_inconsistent_zero_angle_raises(self, double_tet):
        lengths = np.zeros(6)
        assignment = np.array([[math.pi / 2, math.pi / 2, 0.0]] * 2)  # not the flat pattern
        res = SolveResult(
            flavor="ideal",
            lengths=lengths,
            assignment=assignment,
            achieved_cone_angles=cone_angles(double_tet, assignment),
            target_cone_angles=cone_angles(double_tet, assignment),
            volume=0.0,
            w_value=0.0,
            objective=0.0,
            iterations=0,
            grad_norm=0.0,
        )
        with pytest.raises(ConsistencyError):
            classify_maximizer(double_tet, res)


def classify_loop(c, result, angle_tol=1e-7):
    """The per-tetrahedron loop classify_maximizer replaced: (verdicts, error)."""
    verdicts = []
    try:
        for t in range(c.n_tets):
            lt = result.lengths[c.edge_index[t]]
            if result.flavor == "ideal":
                quad = np.asarray(result.assignment[t])
                if np.min(quad) > angle_tol:
                    verdicts.append((t, "realized", float(np.min(quad))))
                    continue
                pair = int(np.argmax(quad))
                pattern = abs(quad[pair] - math.pi) <= angle_tol and all(
                    quad[p] <= angle_tol for p in range(3) if p != pair
                )
                if not pattern:
                    raise ConsistencyError(
                        f"tetrahedron {t} has a zero angle without the flat pattern: {quad}"
                    )
                sides = [math.exp(0.5 * (lt[p] + lt[q])) for p, q in PAIRS]
                others = [p for p in range(3) if p != pair]
                residual = sides[pair] - sides[others[0]] - sides[others[1]]
                if residual < -angle_tol:
                    raise ConsistencyError(
                        f"flat tetrahedron {t} violates the collapsed side inequality "
                        f"(residual {residual})"
                    )
                verdicts.append((t, "flat_ideal", float(residual)))
            else:
                slot = np.asarray(result.assignment[t])
                cls = classify_lengths(lt, tol=angle_tol)
                if cls.is_hyper_ideal:
                    if np.min(slot) <= angle_tol:
                        raise ConsistencyError(
                            f"tetrahedron {t} has a zero angle but hyper-ideal lengths: {slot}"
                        )
                    verdicts.append((t, "realized", float(np.min(slot))))
                else:
                    residual = -1.0 - min(cls.phi[cls.pair], cls.phi[cls.pair + 3])
                    verdicts.append((t, "flat_hyper", float(residual)))
    except ConsistencyError as exc:
        return verdicts, str(exc)
    return verdicts, None


def synthetic_result(c, lengths, flavor, assignment=None):
    """A converged-looking SolveResult at the given lengths."""
    if assignment is None:
        assignment = angles_of_metric(c, lengths, flavor)
    k = cone_angles(c, assignment)
    lengths = np.asarray(lengths, dtype=float)
    return SolveResult(flavor, lengths, assignment, k, k, 0.0, 0.0, 0.0, 0, 0.0)


class TestClassifyAgainstLoop:
    """The batched classify_maximizer against the loop it replaced."""

    def check(self, c, result):
        want, error = classify_loop(c, result)
        if error is None:
            got = classify_maximizer(c, result)
            assert [(v.tet, v.verdict) for v in got] == [w[:2] for w in want]
            assert np.max(np.abs([v.residual - w[2] for v, w in zip(got, want)])) <= 1e-12
            return [v.verdict for v in got]
        with pytest.raises(ConsistencyError) as exc:
            classify_maximizer(c, result)
        assert str(exc.value) == error
        return error

    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_realized_maximizers(self, request, name, flavor):
        c = request.getfixturevalue(name)
        make = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        for seed in range(3):
            res = solve_metric(c, make(c, np.random.default_rng(seed)), flavor)
            assert set(self.check(c, res)) == {"realized"}

    def test_flat_and_realized_tetrahedra_together(self, fixtures_dir):
        with open(fixtures_dir / "double_tet.json") as fh:
            c = build_complex(GluingSpec.from_dict(disjoint_union(json.load(fh), 3)))
        first = c.edge_index[::2]  # tetrahedra 0, 2, 4, one per copy
        ideal = np.zeros(c.num_edges)
        ideal[first[0]] = [2 * math.log(2), 0, 0, 2 * math.log(2), 0, 0]
        ideal[first[1]] = [0.3, -0.2, 0.1, 0.0, 0.2, -0.1]
        ideal[first[2]] = [1.5, 0, 0, 1.5, 0, 0]
        assert self.check(c, synthetic_result(c, ideal, "ideal")) == ["flat_ideal"] * 2 + [
            "realized"
        ] * 2 + ["flat_ideal"] * 2
        s = 0.5
        wall = math.acosh(2 * math.cosh(s) + 1)
        hyper = np.full(c.num_edges, ACOSH2)
        hyper[first[0]] = [wall + 0.4, s, s, wall + 0.4, s, s]
        hyper[first[2]] = [s, wall, s, s, wall, s]
        verdicts = self.check(c, synthetic_result(c, hyper, "hyper"))
        assert verdicts == ["flat_hyper"] * 2 + ["realized"] * 2 + ["flat_hyper"] * 2

    def test_errors_name_the_first_offending_tetrahedron(self, fixtures_dir):
        with open(fixtures_dir / "double_tet.json") as fh:
            c = build_complex(GluingSpec.from_dict(disjoint_union(json.load(fh), 2)))
        assignment = np.full((4, 3), math.pi / 3)
        assignment[2:] = [math.pi / 2, math.pi / 2, 0.0]  # not the flat pattern
        error = self.check(c, synthetic_result(c, np.zeros(12), "ideal", assignment))
        assert error.startswith("tetrahedron 2 has a zero angle without the flat pattern")
        # the flat pattern on sides (1, 1, 1), which violate the collapsed side inequality
        assignment[2:] = [math.pi, 0.0, 0.0]
        assert "flat tetrahedron 2" in self.check(
            c, synthetic_result(c, np.zeros(12), "ideal", assignment)
        )
        slots = np.full((4, 6), EQUI_ANGLE)
        slots[3, 1] = 0.0
        error = self.check(c, synthetic_result(c, np.full(12, ACOSH2), "hyper", slots))
        assert error.startswith("tetrahedron 3 has a zero angle")


class TestRigidity:
    def test_fig8_ideal_ten_starts(self, fig8):
        rep = rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", starts=10, seed=8)
        assert rep.ok
        assert rep.max_angle_deviation <= 1e-7
        assert rep.max_length_deviation <= 1e-7

    def test_doubled_hyper_ten_starts(self, double_tet):
        rep = rigidity_check(double_tet, K_HYPER, "hyper", starts=10, seed=9)
        assert rep.ok
        assert rep.max_length_deviation <= 1e-7

    def test_perturbed_target_still_rigid(self, fig8):
        rng = np.random.default_rng(10)
        k = random_positive_ideal_k(fig8, rng)
        rep = rigidity_check(fig8, k, "ideal", starts=5, seed=11)
        assert rep.ok

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_deviations_equal_the_pair_loop(self, request, monkeypatch, name, flavor):
        # the spread max - min of each entry against the O(starts^2) loop it replaced
        c = request.getfixturevalue(name)
        make_k = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        k = make_k(c, np.random.default_rng(13))
        results = []
        descend = hypmet.solver._descend

        def recording(*args, **kwargs):
            # one call descends from a group of starts, one result each
            out = descend(*args, **kwargs)
            results.extend(out)
            return out

        monkeypatch.setattr(hypmet.solver, "_descend", recording)
        for starts in (1, 2, 10):
            results.clear()
            rep = rigidity_check(c, k, flavor, starts=starts, seed=14)
            assert len(results) == starts
            max_angle = max_len = 0.0
            for i in range(starts):
                for j in range(i + 1, starts):
                    a, b = results[i], results[j]
                    max_angle = max(max_angle, float(np.max(np.abs(a.assignment - b.assignment))))
                    max_len = max(max_len, float(np.max(np.abs(a.lengths - b.lengths))))
            assert rep.max_angle_deviation == max_angle
            assert rep.max_length_deviation == max_len
            assert rep.ok == (max(max_angle, max_len) <= rep.tolerance)
            if starts > 1:
                assert max_angle > 0.0 or max_len > 0.0


def start_points(c, flavor, count, rng):
    """Initial metrics drawn as rigidity_check draws them."""
    low, high = (-1.0, 1.0) if flavor == "ideal" else (0.2, 3.0)
    return rng.uniform(low, high, (count, c.num_edges))


def assert_same_descent(got, want, tol=1e-12):
    assert got.iterations == want.iterations
    assert np.max(np.abs(got.lengths - want.lengths)) <= tol
    assert np.max(np.abs(got.assignment - want.assignment)) <= tol


def line_search(c, flavor, k, pts, d, gd, gnorm):
    """The descent's line search at iteration 1."""
    return hypmet.solver._line_search(c, flavor, k, pts, d, gd, gnorm, 1)


def assert_rows_searched_alone(c, flavor, k, pts, d, gd, gnorm, both):
    """Each row of a lockstep line search ends where its search alone ends.

    Both kernel stages give each row the same bits whatever the batch, so
    the point, its cone angles and every array of its angle-stage record
    agree to the bit.  Whether the search ran the volume stage at a point
    depends on the other rows of its round; where it did, f, size and vol
    are those of the whole kernel at the point, to the bit.
    """
    for i in range(len(d)):
        s = slice(i, i + 1)
        alone, failed = line_search(c, flavor, k, pts.take(s), d[s], gd[s], gnorm[s])
        assert not failed
        for got, want in zip((both.x, both.kx, *both.record), (alone.x, alone.kx, *alone.record)):
            assert np.array_equal(got[i], want[0])
        for row in (both.take([i]), alone):
            if not math.isnan(row.f[0]):
                kernel, cov, _ = _evaluate(c, row.x, flavor)
                xk = float(row.x[0] @ k)
                assert row.f[0] == cov[0] - xk and row.size[0] == abs(cov[0]) + abs(xk)
                assert row.vol[0] == kernel.vol[0].sum()


class TestLockstep:
    """rigidity_check's starts descend in lockstep, each as it would alone."""

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet", "fig8_16", "fig8_sparse"])
    def test_lockstep_matches_independent_descents(self, request, fig8_cover, sparse_tets, name, flavor):
        # fig8_sparse is the least fig8 cover whose starts are the diagonal
        # blocks of one SuperLU matrix; the others stack dense matrices
        covers = {"fig8_16": 16, "fig8_sparse": sparse_tets}
        c = fig8_cover(covers[name]) if name in covers else request.getfixturevalue(name)
        assert hypmet.solver._NewtonSystem(c, flavor).dense == (name != "fig8_sparse")
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        # each start alone takes the one-start loop; the lockstep runs 1, 2
        # and 10 of them
        descend, opts = hypmet.solver._descend, SolveOptions()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            k = draw(c, rng)
            x0 = start_points(c, flavor, 10, rng)
            alone = [descend(c, k, flavor, x[None], opts)[0] for x in x0]
            for starts in (1, 2, 10):
                together = hypmet.solver._lockstep(c, k, flavor, x0[:starts], opts)
                assert len(together) == starts
                for got, want in zip(together, alone):
                    assert_same_descent(got, want)

    @pytest.mark.parametrize("width", [3, 6])
    def test_stacked_cone_angles_are_the_incidence_products(self, fig8_cover, width):
        # the copies' bincount adds each edge's instances in the order of
        # the incidence operator's product, so every row agrees to the bit
        c = fig8_cover(16)
        rows = np.random.default_rng(33).uniform(0.0, 3.0, (4, c.n_tets, width))
        rows[1, ::3] = -0.0
        stacked = _cone_angles(c, rows)
        assert stacked.shape == (4, c.num_edges)
        for got, a in zip(stacked, rows):
            product = c.incidence @ (np.tile(a, 2) if width == 3 else a).ravel()
            assert np.array_equal(got, product)
            assert np.array_equal(cone_angles(c, a), product)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_one_row_backtracks_while_the_other_accepts(self, fig8, monkeypatch, flavor):
        # row 1's direction is 64 times its Newton step, so it halves its
        # own step length while row 0 takes its full step
        k = (random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k)(
            fig8, np.random.default_rng(21)
        )
        x = start_points(fig8, flavor, 2, np.random.default_rng(22))
        pts = hypmet.solver._points(fig8, flavor, x, k)
        r = pts.kx - k
        d = hypmet.solver._NewtonSystem(fig8, flavor, 2).step(pts.record, r, np.zeros((2, 1)))
        d[1] *= 64.0
        gd = np.einsum("ij,ij->i", r, d)
        rows = []
        evaluate = hypmet.solver._points

        def recording(c, flavor, x, k):
            rows.append(len(x))
            return evaluate(c, flavor, x, k)

        monkeypatch.setattr(hypmet.solver, "_points", recording)
        gnorm = np.abs(r).max(axis=1)
        both, failed = line_search(fig8, flavor, k, pts.take([0, 1]), d, gd, gnorm)
        assert not failed and rows[0] == 2 and rows[1:] == [1] * (len(rows) - 1) and len(rows) > 1
        assert np.array_equal(both.x[0], x[0] + d[0])
        assert_rows_searched_alone(fig8, flavor, k, pts, d, gd, gnorm, both)

    def test_trial_point_beyond_the_kernels_range_halves_its_row_only(self, fig8, monkeypatch):
        # row 1's first trial has lengths above 1e12, beyond the hyper
        # cosine law: the angle stage gives its tetrahedra NaN angles, not
        # closed, so the row takes the Armijo test, which its NaN covolume
        # fails, while row 0 accepts; every round is one angle-stage call
        k = random_positive_hyper_k(fig8, np.random.default_rng(23))
        x = start_points(fig8, "hyper", 2, np.random.default_rng(26))
        pts = hypmet.solver._points(fig8, "hyper", x, k)
        r = pts.kx - k
        d = hypmet.solver._NewtonSystem(fig8, "hyper", 2).step(pts.record, r, np.zeros((2, 1)))
        d[1] *= 2.0**42
        assert np.max(np.abs(x[1] + d[1])) > 1e12
        gd = np.einsum("ij,ij->i", r, d)
        gnorm = np.abs(r).max(axis=1)
        calls, lost, volumes = [], [], []
        angle_stage, volume_stage = hypmet.metrics.hyper_angle_stage, hypmet.metrics.hyper_volume_stage

        def recording(l):
            out = angle_stage(l)
            calls.append(len(l))
            lost.append(int(np.isnan(out.angles[:, 0]).sum()))
            assert np.array_equal(np.isnan(out.angles[:, 0]), ~out.closed)
            return out

        def recording_volumes(record, tol=1e-10):
            cov, vol = volume_stage(record, tol)
            volumes.append(int(np.isnan(cov).sum()))
            return cov, vol

        monkeypatch.setattr(hypmet.metrics, "hyper_angle_stage", recording)
        monkeypatch.setattr(hypmet.metrics, "hyper_volume_stage", recording_volumes)
        both, failed = line_search(fig8, "hyper", k, pts.take([0, 1]), d, gd, gnorm)
        assert not failed and calls == [2 * fig8.n_tets] + [fig8.n_tets] * (len(calls) - 1)
        assert lost[0] > 0 and lost[-1] == 0
        # the first round's volume stage ran on row 1's trial point, NaN,
        # and its current point
        assert volumes[0] == lost[0]
        # row 1 accepts the step length of the last call
        assert np.array_equal(both.x[1], x[1] + 0.5 ** (len(calls) - 1) * d[1])
        assert np.array_equal(both.x[0], x[0] + d[0])
        assert_rows_searched_alone(fig8, "hyper", k, pts, d, gd, gnorm, both)

    def test_singular_block_falls_back_alone(self, double_tet, newton_paths):
        # row 0 has every hyper slot clamped, so its block is H = 0; the
        # matrices of both rows do not solve at once, on either path, and
        # each block is solved alone
        rng = np.random.default_rng(25)
        x = np.vstack([-np.ones(double_tet.num_edges), rng.uniform(0.8, 1.6, double_tet.num_edges)])
        r = rng.uniform(-1.0, 1.0, x.shape)
        shift = np.array([[0.0], [0.01]])
        both, one = (_evaluate(double_tet, rows, "hyper")[0] for rows in (x, x[1:]))
        for dense in newton_paths(double_tet):
            system = hypmet.solver._NewtonSystem(double_tet, "hyper", 2)
            assert system.dense == dense
            d = system.step(both, r, shift)
            assert np.array_equal(d[0], -r[0])
            alone = hypmet.solver._NewtonSystem(double_tet, "hyper").step(one, r[1], 0.01)
            assert np.max(np.abs(d[1] - alone)) <= 1e-12 and float(r[1] @ d[1]) < 0.0

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_groups_run_one_after_another(self, fig8, monkeypatch, flavor):
        # groups of 2 starts give the report of one group of 7, draw the
        # same initial metrics and leave the LP rules to the first group
        k = (random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k)(
            fig8, np.random.default_rng(26)
        )
        whole = rigidity_check(fig8, k, flavor, starts=7, seed=27)
        calls = []
        descend = hypmet.solver._descend

        def recording(c, k, flavor, x0, opts, lead=False):
            calls.append((x0, lead))
            return descend(c, k, flavor, x0, opts, lead)

        monkeypatch.setattr(hypmet.solver, "_descend", recording)
        monkeypatch.setattr(hypmet.solver, "_GROUP_TETS", 2 * fig8.n_tets)
        grouped = rigidity_check(fig8, k, flavor, starts=7, seed=27)
        assert [len(x0) for x0, _ in calls] == [2, 2, 2, 1]
        assert [lead for _, lead in calls] == [True, False, False, False]
        drawn = start_points(fig8, flavor, 7, np.random.default_rng(27))
        assert np.array_equal(np.vstack([x0 for x0, _ in calls]), drawn)
        assert grouped.iterations == whole.iterations and grouped.ok and whole.ok
        assert abs(grouped.max_angle_deviation - whole.max_angle_deviation) <= 1e-14
        assert abs(grouped.max_length_deviation - whole.max_length_deviation) <= 1e-14

    def test_default_groups_span_many_starts(self, fig8, monkeypatch):
        # 1027 starts on 2 tetrahedra are three groups of the default size;
        # one group of all of them reports the same
        k = random_positive_ideal_k(fig8, np.random.default_rng(30))
        starts = 2 * (hypmet.solver._GROUP_TETS // fig8.n_tets) + 3
        grouped = rigidity_check(fig8, k, "ideal", starts=starts, seed=31)
        monkeypatch.setattr(hypmet.solver, "_GROUP_TETS", starts * fig8.n_tets)
        whole = rigidity_check(fig8, k, "ideal", starts=starts, seed=31)
        assert grouped.ok and whole.ok and len(grouped.iterations) == starts
        assert grouped.iterations == whole.iterations
        assert abs(grouped.max_angle_deviation - whole.max_angle_deviation) <= 1e-14
        assert abs(grouped.max_length_deviation - whole.max_length_deviation) <= 1e-14

    def test_group_size_bounds_the_tetrahedra(self, fig8_cover, monkeypatch):
        c = fig8_cover(16)
        sizes = []
        descend = hypmet.solver._descend

        def recording(c, k, flavor, x0, opts, lead=False):
            sizes.append(len(x0))
            return descend(c, k, flavor, x0, opts, lead)

        monkeypatch.setattr(hypmet.solver, "_descend", recording)
        monkeypatch.setattr(hypmet.solver, "_GROUP_TETS", 40)
        k = random_positive_hyper_k(c, np.random.default_rng(28))
        assert rigidity_check(c, k, "hyper", starts=5, seed=1).ok
        assert sizes == [2, 2, 1]
        monkeypatch.setattr(hypmet.solver, "_GROUP_TETS", 8)  # smaller than the complex
        assert rigidity_check(c, k, "hyper", starts=2, seed=1).ok
        assert sizes[3:] == [1, 1]

    def test_first_failing_start_raises_with_its_diagnostics(self, fig8):
        # alone these starts take 6, 6, 7, 5, 5 and 7 iterations: with a
        # budget of 6, start 2 is the first to fail, as one after another
        rng = np.random.default_rng(2)
        k = random_positive_hyper_k(fig8, rng)
        x0 = start_points(fig8, "hyper", 6, rng)
        descend, opts = hypmet.solver._descend, SolveOptions(max_iter=6)
        assert [descend(fig8, k, "hyper", x[None], SolveOptions())[0].iterations for x in x0] == [
            6, 6, 7, 5, 5, 7
        ]
        with pytest.raises(MaxIterationsError) as alone:
            descend(fig8, k, "hyper", x0[2:3], opts)
        with pytest.raises(MaxIterationsError) as together:
            descend(fig8, k, "hyper", x0, opts, lead=True)
        want, got = alone.value.diagnostics, together.value.diagnostics
        assert got.keys() == want.keys() and got["flavor"] == "hyper"
        assert got["grad_norm"] == pytest.approx(want["grad_norm"], rel=1e-9)
        assert got["objective"] == pytest.approx(want["objective"], abs=1e-12)

    def test_hyper_solve_reuses_its_last_kernel_call(self, double_tet, monkeypatch):
        # the result's angles and volume come from the accepted point's
        # angle-stage call and a volume-stage call on its record: one
        # angle-stage call per evaluation, none more, and fewer volume-stage
        # calls than evaluations
        kernels, evaluations, volumes = count_kernel_calls(monkeypatch, "hyper")
        k = random_positive_hyper_k(double_tet, np.random.default_rng(29))
        res = solve_metric(double_tet, k, "hyper")
        assert res.iterations > 0 and len(kernels) == len(evaluations) > res.iterations
        assert 0 < len(volumes) < len(evaluations)
        # the reused record is what a fresh kernel call at the lengths gives
        fresh = hyper_kernel(res.lengths[double_tet.edge_index])
        assert np.array_equal(res.assignment, fresh.angles)
        assert res.volume == float(fresh.vol.sum())
        assert np.array_equal(res.achieved_cone_angles, cone_angles(double_tet, fresh.angles))

    def test_ideal_solve_reuses_its_last_kernel_call(self, fig8, monkeypatch):
        # the ideal result reads the record of its unprojected point and
        # reports gauge-projected lengths, at which the kernel agrees to rounding
        kernels, evaluations, volumes = count_kernel_calls(monkeypatch, "ideal")
        k = random_positive_ideal_k(fig8, np.random.default_rng(29))
        res = solve_metric(fig8, k, "ideal")
        assert res.iterations > 0 and len(kernels) == len(evaluations) > res.iterations
        assert 0 < len(volumes) < len(evaluations)
        fresh = ideal_kernel(res.lengths[fig8.edge_index])
        assert np.max(np.abs(res.assignment - fresh.angles)) <= 1e-14
        assert abs(res.volume - float(fresh.vol.sum())) <= 1e-14
        assert np.max(np.abs(res.achieved_cone_angles - cone_angles(fig8, fresh.angles))) <= 1e-14

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_rigidity_makes_one_kernel_call_per_evaluation(self, request, monkeypatch, name, flavor):
        # the starts' Newton steps and results read the accepted points'
        # records, so every angle-stage call is one line-search evaluation,
        # and the volume stage runs at most once per evaluation
        c = request.getfixturevalue(name)
        kernels, evaluations, volumes = count_kernel_calls(monkeypatch, flavor)
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        rep = rigidity_check(c, draw(c, np.random.default_rng(32)), flavor, starts=10, seed=33)
        assert rep.ok and len(kernels) == len(evaluations) > max(rep.iterations)
        assert 0 < len(volumes) <= len(evaluations)

    def test_hyper_descent_runs_one_cosine_law_per_kernel_call(self, fig8, monkeypatch):
        # the Jacobian reads the cosine-law terms of the angle-stage record,
        # and the volume stage runs none; away from the near-wall band, whose
        # integral evaluates phi along a ray, no other caller runs the
        # cosine law
        laws = []
        law = hypmet.hyperideal._cosine_law

        def counting(lp):
            laws.append(1)
            return law(lp)

        monkeypatch.setattr(hypmet.hyperideal, "_cosine_law", counting)
        kernels, _, _ = count_kernel_calls(monkeypatch, "hyper")
        k = random_positive_hyper_k(fig8, np.random.default_rng(34))
        res = solve_metric(fig8, k, "hyper")
        rep = rigidity_check(fig8, k, "hyper", starts=10, seed=35)
        assert res.iterations > 0 and rep.ok and len(laws) == len(kernels) > max(rep.iterations)


def count_kernel_calls(monkeypatch, flavor):
    """Lists that grow by one per call of the flavor's angle stage, of the descent's angle
    evaluator (metrics._evaluate_angles, which both loops call once per point or stack of
    points) and of the flavor's volume stage.

    The whole kernel counts too, as an angle-stage and a volume-stage call.
    """
    kernels, evaluations, volumes = [], [], []
    angle_stage, volume_stage = f"{flavor}_angle_stage", f"{flavor}_volume_stage"
    stages = getattr(hypmet.metrics, angle_stage), getattr(hypmet.metrics, volume_stage)
    kernel, evaluate = getattr(hypmet.metrics, f"{flavor}_kernel"), hypmet.solver._evaluate_angles

    def counting_angles(*args, **kwargs):
        kernels.append(1)
        return stages[0](*args, **kwargs)

    def counting_volumes(*args, **kwargs):
        volumes.append(1)
        return stages[1](*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        kernels.append(1)
        volumes.append(1)
        return kernel(*args, **kwargs)

    def counting_evaluate(c, x, flavor):
        evaluations.append(1)
        return evaluate(c, x, flavor)

    monkeypatch.setattr(hypmet.metrics, angle_stage, counting_angles)
    monkeypatch.setattr(hypmet.metrics, volume_stage, counting_volumes)
    monkeypatch.setattr(hypmet.metrics, f"{flavor}_kernel", counting_kernel)
    monkeypatch.setattr(hypmet.solver, "_evaluate_angles", counting_evaluate)
    return kernels, evaluations, volumes


class TestCountArguments:
    @pytest.mark.parametrize("samples", [0, -1, 2.5, True, "3", None])
    def test_duality_samples_must_be_a_positive_integer(self, fig8, samples):
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal")
        with pytest.raises(DomainError, match="samples"):
            duality_gap(fig8, [TWO_PI, TWO_PI], res, samples=samples)

    @pytest.mark.parametrize("starts", [0, -1, 2.5, True, False, "3", None])
    def test_rigidity_starts_must_be_a_positive_integer(self, fig8, starts):
        with pytest.raises(DomainError, match="starts"):
            rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", starts=starts)

    def test_numpy_integers_count(self, fig8):
        res = solve_metric(fig8, [TWO_PI, TWO_PI], "ideal")
        assert duality_gap(fig8, [TWO_PI, TWO_PI], res, samples=np.int64(3)) <= 1e-12
        rep = rigidity_check(fig8, [TWO_PI, TWO_PI], "ideal", starts=np.int32(2))
        assert rep.starts == 2 and type(rep.starts) is int and len(rep.iterations) == 2


class TestWConvexity:
    def test_ideal_midpoint(self, fig8):
        rng = np.random.default_rng(12)
        for _ in range(3):
            k1 = random_positive_ideal_k(fig8, rng)
            k2 = random_positive_ideal_k(fig8, rng)
            w1 = solve_metric(fig8, k1, "ideal").w_value
            w2 = solve_metric(fig8, k2, "ideal").w_value
            wm = solve_metric(fig8, 0.5 * (k1 + k2), "ideal").w_value
            assert wm <= 0.5 * (w1 + w2) + 1e-8

    def test_hyper_midpoint(self, double_tet):
        rng = np.random.default_rng(13)
        k1 = random_positive_hyper_k(double_tet, rng)
        k2 = random_positive_hyper_k(double_tet, rng)
        w1 = solve_metric(double_tet, k1, "hyper").w_value
        w2 = solve_metric(double_tet, k2, "hyper").w_value
        wm = solve_metric(double_tet, 0.5 * (k1 + k2), "hyper").w_value
        assert wm <= 0.5 * (w1 + w2) + 1e-8


def _bits(x):
    """x as plain data in which every array and float is its bytes, for exact comparison."""
    if dataclasses.is_dataclass(x):
        return {f.name: _bits(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, (np.ndarray, float)):
        a = np.asarray(x)
        return a.dtype.str, a.shape, a.tobytes()
    return x


class TestReuseOfOneComplex:
    # the complex keeps what the solvers derive from it alone (the Newton
    # patterns, the vertex sums, the copies' slot numbering, the gauge
    # factor); each call on a complex used many times must give the bits
    # of the same call on a complex built anew
    @pytest.mark.parametrize("name", ["cover16", "union16"])
    def test_calls_match_those_on_a_fresh_complex(self, fixtures_dir, name):
        with open(fixtures_dir / "fig8.json") as fh:
            fig8 = json.load(fh)
        if name == "cover16":
            spec = GluingSpec.from_dict(cyclic_cover(fig8, FIG8_COCYCLE, 8))
        else:
            spec = GluingSpec.from_dict(disjoint_union(fig8, 16))
        shared = build_complex(spec)
        e = shared.num_edges
        rng = np.random.default_rng(61)
        targets = {
            flavor: cone_angles(shared, angles_of_metric(shared, lengths, flavor))
            for flavor, lengths in (
                ("ideal", rng.uniform(-0.25, 0.25, e)),
                ("hyper", ACOSH2 + rng.uniform(-0.2, 0.2, e)),
            )
        }
        two_groups = hypmet.solver._GROUP_TETS // shared.n_tets + 2
        calls = []
        for flavor, k in targets.items():
            calls += [
                lambda c, f=flavor, k=k: solve_metric(c, k, f),
                lambda c, f=flavor, k=k: rigidity_check(c, k, f, starts=3, seed=1),
                lambda c, f=flavor, k=k: rigidity_check(c, k, f, starts=10, seed=2),
                lambda c, f=flavor, k=k: rigidity_check(c, k, f, starts=two_groups, seed=3),
                lambda c, f=flavor, k=k: classify_maximizer(c, solve_metric(c, k, f)),
                lambda c, f=flavor, k=k: duality_gap(c, k, solve_metric(c, k, f), 64, seed=4),
            ]
        for call in calls + calls[::-1]:
            assert _bits(call(shared)) == _bits(call(build_complex(spec)))


def reference_line_search(c, flavor, k, pts, d, gd, gnorm, iteration):
    """The line search that evaluates f at every trial point, through the whole kernel.

    This is the rule the angle-stage acceptance replaced: each row halves its
    step until its trial point passes the Armijo test with its roundoff
    allowance.  The current and the accepted points get their f, size and
    vol from that kernel call, so the results and errors read its values;
    only the records come from the angle stage, for the Newton steps.
    """

    def evaluate(x):
        kernel, cov, _ = _evaluate(c, x, flavor)
        xk = np.array([row @ k for row in x])
        return cov - xk, np.abs(cov) + np.abs(xk), kernel.vol.sum(axis=1)

    def points(x, values):
        out = hypmet.solver._points(c, flavor, x, k)
        out.f[:], out.size[:], out.vol[:] = values
        return out

    pts = points(pts.x, evaluate(pts.x))
    out = pts.take(np.arange(len(d)))
    rows, x, alpha = np.arange(len(d)), pts.x, 1.0
    for _ in range(50):
        trial = x + alpha * d
        f, size, vol = evaluate(trial)
        allowance = np.maximum(1e-13, 8.0 * np.finfo(float).eps * (pts.size[rows] + size))
        ok = f - pts.f[rows] <= 1e-4 * alpha * gd + allowance
        if ok.any():
            out.put(rows[ok], points(trial[ok], (f[ok], size[ok], vol[ok])))
        rows, x, d, gd = rows[~ok], x[~ok], d[~ok], gd[~ok]
        if not rows.size:
            return out, {}
        alpha *= 0.5
    return out, {
        int(j): LineSearchError(
            "backtracking found no acceptable step",
            {"grad_norm": float(gnorm[j]), "objective": float(pts.f[j]), "iteration": iteration},
        )
        for j in rows
    }


def assert_bitwise_same_descents(c, got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.iterations == b.iterations
        assert np.array_equal(a.lengths, b.lengths)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.achieved_cone_angles, b.achieved_cone_angles)
        assert a.volume == b.volume and a.w_value == b.w_value and a.objective == b.objective
        assert _bits(a.path) == _bits(b.path)
        trace = objective_trace(c, a)
        assert trace == objective_trace(c, b)
        assert len(trace) == a.iterations + 1
        assert not any(math.isnan(f) for f in trace)


class TestAngleStageAcceptance:
    """The line search accepts a trial point from its angles alone only where the Armijo test would."""

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet", "fig8_16"])
    def test_descents_match_the_reference_line_search(
        self, request, fig8_cover, monkeypatch, name, flavor
    ):
        # single starts, 10-start lockstep descents and the 10-start
        # lockstep descent of rigidity_check, bit for bit the descents whose
        # line search evaluates f at every trial point; a single start takes
        # the one-start loop, and the reference's is a one-start lockstep
        c = fig8_cover(16) if name == "fig8_16" else request.getfixturevalue(name)
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        descend, opts = hypmet.solver._descend, SolveOptions()
        descents = []

        def recording(*args, **kwargs):
            descents.append(descend(*args, **kwargs))
            return descents[-1]

        monkeypatch.setattr(hypmet.solver, "_descend", recording)
        for seed in range(4 if name == "fig8_16" else 8):
            rng = np.random.default_rng(100 + seed)
            k = draw(c, rng)
            x0 = start_points(c, flavor, 10, rng)
            start = (np.zeros if flavor == "ideal" else np.ones)((1, c.num_edges))
            runs = []
            for line_search, one in (
                (hypmet.solver._line_search, descend), (reference_line_search, hypmet.solver._lockstep)
            ):
                monkeypatch.setattr(hypmet.solver, "_line_search", line_search)
                descents.clear()
                report = rigidity_check(c, k, flavor, starts=10, seed=seed)
                assert len(descents) == 1 and report.ok
                runs.append((one(c, k, flavor, start, opts, lead=True), descend(c, k, flavor, x0, opts),
                             descents[0], report))
            *got, got_report = runs[0]
            *want, want_report = runs[1]
            assert got_report == want_report
            for a, b in zip(got, want):
                assert_bitwise_same_descents(c, a, b)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_failures_match_the_reference_line_search(self, fig8, monkeypatch, flavor):
        # an iteration budget that stops some starts: the first failing
        # start raises the same error with the same diagnostics
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        rng = np.random.default_rng(7)
        k = draw(fig8, rng)
        x0 = start_points(fig8, flavor, 10, rng)
        raised = []
        for line_search in (hypmet.solver._line_search, reference_line_search):
            monkeypatch.setattr(hypmet.solver, "_line_search", line_search)
            with pytest.raises(MaxIterationsError) as exc:
                hypmet.solver._descend(fig8, k, flavor, x0, SolveOptions(max_iter=3))
            raised.append(exc.value.diagnostics)
        assert raised[0] == raised[1]

    def test_volume_stage_calls_of_a_fixture_solve(self, double_tet, monkeypatch):
        # the regular hyper-ideal target (lengths arccosh 2) on double_tet,
        # from lengths 1: 4 iterations and 5 angle-stage calls, one per
        # point, where the whole kernel ran 5 times; the trials before the
        # last are accepted from their angles, and the last one's Armijo
        # test makes the one volume-stage call, which also gives the
        # result's objective
        kernels, evaluations, volumes = count_kernel_calls(monkeypatch, "hyper")
        res = solve_metric(double_tet, K_HYPER, "hyper")
        assert res.iterations == 4
        assert len(kernels) == len(evaluations) == 5
        assert len(volumes) == 1
        trace = objective_trace(double_tet, res)
        assert len(trace) == 5 and np.all(np.diff(trace) < 0.0)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_one_volume_stage_call_on_a_1024_tet_round_trip(self, fig8_cover, monkeypatch, flavor):
        # 6 iterations; the one Armijo round that needs f evaluates its
        # trial and current point, and the result's point is that trial
        c = fig8_cover(1024)
        low, high = (-0.3, 0.3) if flavor == "ideal" else (0.8, 1.6)
        lengths = np.random.default_rng(0).uniform(low, high, c.num_edges)
        k = cone_angles(c, angles_of_metric(c, lengths, flavor))
        rows, stage = [], getattr(hypmet.metrics, f"{flavor}_volume_stage")

        def recording(record, *args):
            rows.append(len(record.angles) // c.n_tets)
            return stage(record, *args)

        monkeypatch.setattr(hypmet.metrics, f"{flavor}_volume_stage", recording)
        res = solve_metric(c, k, flavor)
        assert res.iterations == 6 and rows == [2]

    @staticmethod
    def within_bound(c, flavor, k, x, d, gd):
        """Whether <r(x + d), d> <= c gd, the bound that accepts a closed trial x + d."""
        kx = hypmet.metrics._evaluate_angles(c, (x + d)[None], flavor)[1][0]
        return float((kx - k) @ d) <= 1e-4 * gd

    def search_one(self, c, flavor, k, x, d, gd):
        """The accepted point of a one-row line search from x along d, and the rows the volume stage saw."""
        pts = hypmet.solver._points(c, flavor, x[None], k)
        r = pts.kx - k
        out, failed = line_search(c, flavor, k, pts, d[None], np.array([gd]), np.abs(r).max(axis=1))
        assert not failed
        return out

    def test_a_closed_trial_within_the_bound_takes_no_volume(self, double_tet):
        # the control for the cases below: a closed trial point whose
        # <r(x + d), d> is below c <r, d> is accepted with f unknown
        k = K_HYPER
        x = np.full(double_tet.num_edges, 1.1)
        d = np.full(double_tet.num_edges, 0.05)
        assert self.within_bound(double_tet, "hyper", k, x, d, 1.0)
        out = self.search_one(double_tet, "hyper", k, x, d, 1.0)
        assert np.array_equal(out.x[0], x + d) and math.isnan(out.f[0])

    def test_a_near_wall_trial_takes_the_armijo_test(self, double_tet):
        # the trial puts tetrahedron 0 in the near-wall band of pair 0:
        # its row is not closed, so even within the bound it runs the
        # volume stage, here the band integral, and passes the Armijo test
        t, s = 1e-8, 0.5  # the pair's angles 2.4e-4 from pi
        wall = math.acosh(2.0 * math.cosh(s) + 1.0)
        trial = np.empty(double_tet.num_edges)
        trial[double_tet.edge_index[0]] = [wall - t, s, s, wall - t, s, s]
        assert len(set(double_tet.edge_index[0].tolist())) == 6
        record = hypmet.metrics._evaluate_angles(double_tet, trial[None], "hyper")[0]
        assert not record.closed[0, 0] and np.isfinite(record.angles).all()
        d = np.full(double_tet.num_edges, 0.01)
        assert self.within_bound(double_tet, "hyper", K_HYPER, trial - d, d, 1e3)
        out = self.search_one(double_tet, "hyper", K_HYPER, trial - d, d, 1e3)
        assert np.array_equal(out.x[0], trial)
        assert np.isfinite(out.f[0]) and out.vol[0] == volume_of_metric(double_tet, trial, "hyper")

    def test_a_trial_beyond_the_range_takes_the_armijo_test(self, double_tet, monkeypatch):
        # a length above 1e12: NaN angles, not closed; the volume stage
        # gives it a NaN covolume, which fails, and the row halves its step
        x = np.full(double_tet.num_edges, 1.0)
        d = np.zeros(double_tet.num_edges)
        d[0] = 2e12
        seen = []
        stage = hypmet.metrics.hyper_volume_stage

        def recording(record, tol=1e-10):
            seen.append(int(np.isnan(record.angles[:, 0]).sum()))
            return stage(record, tol)

        monkeypatch.setattr(hypmet.metrics, "hyper_volume_stage", recording)
        out = self.search_one(double_tet, "hyper", K_HYPER, x, d, 1e300)
        assert seen[0] > 0
        assert out.x[0, 0] < 1e12 + 1.0 and np.isfinite(out.kx[0]).all()

    def test_ideal_labels_past_the_kernels_range_take_the_armijo_test(self, fig8):
        # labels of 1e301 keep finite angles but are not closed: the row
        # runs the volume stage although the bound holds
        k = np.array([TWO_PI, TWO_PI])
        x = np.zeros(fig8.num_edges)
        d = np.array([1e301, -1e301])
        record = hypmet.metrics._evaluate_angles(fig8, (x + d)[None], "ideal")[0]
        assert not record.closed.any() and np.isfinite(record.angles).all()
        assert self.within_bound(fig8, "ideal", k, x, d, 1e308)
        out = self.search_one(fig8, "ideal", k, x, d, 1e308)
        assert np.array_equal(out.x[0], x + d) and np.isfinite(out.f[0])

    @staticmethod
    def scaled_newton_step(c, flavor, k, offset, factor):
        """x = the solution for k moved by (offset, -offset), the Newton step from x times factor,
        <r(x), d> and <r(x + d), d>."""
        x = solve_metric(c, k, flavor).lengths + np.array([offset, -offset])
        pts = hypmet.solver._points(c, flavor, x[None], k)
        r = pts.kx - k
        d = factor * hypmet.solver._NewtonSystem(c, flavor).step(pts.record, r, np.zeros((1, 1)))[0]
        trial = hypmet.solver._points(c, flavor, (x + d)[None], k)
        return x, d, float(r[0] @ d), float((trial.kx - k)[0] @ d)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_an_overshooting_newton_step_takes_the_armijo_test(self, fig8, flavor):
        # 1.9 times the Newton step from near the solution overshoots it:
        # <r(x + d), d> > 0 > c <r, d>, so the trial runs the volume stage,
        # and passes the Armijo test, since f still falls by about 0.1 <r, d>
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        k = draw(fig8, np.random.default_rng(41))
        x, d, gd, slope = self.scaled_newton_step(fig8, flavor, k, 1e-3, 1.9)
        assert slope > 0.0 > gd
        out = self.search_one(fig8, flavor, k, x, d, gd)
        assert np.array_equal(out.x[0], x + d) and np.isfinite(out.f[0])
        assert out.f[0] < cov_complex(fig8, x, flavor)[0] - float(x @ k)

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_a_trial_short_of_the_bound_takes_the_armijo_test(self, fig8, flavor):
        # 1 - 1e-5 times the Newton step from 1e-6 off the solution: f falls
        # at the trial, but <r(x + d), d>, about 1e-5 <r, d>, lies between
        # c <r, d> and 0, so the angles alone do not accept the trial; it
        # runs the volume stage and passes the Armijo test
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        k = draw(fig8, np.random.default_rng(41))
        x, d, gd, slope = self.scaled_newton_step(fig8, flavor, k, 1e-6, 1.0 - 1e-5)
        assert 1e-4 * gd < slope < 0.0
        out = self.search_one(fig8, flavor, k, x, d, gd)
        assert np.array_equal(out.x[0], x + d) and np.isfinite(out.f[0])


class TestObjectiveTrace:
    """objective_trace evaluates f along a result's kept descent path."""

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_trace_is_the_covolume_along_the_path(self, request, name, flavor):
        c = request.getfixturevalue(name)
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        rng = np.random.default_rng(40)
        k = draw(c, rng)
        starts = hypmet.solver._descend(c, k, flavor, start_points(c, flavor, 3, rng), SolveOptions())
        for res in [solve_metric(c, k, flavor), *starts]:
            assert res.path.shape == (res.iterations + 1, c.num_edges)
            want = [cov_complex(c, x, flavor)[0] - x @ k for x in res.path]
            assert objective_trace(c, res) == want
            assert want[-1] == res.objective

    def test_a_result_without_a_path_is_refused(self, fig8):
        res = synthetic_result(fig8, np.zeros(fig8.num_edges), "ideal")
        assert res.path is None
        with pytest.raises(DomainError, match="path"):
            objective_trace(fig8, res)

    def test_a_path_of_another_complex_is_refused(self, fig8, double_tet):
        res = solve_metric(double_tet, K_HYPER, "hyper")
        with pytest.raises(DomainError, match="path"):
            objective_trace(fig8, res)


class TestOutOfReachTargets:
    """A cone angle outside (0, pi val(e)) has no positive assignment: the LP refuses it at once."""

    @pytest.mark.parametrize(
        "flavor, target",
        [
            ("hyper", [1e308, 1e308]),
            ("hyper", [6 * math.pi, 1.0]),
            ("hyper", [0.0, 3.0]),
            ("ideal", [-1.0, 4 * math.pi + 1.0]),
            ("ideal", [0.0, 4 * math.pi]),
        ],
    )
    def test_refused_before_any_descent(self, fig8, lp_calls, newton_steps, flavor, target):
        message = refusal_message(fig8, np.array(target), flavor)
        for solve in (
            lambda: solve_metric(fig8, target, flavor),
            lambda: rigidity_check(fig8, target, flavor, starts=3),
        ):
            lp_calls.clear()
            with pytest.raises(NotPositiveFeasibleError) as exc:
                solve()
            assert str(exc.value) == message
            assert len(lp_calls) == 1 and not newton_steps

    def test_the_range_is_the_edge_valences(self, double_tet):
        valence = np.bincount(double_tet.edge_index.ravel(), minlength=double_tet.num_edges)
        assert np.array_equal(hypmet.solver._cone_angle_tops(double_tet), math.pi * valence)
        assert valence.sum() == 6 * double_tet.n_tets


@pytest.fixture
def solve_calls(monkeypatch):
    """A Counter of the kernel-stage, Jacobian and LP calls made since it was last cleared."""
    calls = collections.Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for flavor in ("ideal", "hyper"):
        count(hypmet.metrics, f"{flavor}_angle_stage")
        count(hypmet.metrics, f"{flavor}_volume_stage")
        count(hypmet.solver, f"{flavor}_jacobian")
    count(hypmet.solver, "linprog")
    return calls


def assert_one_start_parity(c, k, flavor, x, calls, opts=SolveOptions()):
    """The one-start loop and the lockstep, each from the start x with the LP rules, end alike.

    Both give the same result, to the bit in every field, or raise the same
    error with the same message and diagnostics, having made the same
    numbers of angle-stage, volume-stage, Jacobian and LP calls.  Returns
    the one-start loop's result or error.
    """
    outcomes = []
    for descend in (hypmet.solver._descend, hypmet.solver._lockstep):
        calls.clear()
        try:
            outcome = descend(c, k, flavor, x[None], opts, lead=True)[0]
        except HypmetError as exc:
            outcome = exc
        outcomes.append((outcome, calls.copy()))
    (one, one_calls), (lockstep, lockstep_calls) = outcomes
    assert one_calls == lockstep_calls
    if isinstance(lockstep, Exception):
        assert type(one) is type(lockstep) and str(one) == str(lockstep)
        diagnostics = [getattr(e, "diagnostics", {}) for e in (one, lockstep)]
        assert _bits(sorted(diagnostics[0].items())) == _bits(sorted(diagnostics[1].items()))
    else:
        assert _bits(one) == _bits(lockstep)
        assert one_calls[f"{flavor}_jacobian"] == one.iterations
    return one


def default_start(c, flavor):
    """solve_metric's start: lengths 0 (ideal) or 1 (hyper)."""
    return (np.zeros if flavor == "ideal" else np.ones)(c.num_edges)


class TestOneStartLoop:
    """One start descends on its own vectors with the lockstep's decisions, calls and results."""

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_fixture_solves_match_the_lockstep(self, request, solve_calls, name, flavor):
        c = request.getfixturevalue(name)
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            k = draw(c, rng)
            for x in [default_start(c, flavor), *start_points(c, flavor, 2, rng)]:
                res = assert_one_start_parity(c, k, flavor, x, solve_calls)
                assert res.iterations > 0 and res.grad_norm <= 1e-9

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("tets", [2, 4, 8, 16, 32, 64])
    def test_ladder_round_trips_match_the_lockstep(self, fig8_cover, solve_calls, tets, flavor):
        # the benchmark ladders' round trips: lengths uniform in +-0.25
        # (ideal) and arccosh 2 +- 0.2 (hyper), from solve_metric's start
        c = fig8_cover(tets)
        rng = np.random.default_rng(tets)
        for _ in range(2):
            low, high = (-0.25, 0.25) if flavor == "ideal" else (ACOSH2 - 0.2, ACOSH2 + 0.2)
            k = cone_angles(c, angles_of_metric(c, rng.uniform(low, high, c.num_edges), flavor))
            res = assert_one_start_parity(c, k, flavor, default_start(c, flavor), solve_calls)
            assert res.iterations > 0

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_superlu_solves_match_the_lockstep(self, fig8_cover, sparse_tets, solve_calls, flavor):
        c = fig8_cover(sparse_tets)
        assert not hypmet.solver._NewtonSystem(c, flavor).dense
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        rng = np.random.default_rng(210)
        k = draw(c, rng)
        for x in [default_start(c, flavor), *start_points(c, flavor, 1, rng)]:
            assert assert_one_start_parity(c, k, flavor, x, solve_calls).iterations > 0

    def test_complete_structure_matches_the_lockstep(self, fig8_cover, solve_calls):
        # the start is the answer: no step, and the volume stage once for the result
        c = fig8_cover(16)
        k = np.full(c.num_edges, TWO_PI)
        res = assert_one_start_parity(c, k, "ideal", default_start(c, "ideal"), solve_calls)
        assert res.iterations == 0 and solve_calls["ideal_volume_stage"] == 1

    @pytest.mark.parametrize(
        "case", ["ideal-past-range", "ideal-equal-labels", "hyper-beyond-range", "hyper-near-wall"]
    )
    def test_starts_not_closed_match(self, fig8, double_tet, solve_calls, case):
        # a start with a tetrahedron that is not closed runs the volume
        # stage at once: labels past the ideal kernel's range (finite f; the
        # first runs out of its budget, the second starts converged), hyper
        # lengths beyond the cosine law (NaN f and cone angles, then a NaN
        # step, which the kernel refuses) and a near-wall band tetrahedron
        opts = SolveOptions(max_iter=30)
        if case.startswith("ideal"):
            c, k, flavor = fig8, np.array([TWO_PI, TWO_PI]), "ideal"
            x = np.array([1e301, -1e301] if case == "ideal-past-range" else [1e302, 1e302])
        else:
            c, k, flavor = double_tet, K_HYPER, "hyper"
            x = np.array([2e12, 1.0, 1.0, 1.0, 1.0, 1.0])
            if case == "hyper-near-wall":
                wall = math.acosh(2.0 * math.cosh(0.5) + 1.0)
                x[double_tet.edge_index[0]] = [wall - 1e-8, 0.5, 0.5, wall - 1e-8, 0.5, 0.5]
        assert not hypmet.metrics._evaluate_angles(c, x, flavor)[0].closed.all()
        outcome = assert_one_start_parity(c, k, flavor, x, solve_calls, opts)
        assert solve_calls[f"{flavor}_volume_stage"] >= 1
        expected = {
            "ideal-past-range": MaxIterationsError,
            "ideal-equal-labels": SolveResult,
            "hyper-beyond-range": DomainError,
            "hyper-near-wall": SolveResult,
        }[case]
        assert isinstance(outcome, expected)

    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_near_boundary_line_search_errors_match(self, request, solve_calls, name):
        # the targets of test_ideal_targets_nearer_the_boundary_fail: the
        # line search gives up, the LP is consulted once and certifies
        c = request.getfixturevalue(name)
        (k,) = near_boundary_targets(c, "ideal", [1e-7])
        error = assert_one_start_parity(c, k, "ideal", default_start(c, "ideal"), solve_calls)
        assert isinstance(error, LineSearchError) and solve_calls["linprog"] == 1
        assert set(error.diagnostics) == {"grad_norm", "objective", "iteration"}

    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_iteration_budget_errors_match(self, request, solve_calls, name, flavor):
        c = request.getfixturevalue(name)
        draw = random_positive_ideal_k if flavor == "ideal" else random_positive_hyper_k
        k = draw(c, np.random.default_rng(211))
        x = default_start(c, flavor)
        error = assert_one_start_parity(c, k, flavor, x, solve_calls, SolveOptions(max_iter=2))
        assert isinstance(error, MaxIterationsError) and solve_calls[f"{flavor}_jacobian"] == 2
        assert error.diagnostics["flavor"] == flavor and solve_calls["linprog"] == 1

    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_lp_gate_refusals_match(self, request, solve_calls, name):
        # angles pi/3 fill every hyper vertex sum: slack 0, a target in range
        # that the descent cannot reach; the LP refuses it at the gate
        c = request.getfixturevalue(name)
        k = cone_angles(c, np.full((c.n_tets, 6), math.pi / 3))
        error = assert_one_start_parity(c, k, "hyper", default_start(c, "hyper"), solve_calls)
        assert solve_calls["hyper_jacobian"] == hypmet.solver._GATE_AFTER and solve_calls["linprog"] == 1
        assert isinstance(error, NotPositiveFeasibleError)
        assert str(error) == refusal_message(c, k, "hyper")
