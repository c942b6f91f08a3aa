"""Variational solvers: feasibility, covolume minimization, duality, rigidity.

Everything revolves around the convex objective

    f_k(x) = cov(x) - <x, k>,   gradient  k_x - k,

whose minimizers are exactly the metrics with cone angles k; their dihedral
angles are the unique maximum-volume angle assignment with those cone
angles, and the optimal value satisfies W(k) = <l*, k> - cov(l*) = -2 vol.

The existence theorems need a positive angle assignment with cone angles
k.  The critical points of f are the metrics with cone angles k, so a
converged solve whose angles are positive is itself such an assignment
(the Casson-Rivin principle; Rivin, Ann. Math. 1994): the solvers certify
a target by their solution, whose LP slack must exceed _CERTIFY_MARGIN,
and solve no linear program on success.  The feasibility LP, which
maximizes the minimum slack of the defining (in)equalities, decides where
the solution cannot: a solve that does not certify, raises, or runs
_GATE_AFTER iterations unconverged consults it once, and a target without
a strictly positive optimum is refused.  Its edge rows are the complex's
sparse incidence matrix, so the LP has O(T) nonzeros.

The descent, one for both flavors, is a damped Newton iteration.  The
Hessian of f is the Jacobian of the cone angles, H = op blockdiag(J_t) op^T,
with op the complex's incidence operator and J_t the closed-form Jacobian
of one tetrahedron's slot angles in its lengths (ideal.ideal_jacobian,
hyperideal.hyper_jacobian); it is assembled sparse and factored with
SuperLU.  The ideal H vanishes on the decoration gauge col(B), so its
system is bordered by the gauge matrix B and the step stays in ker B^T.
Every ideal metric's cone angles meet the vertex sums (B^T k_x)_v = pi n_v
(n_v corners in vertex class v), so the residual for a target that meets
them is orthogonal to col(B) and needs no projection.

The step solves (H + mu I) d = -r with mu = |r| min(1, |r|) in the max
norm.  Flat and near-wall tetrahedra contribute zero blocks, and where the
covolume is linear along a direction H cannot bound the step: the plain
Newton step there ran to lengths of 1e17 and more from random starts on a
16-tetrahedron cover.  The shift keeps such steps the size of the
residual, and near the solution, where mu = |r|^2, it leaves the
convergence quadratic.  Where the factorization is singular anyway, or
the step is no descent direction, the step is the steepest-descent -r.
A backtracking Armijo line search damps the step.  One covolume call per
trial point gives value and gradient; the Armijo test allows 8 ulp of
|cov(x)| + |<x, k>| at both points (at least 1e-13).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array, csc_array
from scipy.sparse.linalg import splu

from .errors import (
    ConsistencyError,
    DomainError,
    LineSearchError,
    MaxIterationsError,
    NotPositiveFeasibleError,
    NumericalError,
)
from .hyperideal import VERTEX_SLOTS, flat_pairs, hyper_jacobian, hyper_kernel
from .ideal import ideal_jacobian, ideal_kernel
from .metrics import _check_edge_vector, _check_flavor, cone_angles, cov_complex
from .triangulation import gauge_project

__all__ = [
    "SolveOptions",
    "FeasibilityReport",
    "SolveResult",
    "TetVerdict",
    "RigidityReport",
    "feasibility",
    "solve_metric",
    "duality_gap",
    "classify_maximizer",
    "rigidity_check",
]


# Armijo constant, LP slack of a positive target
_ARMIJO = 1e-4
_FEASIBILITY_TOL = 1e-9
# how far classify_maximizer lets a flat tetrahedron's angles sit off 0
# and pi, and its flat pair's phi above -1
_MAXIMIZER_TOL = 1e-7
# the largest deviation between rigidity_check's solutions it reports ok
_RIGIDITY_TOL = 1e-7
# The LP slack a converged solution must keep to certify its target, with a
# residual rho <= _FEASIBILITY_TOL.  Taking rho out of the angles moves each
# LP row by O(rho): for hyper, spread over the edge's slots it moves every
# angle by <= rho and every vertex sum by <= 3 rho; for ideal, a correction
# with zero tetrahedron sums exists (B^T r = 0 up to the vertex-sum gate)
# of size a constant of the complex times rho.  A margin of 1000 times the
# LP's threshold leaves the certified slack positive.
_CERTIFY_MARGIN = 1e-6
# An unconverged descent consults the LP at this iteration.  Round trips and
# random starts converge within about 15; targets near the boundary of the
# feasible set take more and pay one LP.  The bound moves only the time a
# target without a positive assignment takes to be refused, never a result.
_GATE_AFTER = 20
# the Armijo test's roundoff allowance, absolute and per unit of f's terms
_ROUNDOFF = 1e-13
_ULPS = 8.0 * np.finfo(float).eps


@dataclass
class SolveOptions:
    """Stopping controls for solve_metric."""

    tol: float = 1e-9
    max_iter: int = 5000


@dataclass
class FeasibilityReport:
    """Outcome of the max-slack linear program for a cone-angle target."""

    status: str  # "positive_feasible" | "nonnegative_only" | "infeasible"
    witness: np.ndarray | None  # assignment of shape (T, 3) or (T, 6)
    max_slack: float

    @property
    def positive(self):
        return self.status == "positive_feasible"


@dataclass
class SolveResult:
    flavor: str
    lengths: np.ndarray  # gauge-projected for the ideal flavor
    assignment: np.ndarray  # (T, 3) quad angles or (T, 6) slot angles
    achieved_cone_angles: np.ndarray
    target_cone_angles: np.ndarray
    volume: float
    w_value: float  # <l*, k> - cov(l*) = -2 volume
    objective: float  # cov(l*) - <l*, k> = -w_value
    iterations: int
    grad_norm: float
    objective_trace: list = field(default_factory=list, repr=False)


@dataclass
class TetVerdict:
    tet: int
    verdict: str  # "realized" | "flat_ideal" | "flat_hyper"
    residual: float


@dataclass
class RigidityReport:
    ok: bool
    flavor: str
    starts: int
    max_angle_deviation: float
    max_length_deviation: float
    tolerance: float
    iterations: list


def _check_target(c, k):
    """The cone-angle target k on the closed complex c as a finite vector over its edges."""
    if not c.closed:
        raise DomainError("solver operations require a closed complex")
    return _check_edge_vector(c, k, "cone-angle target")


def _rng(seed):
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}") from exc


def feasibility(c, k, flavor):
    """Classify a cone-angle target by maximizing the minimum constraint slack.

    Ideal flavor: quad angles with per-tetrahedron sums pi and the target's
    instance sums per edge; hyper flavor: slot angles with per-vertex sums
    at most pi and the same edge sums; every angle is at least the slack s.
    Angles are written x = y + s with y >= 0, so that constraint is a bound.
    The optimum sign decides the status, against _FEASIBILITY_TOL; the
    witness y + s realizes the slack.
    """
    k = _check_target(c, k)
    _check_flavor(flavor)
    t_count, e_count = c.n_tets, c.num_edges
    op = c.incidence
    valence = np.diff(op.indptr)
    instance_rows = np.repeat(np.arange(e_count), valence)
    per_tet = 3 if flavor == "ideal" else 6
    nvar = per_tet * t_count  # y, then s

    if flavor == "ideal":
        # tet rows: sum y + 3 s = pi; edge rows: op fold y + valence s = k,
        # where fold takes slot 6t + s to quad 3t + (s mod 3)
        quads = np.arange(nvar)
        tet, slot = np.divmod(op.indices, 6)
        a_eq = _coo(
            [np.ones(nvar), np.full(t_count, 3.0), np.ones(op.nnz), valence],
            [quads // 3, np.arange(t_count), t_count + instance_rows, t_count + np.arange(e_count)],
            [quads, np.full(t_count, nvar), 3 * tet + slot % 3, np.full(e_count, nvar)],
            (t_count + e_count, nvar + 1),
        )
        b_eq = np.concatenate([np.full(t_count, math.pi), k])
        a_ub = b_ub = None
    else:
        # edge rows: op y + valence s = k; vertex rows: sum y + 4 s <= pi
        a_eq = _coo(
            [np.ones(op.nnz), valence],
            [instance_rows, np.arange(e_count)],
            [op.indices, np.full(e_count, nvar)],
            (e_count, nvar + 1),
        )
        b_eq = k
        vertex_cols = 6 * np.arange(t_count)[:, None, None] + np.array(VERTEX_SLOTS)
        a_ub = _coo(
            [np.ones(3 * 4 * t_count), np.full(4 * t_count, 4.0)],
            [np.repeat(np.arange(4 * t_count), 3), np.arange(4 * t_count)],
            [vertex_cols.ravel(), np.full(4 * t_count, nvar)],
            (4 * t_count, nvar + 1),
        )
        b_ub = np.full(4 * t_count, math.pi)

    cost = np.zeros(nvar + 1)
    cost[-1] = -1.0  # maximize the slack
    bounds = np.zeros((nvar + 1, 2))
    bounds[:, 1] = math.inf
    bounds[-1] = (-math.inf, math.pi)
    res = linprog(cost, a_ub, b_ub, a_eq, b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        return FeasibilityReport("infeasible", None, -math.inf)
    if res.status != 0:
        raise NumericalError(f"feasibility LP failed: {res.message}")
    slack = float(res.x[-1])
    witness = (res.x[:-1] + slack).reshape(t_count, per_tet)
    if slack > _FEASIBILITY_TOL:
        return FeasibilityReport("positive_feasible", witness, slack)
    if slack >= -_FEASIBILITY_TOL:
        return FeasibilityReport("nonnegative_only", np.clip(witness, 0.0, None), slack)
    return FeasibilityReport("infeasible", None, slack)


def _coo(vals, rows, cols, shape):
    """One sparse matrix from blocks of (value, row, column) triples."""
    return coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )


def _evaluate(c, k, flavor, x):
    """f(x) = cov(x) - <x, k>, the residual k_x - k, and the size of f's terms."""
    v, kx = cov_complex(c, x, flavor)
    xk = float(x @ k)
    return v - xk, kx - k, abs(v) + abs(xk)


class _NewtonSystem:
    """The Newton matrix H = op blockdiag(J_t) op^T of one complex and flavor.

    op is the incidence operator, so H[e, f] sums J_t[s, s'] over the slots
    s of e and s' of f in each tetrahedron t.  Its sparsity pattern depends
    on the complex alone: it is built on the first step and kept, and each
    step scatters the (T, 6, 6) blocks into the fixed CSC data with one
    bincount.  The ideal H vanishes on the gauge directions col(B), so it
    is bordered, [[H, B], [B^T, 0]], which confines the step to ker B^T.
    B has full column rank, since each tetrahedron's vertices span
    triangles; H + B B^T would be dense wherever one vertex class has most
    edges (every fig8 cover has V = 1).
    """

    def __init__(self, c, flavor):
        self.c = c
        self.flavor = flavor
        self.matrix = None

    def _build(self):
        c = self.c
        e_count = c.num_edges
        rows = np.broadcast_to(c.edge_index[:, :, None], (c.n_tets, 6, 6)).ravel()
        cols = np.broadcast_to(c.edge_index[:, None, :], (c.n_tets, 6, 6)).ravel()
        n = e_count
        if self.flavor == "ideal":
            # B[e, v] counts the endpoints of edge e in vertex class v
            edges = np.repeat(np.arange(e_count), 2)
            ends = e_count + c.edge_endpoints.ravel()
            rows = np.concatenate([rows, edges, ends])
            cols = np.concatenate([cols, ends, edges])
            n += c.num_vertices
        keys, pos = np.unique(cols * n + rows, return_inverse=True)
        self.pos = pos[: 36 * c.n_tets]
        self.fixed = np.bincount(pos[36 * c.n_tets :], minlength=len(keys)).astype(float)
        self.diagonal = np.searchsorted(keys, np.arange(e_count) * (n + 1))
        # SuperLU takes C int indices; given as such, they are not copied per step
        indices = (keys % n).astype(np.intc)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.intc)
        self.matrix = csc_array((self.fixed.copy(), indices, indptr), shape=(n, n))

    def step(self, x, r, shift):
        """The step d with (H + shift I) d = -r at x, or -r if that is no descent direction."""
        if self.matrix is None:
            self._build()
        jacobian = ideal_jacobian if self.flavor == "ideal" else hyper_jacobian
        blocks = jacobian(x[self.c.edge_index]).ravel()
        data = self.fixed + np.bincount(self.pos, blocks, len(self.fixed))
        data[self.diagonal] += shift
        self.matrix.data[:] = data
        rhs = np.zeros(self.matrix.shape[0])
        rhs[: len(r)] = -r
        try:
            d = splu(self.matrix).solve(rhs)[: len(r)]
        except RuntimeError:  # exactly singular
            return -r
        if not np.isfinite(d).all() or float(r @ d) >= 0.0:
            return -r
        return d


def _check_options(opts):
    opts = opts or SolveOptions()
    if not (math.isfinite(opts.tol) and opts.tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {opts.tol}")
    if opts.max_iter < 0:
        raise DomainError(f"max_iter must be nonnegative, got {opts.max_iter}")
    return opts


def _reachable_target(c, k, flavor, tol):
    """The checked target; NotPositiveFeasibleError if the vertex sums put it out of reach.

    Ideal targets off a vertex sum pi n_v by more than (B^T 1)_v tol are out
    of reach, since |B^T r|_v <= (B^T 1)_v max|r|.  Positivity is left to
    the descent's certificate.
    """
    k = _check_target(c, k)
    if flavor == "ideal":
        ends = c.edge_endpoints.ravel()
        corners = np.bincount(c.vertex_index.ravel(), minlength=c.num_vertices)
        miss = np.abs(np.bincount(ends, np.repeat(k, 2), c.num_vertices) - math.pi * corners)
        allowed = tol * np.bincount(ends, minlength=c.num_vertices)
        v = int(np.argmax(miss - allowed))
        if miss[v] > allowed[v]:
            raise NotPositiveFeasibleError(
                f"target misses the vertex sum pi n_v at vertex {v} by {miss[v]:.3e} > {allowed[v]:.3e}"
            )
    return k


def _certifies(result):
    """Whether a converged solution is itself a positive angle assignment for its target.

    Its LP slack is the minimum angle, and for hyper also pi minus the
    largest vertex sum; the ideal kernel's tetrahedron sums are pi by
    construction.
    """
    a = result.assignment
    slack = float(a.min())
    if result.flavor == "hyper":
        slack = min(slack, math.pi - float(a[:, VERTEX_SLOTS].sum(axis=2).max()))
    return result.grad_norm <= _FEASIBILITY_TOL and slack > _CERTIFY_MARGIN


def _certified_descent(c, k, flavor, x0, opts):
    """_descend, with the target certified by its solution or else by one LP.

    The LP is consulted at most once: when the descent raises, when it
    reaches iteration _GATE_AFTER unconverged, or when its result does not
    certify.  A target without a positive angle assignment then raises
    NotPositiveFeasibleError; otherwise the descent's own outcome stands.
    """
    consulted = False

    def consult():
        nonlocal consulted
        if consulted:
            return
        consulted = True
        report = feasibility(c, k, flavor)
        if not report.positive:
            raise NotPositiveFeasibleError(
                f"target has no positive angle assignment (status {report.status}, "
                f"max slack {report.max_slack})"
            )

    try:
        result = _descend(c, k, flavor, x0, opts, stalled=consult)
    except Exception:
        consult()
        raise
    if not _certifies(result):
        consult()
    return result


def solve_metric(c, k, flavor, opts=None):
    """Minimize cov(x) - <x, k> to the metric with prescribed cone angles.

    Requires a closed complex and a positive-feasible target: the ideal
    vertex sums are checked first, and positivity is certified by the
    converged angles or, where they cannot, by the feasibility LP.
    Convergence means the achieved cone angles match k to opts.tol in the
    max norm; opts.tol must be finite and positive and opts.max_iter
    nonnegative (DomainError otherwise).  The ideal flavor reports the
    gauge-projected minimizer; the hyper flavor iterates over all of R^E
    using the extended covolume, and the critical point is checked to have
    positive lengths.
    """
    opts = _check_options(opts)
    k = _reachable_target(c, k, flavor, opts.tol)
    x = np.zeros(c.num_edges) if flavor == "ideal" else np.ones(c.num_edges)
    return _certified_descent(c, k, flavor, x, opts)


def _descend(c, k, flavor, x0, opts, stalled=None):
    newton = _NewtonSystem(c, flavor)
    x = np.asarray(x0, dtype=float)
    f, r, size = _evaluate(c, k, flavor, x)
    trace = [f]
    iterations = 0

    while True:
        gnorm = float(np.max(np.abs(r)))
        if gnorm <= opts.tol:
            break
        if iterations >= opts.max_iter:
            raise MaxIterationsError(
                f"no convergence in {opts.max_iter} iterations",
                {"grad_norm": gnorm, "objective": f, "flavor": flavor},
            )
        if iterations == _GATE_AFTER and stalled is not None:
            stalled()
        iterations += 1
        d = newton.step(x, r, gnorm * min(gnorm, 1.0))
        gd = float(r @ d)
        alpha = 1.0
        for _ in range(50):
            x_new = x + alpha * d
            try:
                f_new, r_new, size_new = _evaluate(c, k, flavor, x_new)
            except NumericalError:
                # the trial point lies beyond the range the kernel evaluates
                alpha *= 0.5
                continue
            allowance = max(_ROUNDOFF, _ULPS * (size + size_new))
            if f_new - f <= _ARMIJO * alpha * gd + allowance:
                break
            alpha *= 0.5
        else:
            raise LineSearchError(
                "backtracking found no acceptable step",
                {"grad_norm": gnorm, "objective": f, "iteration": iterations},
            )
        x, f, r, size = x_new, f_new, r_new, size_new
        trace.append(f)

    if flavor == "hyper":
        if np.min(x) <= 0.0:
            raise NumericalError(
                f"hyper-ideal critical point has non-positive lengths {x}; "
                "this contradicts the positivity of critical points"
            )
        lengths = x
        kernel = hyper_kernel(lengths[c.edge_index])
    else:
        lengths = gauge_project(c, x)
        kernel = ideal_kernel(lengths[c.edge_index])
    assignment = kernel.angles
    vol = float(kernel.vol.sum())

    achieved = cone_angles(c, assignment)
    return SolveResult(
        flavor=flavor,
        lengths=lengths,
        assignment=assignment,
        achieved_cone_angles=achieved,
        target_cone_angles=k,
        volume=vol,
        w_value=-f,
        objective=f,
        iterations=iterations,
        grad_norm=float(np.max(np.abs(r))),
        objective_trace=trace,
    )


def duality_gap(c, k, result, samples, seed=0, spread=1.0):
    """Sampled check of the duality inequality <x, k> - cov(x) <= W(k).

    Draws `samples` points uniformly in a box of half-width `spread` around
    the solved metric and returns max(<x,k> - cov(x)) - W; convexity makes
    this nonpositive up to solve and kernel tolerance.  The tetrahedra of
    all samples go through one call of the flavor's kernel.
    """
    k = _check_target(c, k)
    rng = _rng(seed)
    base = np.asarray(result.lengths, dtype=float)
    x = base + rng.uniform(-spread, spread, (int(samples), c.num_edges))
    kernel = ideal_kernel if result.flavor == "ideal" else hyper_kernel
    cov = kernel(x[:, c.edge_index].reshape(-1, 6)).cov.reshape(len(x), c.n_tets).sum(axis=1)
    return float((x @ k - cov).max(initial=-math.inf)) - result.w_value


def classify_maximizer(c, result):
    """Per-tetrahedron structure of a converged maximizer.

    Realized tetrahedra have all angles positive; otherwise the angles must
    form the flat pattern (pi on one opposite pair, 0 elsewhere) and the
    lengths must certify the degeneration: the ideal flavor checks the
    collapsed side inequality, the hyper flavor that the lengths lie outside
    the hyper-ideal set (a pair with phi <= -1 + _MAXIMIZER_TOL, as in
    hyperideal.flat_pairs); angles within _MAXIMIZER_TOL of 0 count as zero.
    Any other zero-angle pattern raises ConsistencyError, since the
    structure theorems exclude it for true maximizers.  All tetrahedra are
    classified at once; an error names the first tetrahedron showing its
    defect.
    """
    lengths = np.asarray(result.lengths, dtype=float)[c.edge_index]
    a = np.asarray(result.assignment, dtype=float)
    low = a.min(axis=1)
    rows = np.arange(c.n_tets)
    if result.flavor == "ideal":
        realized = low > _MAXIMIZER_TOL
        pattern = (np.abs(a.max(axis=1) - math.pi) <= _MAXIMIZER_TOL) & (
            (a <= _MAXIMIZER_TOL).sum(axis=1) >= 2
        )
        sides = np.exp(0.5 * (lengths[:, :3] + lengths[:, 3:]))
        residual = 2.0 * sides[rows, a.argmax(axis=1)] - sides.sum(axis=1)
        bad = np.flatnonzero(~realized & (~pattern | (residual < -_MAXIMIZER_TOL)))
        if bad.size:
            t = int(bad[0])
            if not pattern[t]:
                raise ConsistencyError(
                    f"tetrahedron {t} has a zero angle without the flat pattern: {a[t]}"
                )
            raise ConsistencyError(
                f"flat tetrahedron {t} violates the collapsed side inequality "
                f"(residual {residual[t]})"
            )
        flat_kind = "flat_ideal"
    else:
        pair, ph = flat_pairs(lengths, _MAXIMIZER_TOL)
        realized = pair < 0
        bad = np.flatnonzero(realized & (low <= _MAXIMIZER_TOL))
        if bad.size:
            t = int(bad[0])
            raise ConsistencyError(
                f"tetrahedron {t} has a zero angle but hyper-ideal lengths: {a[t]}"
            )
        residual = -1.0 - np.minimum(ph[rows, pair], ph[rows, pair + 3])
        flat_kind = "flat_hyper"
    return [
        TetVerdict(t, "realized", float(low[t]))
        if realized[t]
        else TetVerdict(t, flat_kind, float(residual[t]))
        for t in range(c.n_tets)
    ]


def rigidity_check(c, k, flavor, starts=10, opts=None, seed=0):
    """Multi-start realization of the rigidity theorems.

    Runs the descent from `starts` >= 1 random initial metrics and reports
    the maximum pairwise deviation of the resulting angle assignments and
    lengths (gauge-projected for the ideal flavor, raw for the hyper
    flavor), the largest spread max - min of any entry.  A deviation above
    _RIGIDITY_TOL sets ok=False: rigidity says the minimizer is unique, so
    disagreement signals a solver problem.  Targets and options are checked
    as in solve_metric, and a seed numpy rejects raises DomainError; the
    first start certifies the target, so the later ones skip the LP gate.
    """
    if starts < 1:
        raise DomainError(f"rigidity needs at least one start, got {starts}")
    opts = _check_options(opts)
    k = _reachable_target(c, k, flavor, opts.tol)
    rng = _rng(seed)

    results = []
    for i in range(starts):
        if flavor == "ideal":
            x0 = rng.uniform(-1.0, 1.0, c.num_edges)
        else:
            x0 = rng.uniform(0.2, 3.0, c.num_edges)
        descend = _certified_descent if i == 0 else _descend
        results.append(descend(c, k, flavor, x0, opts))

    # the largest |a_i - a_j| of an entry is max - min, and rounding is monotone
    max_angle = float(np.ptp([r.assignment for r in results], axis=0).max())
    max_len = float(np.ptp([r.lengths for r in results], axis=0).max())
    return RigidityReport(
        ok=(max_angle <= _RIGIDITY_TOL and max_len <= _RIGIDITY_TOL),
        flavor=flavor,
        starts=starts,
        max_angle_deviation=max_angle,
        max_length_deviation=max_len,
        tolerance=_RIGIDITY_TOL,
        iterations=[r.iterations for r in results],
    )
