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
of one tetrahedron's slot angles in its lengths (ideal.ideal_jacobian and
hyperideal.hyper_jacobian); it is assembled sparse and factored with
SuperLU.  Each point is evaluated once: the descent keeps the kernel
record of the accepted point, and both the Jacobians and the results read
it.  The ideal H vanishes on the decoration gauge col(B), so its
system is bordered by the gauge matrix B and the step stays in ker B^T;
a minimum-degree ordering keeps the border's dense row and column from
filling in the factors.
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

rigidity_check's random starts descend in lockstep: each iteration makes
one kernel call on the stacked points of every unconverged start, one
Jacobian call, and one factorization of the block-diagonal Newton matrix
of the starts, as if they were one point of the disjoint union of copies
of the complex.  Each start keeps its own shift, step length, stopping
test and iteration count, so it follows its own descent up to rounding,
and the numpy and SuperLU calls number about the largest iteration count
of the starts rather than their sum.  solve_metric is the same descent
with one start.  The starts run in groups of at most _GROUP_TETS
tetrahedra in total, which bounds the memory of a large start count.
Start 0 alone carries the LP rules above; a failing start's error is
raised once the starts before it have finished, as if they had run one
after another.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

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
from .metrics import _check_edge_vector, _check_flavor
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
# rigidity_check runs its starts in groups of at most this many tetrahedra
# in total (see _descend)
_GROUP_TETS = 1024
# the half-width of the box duality_gap samples around the solved metric
_DUALITY_SPREAD = 1.0
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


def _rowdot(a, b):
    """a_i @ b_i for each row a_i of a and b_i of b (b itself if it is a vector).

    A stacked matmul of 1 x E by E x 1 products takes the vector dot path,
    so each entry is bit for bit the dot product of one start's vectors.
    """
    return np.matmul(a[:, None, :], b[..., None]).reshape(len(a))


def _block_copies(indptr, indices, minor, m):
    """indptr and indices of m diagonal copies of a compressed sparse pattern.

    The pattern has `minor` columns (CSR) or rows (CSC).  Copy i follows copy
    i - 1 in both arrays, so the first j copies are a prefix for every j <= m.
    """
    nnz = indptr[-1]
    shift = np.arange(m)[:, None]
    return (
        np.append((indptr[:-1] + nnz * shift).ravel(), nnz * m).astype(indptr.dtype),
        (indices + minor * shift).ravel().astype(indices.dtype),
    )


class _Points(NamedTuple):
    """Evaluated points of m starts, one row each."""

    x: np.ndarray  # (m, E) edge vectors
    f: np.ndarray  # (m,) objective cov(x) - <x, k>
    size: np.ndarray  # (m,) |cov(x)| + |<x, k>|, the scale of f's roundoff
    kx: np.ndarray  # (m, E) cone angles, the gradient of cov
    kernel: tuple  # the flavor's kernel record at x, each array of shape (m, T, ...)

    def take(self, rows):
        kernel = self.kernel._make(a[rows] for a in self.kernel)
        return _Points(*(a[rows] for a in self[:-1]), kernel)

    def put(self, rows, other):
        for a, b in zip((*self[:-1], *self.kernel), (*other[:-1], *other.kernel)):
            a[rows] = b


class _Union:
    """Up to `copies` starts on one complex, as one point of their disjoint union.

    Row i of an (m, E) array is start i's edge vector.  The tetrahedra of all
    rows go through one kernel call, and their cone angles are one bincount
    over the slots' edges in the union, which adds each edge's instances in
    (tet, slot) order from 0, as the incidence operator's product does.
    """

    def __init__(self, c, flavor, copies):
        self.c = c
        self.flavor = flavor
        # the edge of each slot of the copies, an index into the raveled
        # rows of an (m, E) array
        copy = np.arange(copies)[:, None, None]
        self.slot_edges = (c.edge_index + c.num_edges * copy).reshape(-1, 6)
        self.last = None  # the last kernel record, the shapes of _unevaluated's

    def cone_angles(self, angles):
        """Cone angles, shape (m, E), of the angles (m T, 3) or (m T, 6) of m stacked rows."""
        m = len(angles) // self.c.n_tets
        if angles.shape[1] == 3:
            angles = np.concatenate((angles, angles), axis=1)
        slots = self.slot_edges[: len(angles)].ravel()
        return np.bincount(slots, angles.ravel(), m * self.c.num_edges).reshape(m, -1)

    def evaluate(self, x, k):
        """The _Points of the rows of x, shape (m, E), from one kernel call."""
        c, m = self.c, len(x)
        lengths = x.ravel()[self.slot_edges[: m * c.n_tets]]
        kernel = hyper_kernel(lengths) if self.flavor == "hyper" else ideal_kernel(lengths)
        cov = kernel.cov.reshape(m, -1).sum(axis=1)
        xk = _rowdot(x, k)
        self.last = kernel._make(a.reshape(m, c.n_tets, *a.shape[1:]) for a in kernel)
        kx = self.cone_angles(kernel.angles)
        return _Points(x, cov - xk, np.abs(cov) + np.abs(xk), kx, self.last)

    def evaluate_rows(self, x, k):
        """evaluate on the rows of x at once or, where that raises, on each row alone.

        Returns the _Points of all rows and the exception of each row that
        raised, by row.  Those rows get NaN values, which fail every test.
        """
        try:
            return self.evaluate(x, k), {}
        except Exception as exc:
            if len(x) == 1:
                return self._unevaluated(x), {0: exc}
        points, raised = {}, {}
        for i in range(len(x)):
            try:
                points[i] = self.evaluate(x[i : i + 1], k)
            except Exception as exc:
                raised[i] = exc
        out = self._unevaluated(x)
        for i, row in points.items():
            out.put([i], row)
        return out, raised

    def _unevaluated(self, x):
        """_Points of the rows of x with NaN for every value.

        The kernel record takes its shapes from the last one evaluated.
        Before the first there is none, and every row has raised: they all
        fail before their record is read.
        """
        m, kernel = len(x), self.last
        if kernel is not None:
            kernel = kernel._make(np.full((m, *a.shape[1:]), np.nan, a.dtype) for a in kernel)
        return _Points(x, np.full(m, np.nan), np.full(m, np.nan), np.full(x.shape, np.nan), kernel)


class _NewtonSystem:
    """The Newton matrices H = op blockdiag(J_t) op^T of up to `copies` starts on one complex.

    op is the incidence operator, so H[e, f] sums J_t[s, s'] over the slots
    s of e and s' of f in each tetrahedron t.  Its sparsity pattern depends
    on the complex alone: it is built on the first step and kept, and each
    step forms the (T, 6, 6) blocks from the points' kernel record and
    scatters them into the fixed CSC data with one bincount.  The ideal H
    vanishes on the gauge directions col(B), so it is bordered,
    [[H, B], [B^T, 0]], which confines the step to ker B^T.  B has full
    column rank, since each tetrahedron's vertices span triangles; H + B B^T
    would be dense wherever one vertex class has most edges (every fig8
    cover has V = 1).  Its border row and column are what the minimum-degree
    ordering MMD_AT_PLUS_A keeps from filling in; the unbordered hyper
    system keeps SuperLU's default COLAMD, which is cheaper on small
    complexes.

    The systems of m starts are the diagonal blocks of one matrix, the
    Newton matrix of m disjoint copies of the complex, factored at once.
    The first m copies are a prefix of the copies' CSC arrays, and each m
    gets its matrix once.
    """

    def __init__(self, c, flavor, copies=1):
        self.c = c
        self.flavor = flavor
        self.copies = copies
        self.ordering = "MMD_AT_PLUS_A" if flavor == "ideal" else "COLAMD"
        self.pos = None
        self.matrix = None
        self._matrices = {}

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
        fixed = np.bincount(pos[36 * c.n_tets :], minlength=len(keys)).astype(float)
        diagonal = np.searchsorted(keys, np.arange(e_count) * (n + 1))
        # SuperLU takes C int indices; given as such, they are not copied per step
        indices = (keys % n).astype(np.intc)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.intc)
        # copy i's entries follow copy i - 1's in the data
        self.n, self.nnz = n, len(keys)
        shift = self.nnz * np.arange(self.copies)[:, None]
        self.pos = (pos[: 36 * c.n_tets] + shift).ravel()
        self.fixed = np.tile(fixed, self.copies)
        self.diagonal = diagonal + shift  # (copies, E)
        self.indptr, self.indices = _block_copies(indptr, indices, n, self.copies)

    def _matrix(self, m):
        matrix = self._matrices.get(m)
        if matrix is None:
            n, nnz = m * self.n, m * self.nnz
            matrix = self._matrices[m] = csc_array(
                (self.fixed[:nnz].copy(), self.indices[:nnz], self.indptr[: n + 1]), shape=(n, n)
            )
        self.matrix = matrix
        return matrix

    def _solve_block(self, data, i, rhs):
        """Start i's system alone; NaN, so that the step falls back to -r, where it is singular."""
        n, nnz = self.n, self.nnz
        block = csc_array(
            (data[i * nnz : (i + 1) * nnz], self.indices[:nnz], self.indptr[: n + 1]), shape=(n, n)
        )
        try:
            return splu(block, permc_spec=self.ordering).solve(rhs)
        except RuntimeError:
            return np.full(self.n, np.nan)

    def step(self, record, r, shift):
        """The steps d with (H + shift I) d = -r, or -r where that is no descent direction.

        record is the kernel record of the points of m <= copies starts, each
        array of shape (m, T, ...), from which the flavor's Jacobian forms H.
        r is an array (m, E), one start per row, and shift an array (m, 1); or
        r is one start's vector and shift its number.  Where the matrix of
        all m starts is exactly singular, each start's block is solved alone.
        """
        if self.pos is None:
            self._build()
        e_count = self.c.num_edges
        rows = r.reshape(-1, e_count)
        m = len(rows)
        jacobian = hyper_jacobian if self.flavor == "hyper" else ideal_jacobian
        blocks = jacobian(record._make(a.reshape(-1, *a.shape[2:]) for a in record)).ravel()
        nnz = m * self.nnz
        data = self.fixed[:nnz] + np.bincount(self.pos[: blocks.size], blocks, nnz)
        data[self.diagonal[:m]] += shift
        matrix = self._matrix(m)
        matrix.data[:] = data
        rhs = np.zeros((m, self.n))
        rhs[:, :e_count] = -rows
        try:
            d = splu(matrix, permc_spec=self.ordering).solve(rhs.ravel()).reshape(m, self.n)
        except RuntimeError:  # exactly singular
            d = np.array([self._solve_block(data, i, rhs[i]) for i in range(m)])
        d = d[:, :e_count]
        steepest = ~np.logical_and.reduce(np.isfinite(d), axis=1) | (_rowdot(rows, d) >= 0.0)
        if steepest.any():
            d[steepest] = -rows[steepest]
        return d.reshape(r.shape)


def _check_options(opts):
    """opts, or the defaults, as plain numbers; DomainError for a value of wrong type or range."""
    opts = opts or SolveOptions()
    tol = opts.tol
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a finite positive real, got {tol!r}")
    return SolveOptions(float(tol), _count(opts.max_iter, "max_iter", least=0))


def _count(n, what, least=1):
    """n as an int of at least `least`; DomainError for anything else, bools and fractions included."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        kind = "positive" if least == 1 else "nonnegative"
        raise DomainError(f"{what} must be a {kind} integer, got {n!r}")
    return int(n)


def _reachable_target(c, k, flavor, tol):
    """The checked target; NotPositiveFeasibleError if the vertex sums put it out of reach.

    Ideal targets off a vertex sum pi n_v by more than (B^T 1)_v tol are out
    of reach, since |B^T r|_v <= (B^T 1)_v max|r|.  Positivity is left to
    the descent's certificate.
    """
    _check_flavor(flavor)
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


def solve_metric(c, k, flavor, opts=None):
    """Minimize cov(x) - <x, k> to the metric with prescribed cone angles.

    Requires a closed complex and a positive-feasible target: the ideal
    vertex sums are checked first, and positivity is certified by the
    converged angles or, where they cannot, by the feasibility LP.
    Convergence means the achieved cone angles match k to opts.tol in the
    max norm; opts.tol must be a finite positive real and opts.max_iter a
    nonnegative integer (DomainError otherwise).  The ideal flavor reports
    the gauge-projected minimizer; the hyper flavor iterates over all of
    R^E using the extended covolume, and the critical point is checked to
    have positive lengths.
    """
    opts = _check_options(opts)
    k = _reachable_target(c, k, flavor, opts.tol)
    x = np.zeros(c.num_edges) if flavor == "ideal" else np.ones(c.num_edges)
    return _descend(c, k, flavor, x[None], opts, lead=True)[0]


def _descend(c, k, flavor, x0, opts, lead=False):
    """Damped Newton descents from the rows of x0, shape (S, E), run in lockstep.

    Returns one SolveResult per start, in order.  Each start keeps its own
    shift, step lengths, stopping test and iteration count, so its iterates
    are those of its descent run alone, up to rounding in the factorization;
    an iteration makes one Jacobian call and one factorization for all
    unconverged starts, and one kernel call per line-search round.  A
    failing start's error is raised once every start before it has
    finished, which is the outcome of running the starts one after another.
    With lead, start 0 carries the LP rules: the feasibility LP is consulted,
    once, when start 0 reaches _GATE_AFTER iterations unconverged, fails, or
    converges to a solution that does not certify, and a target without a
    positive angle assignment raises NotPositiveFeasibleError.
    """
    x0 = np.array(x0, dtype=float)  # the rows of pts, which are updated in place
    union = _Union(c, flavor, len(x0))
    newton = _NewtonSystem(c, flavor, len(x0))
    results = [None] * len(x0)
    traces = [[] for _ in results]
    errors = {}
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

    def fail(start, exc):
        if start == 0 and lead:
            consult()
        errors[start] = exc

    ids = np.arange(len(x0))
    pts, failed = union.evaluate_rows(x0, k)
    iterations = 0
    while True:
        for i, f in zip(ids.tolist(), pts.f.tolist()):
            traces[i].append(f)
        r = pts.kx - k
        gnorm = np.maximum.reduce(np.abs(r), axis=1)
        done = gnorm <= opts.tol
        if iterations >= opts.max_iter:
            for j in np.flatnonzero(~done):
                failed.setdefault(j, MaxIterationsError(
                    f"no convergence in {opts.max_iter} iterations",
                    {"grad_norm": float(gnorm[j]), "objective": float(pts.f[j]), "flavor": flavor},
                ))
        converged = done.any()
        if converged:
            # results keep views of their rows, and pts is updated in place
            finished = pts if done.all() else pts.take(done)
            assembled = _assemble(union, k, finished, gnorm[done], iterations, traces, ids[done])
            for i, res in zip(ids[done].tolist(), assembled):
                if isinstance(res, Exception):
                    fail(i, res)
                    continue
                results[i] = res
                if i == 0 and lead and not _certifies(res):
                    consult()
        for j, exc in failed.items():
            fail(int(ids[j]), exc)
        if failed or converged:
            going = ~done
            going[list(failed)] = False
            ids = ids[going]
            if ids.size:
                pts, r, gnorm = pts.take(going), r[going], gnorm[going]
        if errors and not (ids < min(errors)).any():
            raise errors[min(errors)]
        if not ids.size:
            return results
        if iterations == _GATE_AFTER and lead and ids[0] == 0:
            consult()
        iterations += 1
        shift = gnorm * np.minimum(gnorm, 1.0)
        d = newton.step(pts.kernel, r, shift[:, None])
        pts, failed = _line_search(union, k, pts, d, _rowdot(r, d), gnorm, iterations)


def _line_search(union, k, pts, d, gd, gnorm, iteration):
    """Backtracking Armijo steps from each row of pts along the matching row of d.

    Each row halves its step length, at most 50 times, until its trial
    point passes the Armijo test, which allows 8 ulp of f's terms at both
    points; a trial point beyond the kernel's range (NumericalError) fails
    the test.  The trial points of all rows still searching, which share
    the step length 2^-round, go through one evaluation per round.  Returns
    the points, with the accepted ones in place of pts's rows, and the
    exception of each row that failed, by row: LineSearchError, or what its
    trial point's evaluation raised.
    """
    rows = np.arange(len(d))  # the rows still searching, and their data
    x, f, size = pts.x, pts.f, pts.size
    failed = {}
    alpha = 1.0
    for _ in range(50):
        trial, raised = union.evaluate_rows(x + alpha * d, k)
        allowance = np.maximum(_ROUNDOFF, _ULPS * (size + trial.size))
        ok = trial.f - f <= _ARMIJO * alpha * gd + allowance
        if ok.all() and len(rows) == len(pts.x):
            return trial, failed
        pts.put(rows[ok], trial.take(ok))
        stay = ~ok
        for j, exc in raised.items():
            if not isinstance(exc, NumericalError):
                failed[int(rows[j])] = exc
                stay[j] = False
        rows, x, f, size, d, gd = rows[stay], x[stay], f[stay], size[stay], d[stay], gd[stay]
        if not rows.size:
            return pts, failed
        alpha *= 0.5
    for j, g, fj in zip(rows.tolist(), gnorm[rows].tolist(), f.tolist()):
        failed[j] = LineSearchError(
            "backtracking found no acceptable step",
            {"grad_norm": g, "objective": fj, "iteration": iteration},
        )
    return pts, failed


def _assemble(union, k, pts, gnorm, iterations, traces, ids):
    """The SolveResults of the converged starts ids, one per row of pts.

    The assignment, volume and cone angles are those of each point's kernel
    record.  The ideal lengths are reported gauge-projected, a change of
    decoration that leaves those values unchanged in exact arithmetic.  A
    start whose hyper critical point has a non-positive length gets that
    NumericalError instead.
    """
    c, flavor = union.c, union.flavor
    lengths = gauge_project(c, pts.x) if flavor == "ideal" else pts.x
    vol = pts.kernel.vol.sum(axis=1)
    out = []
    for j, i in enumerate(ids.tolist()):
        if flavor == "hyper" and np.min(lengths[j]) <= 0.0:
            out.append(NumericalError(
                f"hyper-ideal critical point has non-positive lengths {lengths[j]}; "
                "this contradicts the positivity of critical points"
            ))
            continue
        f = float(pts.f[j])
        out.append(SolveResult(
            flavor=flavor,
            lengths=lengths[j],
            assignment=pts.kernel.angles[j],
            achieved_cone_angles=pts.kx[j],
            target_cone_angles=k,
            volume=float(vol[j]),
            w_value=-f,
            objective=f,
            iterations=iterations,
            grad_norm=float(gnorm[j]),
            objective_trace=traces[i],
        ))
    return out


def duality_gap(c, k, result, samples, seed=0):
    """Sampled check of the duality inequality <x, k> - cov(x) <= W(k).

    Draws `samples` points (a positive integer, DomainError otherwise)
    uniformly in a box of half-width _DUALITY_SPREAD = 1 around the solved
    metric and returns max(<x,k> - cov(x)) - W; convexity makes this
    nonpositive up to solve and kernel tolerance.  The tetrahedra of all
    samples go through one call of the flavor's kernel.
    """
    k = _check_target(c, k)
    samples = _count(samples, "samples")
    rng = _rng(seed)
    base = np.asarray(result.lengths, dtype=float)
    x = base + rng.uniform(-_DUALITY_SPREAD, _DUALITY_SPREAD, (samples, c.num_edges))
    kernel = ideal_kernel if result.flavor == "ideal" else hyper_kernel
    cov = kernel(x[:, c.edge_index].reshape(-1, 6)).cov.reshape(len(x), c.n_tets).sum(axis=1)
    return float((x @ k - cov).max()) - result.w_value


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

    Runs the descent from `starts` random initial metrics and reports the
    maximum pairwise deviation of the resulting angle assignments and
    lengths (gauge-projected for the ideal flavor, raw for the hyper
    flavor), the largest spread max - min of any entry.  A deviation above
    _RIGIDITY_TOL sets ok=False: rigidity says the minimizer is unique, so
    disagreement signals a solver problem.  Targets and options are checked
    as in solve_metric; starts must be a positive integer and the seed one
    numpy accepts (DomainError otherwise).

    The starts run in lockstep (see _descend), in consecutive groups of at
    most _GROUP_TETS tetrahedra in total, so a large count never holds all
    of its starts' kernel temporaries at once.  Each group draws its initial
    metrics from the seed's stream when it runs, start by start.  The first
    start carries the LP rules of solve_metric, so the later ones skip the
    LP gate.
    """
    starts = _count(starts, "starts")
    opts = _check_options(opts)
    k = _reachable_target(c, k, flavor, opts.tol)
    rng = _rng(seed)
    low, high = (-1.0, 1.0) if flavor == "ideal" else (0.2, 3.0)
    group = max(1, _GROUP_TETS // c.n_tets)
    results = []
    for first in range(0, starts, group):
        x0 = rng.uniform(low, high, (min(group, starts - first), c.num_edges))
        results += _descend(c, k, flavor, x0, opts, lead=first == 0)

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
