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
hyperideal.hyper_jacobian).  A complex of at most _DENSE_EDGES = 112 edges
gets H as a dense E x E array, solved by LAPACK (np.linalg.solve); a larger
one gets it sparse, factored by SuperLU.  On fig8 covers the two take equal
time at E = 104-136, SuperLU's fixed costs per call outweighing the dense
solve below that, and every benchmark ladder rung (E <= 64) takes the dense
path.  The solver evaluates no tetrahedron itself: every point goes
through the library's evaluator (metrics), each stage of the kernel at
most once.  The descent keeps the angle-stage record of the accepted
point, and both the Jacobians and the results read it.  The ideal H
vanishes on the decoration gauge col(B), H B = 0, so both flavors solve
one E x E matrix; the ideal step goes through the gauge projection onto
ker B^T before and after the solve, which gives the step of the system
bordered by B.  What depends on the complex alone is derived once per
complex and kept on it (triangulation.Complex._derive): where H's entries
land, dense or sparse, per start count, the vertex sums and edge valences
of the target check, and the gauge projection's matrices, so repeated
solves on one complex build none of them again.
Every ideal metric's cone angles meet the vertex sums (B^T k_x)_v = pi n_v
(n_v corners in vertex class v), so the residual for a target that meets
them is orthogonal to col(B), and steps in ker B^T can drive it to zero.

The step solves (H + mu I) d = -r with mu = |r| min(1, |r|) in the max
norm.  Flat and near-wall tetrahedra contribute zero blocks, and where the
covolume is linear along a direction H cannot bound the step: the plain
Newton step there ran to lengths of 1e17 and more from random starts on a
16-tetrahedron cover.  The shift keeps such steps the size of the
residual, and near the solution, where mu = |r|^2, it leaves the
convergence quadratic; it is never below _SHIFT_FLOOR times H's largest
diagonal entry, or it would be lost when rounded onto that diagonal.
Where the factorization is singular anyway, or the step is no descent
direction, the step is the steepest-descent -r.
A backtracking Armijo line search damps the step.  Each trial point runs
the kernel's angle stage, which gives the gradient: the cone angles k_x,
so r = k_x - k.  Convexity accepts most trial points from it alone: f is
convex along the step, so f(x + a d) - f(x) <= a <r(x + a d), d>, and
where that is at most c a <r, d> the Armijo bound holds.  A trial point
whose tetrahedra are all closed (no near-wall band, nothing beyond the
kernel's range; see the kernels' angle stages) is accepted when
<r(x + a d), d> <= c <r, d>.  Any other runs the volume stage, at the
trial and the current point, and takes the Armijo test, which allows 8
ulp of |cov(x)| + |<x, k>| at both points (at least 1e-13); a trial point
beyond a kernel's range has a NaN covolume, which fails it.  So the
decisions, and the iterates, are those of the Armijo test at every trial
point.  Beyond them the volume stage runs only where a value is read: for
the W and volume of the results and the errors' diagnostics.  A result
keeps its descent path, along which objective_trace evaluates f on request.

rigidity_check's random starts descend in lockstep (_lockstep): each
line-search round makes one angle-stage call on the stacked points of every
unconverged start, and at most one volume-stage call; each iteration one
Jacobian call and one solve of the starts' Newton matrices (_NewtonSystem).
Each start follows its own descent up to rounding, and the calls number
about the largest iteration count of the starts rather than their sum.  The
starts run in groups of at most _GROUP_TETS tetrahedra in total, which
bounds the memory of a large start count (a dense stack of E x E matrices
at most about 1 MB on fig8 covers).  _descend picks the loop by the start
count: one start (solve_metric, a group of one) descends on its own
vectors (_descend_one), with the lockstep's decisions, calls and results
to the bit but none of its per-row masks, stacked records and NaN
placeholders.  On a 2-vCPU x86-64 host that took 0.78-0.82 of the
lockstep's time on ideal round trips at T = 8 and 16, but ten starts one
after another took 2.9-5.1 times the lockstep's time for ten.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array, csr_array, eye_array, hstack, kron, vstack
from scipy.sparse.linalg import splu

from .errors import (
    ConsistencyError,
    DomainError,
    LineSearchError,
    MaxIterationsError,
    NotPositiveFeasibleError,
    NumericalError,
)
from .hyperideal import _PAIRS, VERTEX_SLOTS, _slot_sums, flat_pairs, hyper_jacobian
from .ideal import ideal_jacobian
from .metrics import (
    _check_assignment,
    _check_edge_vector,
    _check_flavor,
    _evaluate,
    _evaluate_angles,
    _evaluate_volumes,
)
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
    "objective_trace",
    "classify_maximizer",
    "rigidity_check",
]


# Armijo constant, LP slack of a positive target
_ARMIJO = 1e-4
_FEASIBILITY_TOL = 1e-9
# HiGHS's primal feasibility tolerance, a hundredth of the slack threshold
# (its default, 1e-7, lets the witness miss the LP's rows by more than it)
_PRIMAL_FEASIBILITY = 1e-10
# the feasibility LP's per-tetrahedron blocks: slot s to quad s mod 3 (its
# opposite pair), and the three slots at each vertex
_SLOT_QUAD = _slot_sums(_PAIRS)
_VERTEX_ROWS = _slot_sums(VERTEX_SLOTS).T
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
# in total (see _lockstep)
_GROUP_TETS = 1024
# the half-width of the box duality_gap samples around the solved metric
_DUALITY_SPREAD = 1.0
# the Armijo test's roundoff allowance, absolute and per unit of f's terms
_ROUNDOFF = 1e-13
_ULPS = 8.0 * np.finfo(float).eps
# the least Newton shift, per unit of the start's largest diagonal entry of H
# (see _NewtonSystem)
_SHIFT_FLOOR = 1e-12
# The most edges a complex may have for its Newton matrices to be solved
# dense (see _NewtonSystem).  On fig8 covers with BLAS on one thread, a
# dense step takes as long as a SuperLU one at E = 128-136 for one start and
# at E = 104-112 for rigidity_check's lockstep groups of 1024 / E starts.
_DENSE_EDGES = 112


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
    # (iterations + 1, E): the start and each accepted point of the descent
    path: np.ndarray | None = field(default=None, repr=False)


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
    The rows are CSR products with the incidence operator op (below), and
    HiGHS meets them to _PRIMAL_FEASIBILITY.  The optimum sign decides the
    status, against _FEASIBILITY_TOL; the witness y + s realizes the slack.
    """
    k = _check_target(c, k)
    _check_flavor(flavor)
    t_count = c.n_tets
    op = c.incidence
    per_tet = 3 if flavor == "ideal" else 6
    nvar = per_tet * t_count  # y, then s
    tets = eye_array(t_count, format="csr")
    if flavor == "ideal":
        # tet rows: sum y + 3 s = pi; edge rows: op F y + valence s = k,
        # where F takes each tetrahedron's slot s to its quad s mod 3
        rows = vstack(
            [kron(tets, np.ones((1, 3)), format="csr"), op @ kron(tets, _SLOT_QUAD, format="csr")],
            format="csr",
        )
        a_eq, b_eq = _with_slack(rows), np.concatenate([np.full(t_count, math.pi), k])
        a_ub = b_ub = None
    else:
        # edge rows: op y + valence s = k; vertex rows: sum y + 4 s <= pi
        a_eq, b_eq = _with_slack(op), k
        a_ub = _with_slack(kron(tets, _VERTEX_ROWS, format="csr"), 1.0)
        b_ub = np.full(4 * t_count, math.pi)

    cost = np.zeros(nvar + 1)
    cost[-1] = -1.0  # maximize the slack
    bounds = np.zeros((nvar + 1, 2))
    bounds[:, 1] = math.inf
    bounds[-1] = (-math.inf, math.pi)
    res = linprog(
        cost, a_ub, b_ub, a_eq, b_eq, bounds=bounds, method="highs",
        options={"primal_feasibility_tolerance": _PRIMAL_FEASIBILITY},
    )
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


def _with_slack(a, extra=0.0):
    """The LP rows a with the slack's column appended: each row's sum, plus extra."""
    return hstack([a, csr_array(a.sum(axis=1)[:, None] + extra)], format="csr")


def _rowdot(a, b):
    """a_i @ b_i for each row a_i of a and b_i of b (b itself if it is a vector).

    A stacked matmul of 1 x E by E x 1 products takes the vector dot path,
    so each entry is bit for bit the dot product of one start's vectors.
    """
    return np.matmul(a[:, None, :], b[..., None]).reshape(len(a))


class _Points(NamedTuple):
    """Points of m starts, one row each, through the flavor's angle stage.

    f, size and vol are NaN until the volume stage has run on the row
    (_settle), which the descent asks for only where a value is read.
    """

    x: np.ndarray  # (m, E) edge vectors
    kx: np.ndarray  # (m, E) cone angles, the gradient of cov
    f: np.ndarray  # (m,) objective cov(x) - <x, k>
    size: np.ndarray  # (m,) |cov(x)| + |<x, k>|, the scale of f's roundoff
    vol: np.ndarray  # (m,) volume
    record: tuple  # the flavor's angle-stage record at x, each array of shape (m, T, ...)

    def take(self, rows):
        record = self.record._make(a[rows] for a in self.record)
        return _Points(*(a[rows] for a in self[:-1]), record)

    def put(self, rows, other):
        for a, b in zip((*self[:-1], *self.record), (*other[:-1], *other.record)):
            a[rows] = b


def _points(c, flavor, x, k):
    """The _Points of the rows of x, shape (m, E), from one angle-stage call; f, size and vol NaN."""
    record, kx = _evaluate_angles(c, x, flavor)
    unknown = np.empty((3, len(x)))
    unknown.fill(np.nan)
    return _Points(x, kx, *unknown, record)


def _settle(flavor, k, parts):
    """f, size and vol of the rows of parts, from one volume-stage call.

    parts holds (points, rows), rows ascending; each part's rows get their
    values in place, each the bits of its own kernel call.  No call is made
    when there are no rows.
    """
    parts = [(p, rows) for p, rows in parts if len(rows)]
    if not parts:
        return
    pieces = [p if len(rows) == len(p.x) else p.take(rows) for p, rows in parts]
    if len(pieces) == 1:
        x, record = pieces[0].x, pieces[0].record
    else:
        x = np.concatenate([p.x for p in pieces])
        record = pieces[0].record._make(np.concatenate(a) for a in zip(*(p.record for p in pieces)))
    cov, vol = _evaluate_volumes(record, flavor)
    xk = _rowdot(x, k)
    f, size = cov - xk, np.abs(cov) + np.abs(xk)
    start = 0
    for p, rows in parts:
        stop = start + len(rows)
        p.f[rows], p.size[rows], p.vol[rows] = f[start:stop], size[start:stop], vol[start:stop]
        start = stop


class _Pattern(NamedTuple):
    """Where the Jacobian blocks of some copies of a complex land in their Newton matrix.

    The matrix's entries are the flat array data, one copy's nnz after the
    other's; the dense pattern lays each copy out as an E x E array in row
    order, the sparse one as the CSC data of a block-diagonal matrix (see
    _NewtonSystem).
    """

    pos: np.ndarray  # the data index of each Jacobian block entry
    diagonal: np.ndarray  # the data index of each diagonal entry, one row per copy
    nnz: int  # one copy's number of entries
    # the sparse pattern's CSC arrays: C int, as SuperLU takes them, so that
    # no step copies them
    indices: np.ndarray | None = None
    indptr: np.ndarray | None = None


def _dense_pattern(c, copies):
    """The _Pattern of `copies` dense E x E Newton matrices of c, for both flavors."""
    e_count = c.num_edges
    size = e_count * e_count
    cell = c.edge_index[:, :, None] * e_count + c.edge_index[:, None, :]
    offsets = size * np.arange(copies)
    return _Pattern(
        pos=(offsets[:, None, None, None] + cell).ravel(),
        diagonal=offsets[:, None] + (e_count + 1) * np.arange(e_count),
        nnz=size,
    )


def _newton_pattern(c, copies):
    """The sparse _Pattern of the Newton matrix of `copies` copies of c, for both flavors."""
    e_count, shape = c.num_edges, (copies, c.n_tets, 6, 6)
    edges = c.edge_index + e_count * np.arange(copies)[:, None, None]
    rows = np.broadcast_to(edges[..., :, None], shape).ravel()
    cols = np.broadcast_to(edges[..., None, :], shape).ravel()
    size = e_count * copies
    keys, pos = np.unique(cols * size + rows, return_inverse=True)
    return _Pattern(
        pos=pos,
        diagonal=np.searchsorted(keys, np.arange(size).reshape(copies, e_count) * (size + 1)),
        nnz=len(keys) // copies,
        indices=(keys % size).astype(np.intc),
        indptr=np.searchsorted(keys, np.arange(size + 1) * size).astype(np.intc),
    )


class _NewtonSystem:
    """The Newton matrices H + mu I of up to `copies` starts on one complex.

    H = op blockdiag(J_t) op^T with op the incidence operator, so H[e, f] sums J_t[s, s'] over the slots
    s of e and s' of f in each tetrahedron t.  Where each entry lands
    depends on the complex alone: the complex keeps that _Pattern, one per
    copy count and shared by both flavors, made on the first step that
    needs it, so repeated solves on one complex build it once.  Each step
    forms the (T, 6, 6) blocks from the points' kernel record and scatters
    them into the matrices' entries with one bincount, in the same order on
    both paths, so both hold the same H to the bit.

    A complex of at most _DENSE_EDGES edges takes the dense path
    (_dense_pattern): the m starts' matrices are one (m, E, E) stack, and
    one batched LAPACK solve (np.linalg.solve) takes all of them.  Larger
    complexes take the sparse path (_newton_pattern): the systems of the m
    starts are the diagonal blocks of one CSC matrix, the Newton matrix of
    m disjoint copies of the complex, which SuperLU factors at once under
    its default ordering.  That pattern numbers the copies directly, copy
    i's edges after copy i - 1's, so the first m copies are a prefix of its
    CSC arrays, and each m gets its matrix once.  At desk scale SuperLU's
    fixed costs per call, and a csc_array per solve, outweigh the
    factorization; a dense E x E matrix grows as E^2 and its solve as E^3,
    and on the fig8 cover of T = 32768 one would take 8.6 GB.

    The ideal H vanishes on the gauge directions col(B), H B = 0, so H
    commutes with the gauge projection P onto ker B^T, and the step P (H +
    mu I)^-1 (-P r) is the step of the bordered system [[H + mu I, B],
    [B^T, 0]] without its border: the residual is projected before the
    solve and the step after it (triangulation.gauge_project).  On col(B)
    the matrix is mu I alone, so the shift is at least _SHIFT_FLOOR times
    the start's largest diagonal entry of H, for both flavors; a smaller
    one is lost when rounded onto that diagonal, which leaves the matrix
    singular or nearly so.
    """

    def __init__(self, c, flavor, copies=1):
        self.c = c
        self.flavor = flavor
        self.copies = copies
        self.dense = c.num_edges <= _DENSE_EDGES
        self.pattern = None
        self.matrix = None  # the last step's matrices: the (m, E, E) stack, or the CSC matrix
        self._matrices = {}

    def _matrix(self, m):
        matrix = self._matrices.get(m)
        if matrix is None:
            p = self.pattern
            n, nnz = m * self.c.num_edges, m * p.nnz
            matrix = self._matrices[m] = csc_array(
                (np.zeros(nnz), p.indices[:nnz], p.indptr[: n + 1]), shape=(n, n)
            )
        self.matrix = matrix
        return matrix

    def _solve_block(self, data, i, rhs):
        """Start i's system alone; NaN, so that the step falls back to -r, where it is singular."""
        p = self.pattern
        n, nnz = self.c.num_edges, p.nnz
        block = csc_array(
            (data[i * nnz : (i + 1) * nnz], p.indices[:nnz], p.indptr[: n + 1]), shape=(n, n)
        )
        try:
            return splu(block).solve(rhs)
        except RuntimeError:
            return np.full(n, np.nan)

    def _solve_sparse(self, data, rhs):
        matrix = self._matrix(len(rhs))
        matrix.data[:] = data
        try:
            return splu(matrix).solve(rhs.ravel()).reshape(rhs.shape)
        except RuntimeError:  # exactly singular
            return np.array([self._solve_block(data, i, b) for i, b in enumerate(rhs)])

    def _solve_dense(self, data, rhs):
        e_count = self.c.num_edges
        stack = self.matrix = data.reshape(len(rhs), e_count, e_count)
        try:
            return np.linalg.solve(stack, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # some start's matrix is exactly singular
            d = np.full(rhs.shape, np.nan)
            for i, (a, b) in enumerate(zip(stack, rhs)):
                try:
                    d[i] = np.linalg.solve(a, b)
                except np.linalg.LinAlgError:
                    pass
            return d

    def step(self, record, r, shift):
        """The steps d with (H + mu' I) d = -r, or -r where that is no descent direction.

        record is the kernel record of the points of m <= copies starts, each
        array of shape (m, T, ...), from which the flavor's Jacobian forms H.
        r is an array (m, E), one start per row, and shift an array (m, 1); or
        r is one start's vector, shift its number and record's arrays (T, ...).
        mu' is the shift, or _SHIFT_FLOOR times the start's largest |H_ee|
        where that is larger.
        Ideal steps are confined to ker B^T.  Where the matrix of all m
        starts is exactly singular, each start's block is solved alone.
        """
        if self.pattern is None:
            build = _dense_pattern if self.dense else _newton_pattern
            self.pattern = self.c._derive(build, self.copies)
        p = self.pattern
        e_count = self.c.num_edges
        rows = r.reshape(-1, e_count)
        m = len(rows)
        jacobian = hyper_jacobian if self.flavor == "hyper" else ideal_jacobian
        if record.angles.ndim == 3:
            record = record._make(a.reshape(-1, *a.shape[2:]) for a in record)
        blocks = jacobian(record).ravel()
        data = np.bincount(p.pos[: blocks.size], blocks, m * p.nnz)
        diagonal = p.diagonal[:m]
        h = data[diagonal]
        floor = _SHIFT_FLOOR * np.maximum.reduce(np.abs(h), axis=1, keepdims=True)
        data[diagonal] = h + np.maximum(shift, floor)
        rhs = -gauge_project(self.c, rows) if self.flavor == "ideal" else -rows
        d = self._solve_dense(data, rhs) if self.dense else self._solve_sparse(data, rhs)
        if self.flavor == "ideal":
            d = gauge_project(self.c, d)
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


def _vertex_sums(c):
    """The vertex sums pi n_v (n_v corners in vertex class v) and B^T 1, the edge ends at each v."""
    corners = np.bincount(c.vertex_index.ravel(), minlength=c.num_vertices)
    return math.pi * corners, np.bincount(c.edge_endpoints.ravel(), minlength=c.num_vertices)


def _cone_angle_tops(c):
    """pi val(e) for each edge e of c, val(e) the number of tetrahedron slots it fills."""
    return math.pi * np.bincount(c.edge_index.ravel(), minlength=c.num_edges)


def _reachable_target(c, k, flavor, tol):
    """The checked target; NotPositiveFeasibleError if it is out of reach.

    Ideal targets off a vertex sum pi n_v by more than (B^T 1)_v tol are out
    of reach, since |B^T r|_v <= (B^T 1)_v max|r|.  In either flavor a
    positive angle assignment puts angles in (0, pi) on the val(e) slots of
    an edge e, so its cone angle lies in (0, pi val(e)); a target outside
    that range has none, which the feasibility LP confirms at once, before
    any descent (its huge entries would overflow the objective).  The
    sums and valences depend on the complex alone, which keeps them.
    Positivity is otherwise left to the descent's certificate.
    """
    _check_flavor(flavor)
    k = _check_target(c, k)
    if flavor == "ideal":
        sums, ends_at = c._derive(_vertex_sums)
        ends = c.edge_endpoints.ravel()
        miss = np.abs(np.bincount(ends, np.repeat(k, 2), c.num_vertices) - sums)
        allowed = tol * ends_at
        v = int(np.argmax(miss - allowed))
        if miss[v] > allowed[v]:
            raise NotPositiveFeasibleError(
                f"target misses the vertex sum pi n_v at vertex {v} by {miss[v]:.3e} > {allowed[v]:.3e}"
            )
    if not ((k > 0.0) & (k < c._derive(_cone_angle_tops))).all():
        _refuse_unless_positive(c, k, flavor)
    return k


def _refuse_unless_positive(c, k, flavor):
    """NotPositiveFeasibleError unless the feasibility LP finds a positive angle assignment for k."""
    report = feasibility(c, k, flavor)
    if not report.positive:
        raise NotPositiveFeasibleError(
            f"target has no positive angle assignment (status {report.status}, "
            f"max slack {report.max_slack})"
        )


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
    """One SolveResult per start, a row of x0 (S, E), in order: _descend_one's for one, else _lockstep's."""
    if len(x0) == 1:
        return [_descend_one(c, k, flavor, np.array(x0[0], dtype=float), opts, lead)]
    return _lockstep(c, k, flavor, x0, opts, lead)


def _descend_one(c, k, flavor, x, opts, lead):
    """_lockstep's descent from the one start x, shape (E,), on that start's vectors.

    Its decisions, kernel-stage calls, Newton steps and result or error are
    the lockstep's, to the bit.  It holds one vector and record per point,
    and Python floats for |r|, <r, d>, the step length and f, size and vol
    (NaN until the volume stage has run at the point).  Consulting the LP
    ends the lead.
    """
    newton = _NewtonSystem(c, flavor)
    record, kx = _evaluate_angles(c, x, flavor)
    f = size = vol = math.nan
    if not record.closed.all():
        [(f, size, vol)] = _values(flavor, k, [(x, record)])
        if math.isnan(f):
            kx = np.full_like(kx, math.nan)
    path, iterations, error = [x], 0, None
    while True:
        r = kx - k
        gnorm = float(np.abs(r).max())
        if gnorm <= opts.tol or error is not None or iterations >= opts.max_iter:
            if math.isnan(f):
                [(f, size, vol)] = _values(flavor, k, [(x, record)])
            if gnorm <= opts.tol:
                lengths = gauge_project(c, x) if flavor == "ideal" else x
                res = _result(flavor, k, lengths, record.angles, kx, f, vol, gnorm, iterations, path)
                if not isinstance(res, Exception):
                    if lead and not _certifies(res):
                        _refuse_unless_positive(c, k, flavor)
                    return res
                error = res
            if error is None:
                diagnostics = {"grad_norm": gnorm, "objective": f, "flavor": flavor}
                error = MaxIterationsError(f"no convergence in {opts.max_iter} iterations", diagnostics)
            if lead:
                _refuse_unless_positive(c, k, flavor)
            raise error
        if iterations == _GATE_AFTER and lead:
            lead = False
            _refuse_unless_positive(c, k, flavor)
        iterations += 1
        d = newton.step(record, r, gnorm * min(gnorm, 1.0))
        gd, alpha = float(r @ d), 1.0
        for _ in range(50):  # _line_search's rounds
            trial = x + alpha * d
            t_record, t_kx = _evaluate_angles(c, trial, flavor)
            t_values = (math.nan,) * 3
            if not (t_record.closed.all() and float((t_kx - k) @ d) <= _ARMIJO * gd):
                # the Armijo test, which also reads f at x where it is unknown
                t_values, *now = _values(flavor, k, [(trial, t_record)] + [(x, record)] * math.isnan(f))
                f, size, vol = now[0] if now else (f, size, vol)
                allowance = max(_ROUNDOFF, _ULPS * (size + t_values[1]))
                if not t_values[0] - f <= _ARMIJO * alpha * gd + allowance:
                    alpha *= 0.5
                    continue
            x, record, kx, (f, size, vol) = trial, t_record, t_kx, t_values
            break
        else:
            diagnostics = {"grad_norm": gnorm, "objective": f, "iteration": iterations}
            error = LineSearchError("backtracking found no acceptable step", diagnostics)
        path.append(x)


def _values(flavor, k, points):
    """f, size and vol, as floats, at each (x, record) of points, one start's point each.

    One volume-stage call on the stacked records gives each the bits of _settle.
    """
    records = [record for _, record in points]
    stacked = records[0]._make(np.stack(a) if len(a) > 1 else a[0][None] for a in zip(*records))
    cov, vol = _evaluate_volumes(stacked, flavor)
    xk = [float(x @ k) for x, _ in points]
    return [(a - b, abs(a) + abs(b), v) for a, b, v in zip(cov.tolist(), xk, vol.tolist())]


def _lockstep(c, k, flavor, x0, opts, lead=False):
    """Damped Newton descents from the rows of x0, shape (S, E), run in lockstep.

    Each start keeps its own shift, step lengths, stopping test and
    iteration count, so its iterates are those of its descent run alone, up
    to rounding in the factorization; an iteration makes one Jacobian call
    and one factorization for all unconverged starts, and one angle-stage
    call per line-search round.
    The volume stage runs where a value is read: in the line search's
    Armijo tests, and for the f of the results and the errors' diagnostics,
    in one call when starts finish or fail.  Initial points with a
    tetrahedron that is not closed run it at once, so that a tetrahedron the
    kernel gives as NaN has NaN cone angles there.  Each start keeps the
    points it leaves, its result's path.
    A failing start's error is raised once every start before it has
    finished, which is the outcome of running the starts one after another.
    With lead, start 0 carries the LP rules: the feasibility LP is consulted,
    once, when start 0 reaches _GATE_AFTER iterations unconverged, fails, or
    converges to a solution that does not certify, and a target without a
    positive angle assignment raises NotPositiveFeasibleError.
    """
    x0 = np.array(x0, dtype=float)
    newton = _NewtonSystem(c, flavor, len(x0))
    results = [None] * len(x0)
    paths = [[x] for x in x0]
    errors = {}
    consulted = False

    def consult():
        nonlocal consulted
        if not consulted:
            consulted = True
            _refuse_unless_positive(c, k, flavor)

    def fail(start, exc):
        if start == 0 and lead:
            consult()
        errors[start] = exc

    ids = np.arange(len(x0))
    pts, failed = _points(c, flavor, x0, k), {}
    if not pts.record.closed.all():
        unsure = np.flatnonzero(~np.logical_and.reduce(pts.record.closed, axis=1))
        _settle(flavor, k, [(pts, unsure)])
        pts.kx[unsure[np.isnan(pts.f[unsure])]] = np.nan
    iterations = 0
    while True:
        r = pts.kx - k
        gnorm = np.maximum.reduce(np.abs(r), axis=1)
        done = gnorm <= opts.tol
        converged = done.any()
        over = np.flatnonzero(~done) if iterations >= opts.max_iter else []
        if converged or failed or len(over):
            ending = done.copy()
            ending[over] = True
            ending[list(failed)] = True
            rows = np.flatnonzero(ending)
            _settle(flavor, k, [(pts, rows[np.isnan(pts.f[rows])])])
        for j in over:
            failed.setdefault(j, MaxIterationsError(
                f"no convergence in {opts.max_iter} iterations",
                {"grad_norm": float(gnorm[j]), "objective": float(pts.f[j]), "flavor": flavor},
            ))
        if converged:
            # results keep views of their rows
            finished = pts if done.all() else pts.take(done)
            lengths = gauge_project(c, finished.x) if flavor == "ideal" else finished.x
            for j, (i, g) in enumerate(zip(ids[done].tolist(), gnorm[done].tolist())):
                res = _result(
                    flavor, k, lengths[j], finished.record.angles[j], finished.kx[j],
                    float(finished.f[j]), float(finished.vol[j]), g, iterations, paths[i],
                )
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
        d = newton.step(pts.record, r, shift[:, None])
        pts, failed = _line_search(c, flavor, k, pts, d, _rowdot(r, d), gnorm, iterations)
        for i, x in zip(ids.tolist(), pts.x):
            paths[i].append(x)


def _line_search(c, flavor, k, pts, d, gd, gnorm, iteration):
    """Backtracking Armijo steps from each row of pts along the matching row of d.

    Each row halves its step length, at most 50 times, until its trial
    point is accepted by the rule of the module docstring: from its angles
    alone where every tetrahedron is closed and <r(x + a d), d> <= c <r, d>,
    or else by the Armijo test.  The trial points of all rows still
    searching, which share the step length 2^-round, go through one
    angle-stage call per round, and the Armijo tests' values through one
    volume-stage call per round (_settle), on those trial points and on
    their current points whose f is not known yet.  Returns the points, the accepted ones in place of pts's rows, and the
    LineSearchError of each row that failed, by row.  pts itself keeps its
    points; the call only fills in f, size and vol where it computes them.
    """
    rows = np.arange(len(d))  # the rows still searching, and their data
    x, f, size, bound = pts.x, pts.f, pts.size, _ARMIJO * gd
    out = None
    failed = {}
    alpha = 1.0
    for _ in range(50):
        trial = _points(c, flavor, x + alpha * d, k)
        ok = _rowdot(trial.kx - k, d) <= bound
        closed = trial.record.closed
        if not np.logical_and.reduce(closed, axis=None):
            ok &= np.logical_and.reduce(closed, axis=1)
        if not ok.all():
            # at all the round's trial points and every current point whose
            # f is unknown: the test or an error reads each one (after the
            # first round the current points' f are all known, so f and
            # size, which start as views of pts's, stay up to date)
            _settle(flavor, k, [(trial, np.arange(len(rows))), (pts, np.isnan(pts.f).nonzero()[0])])
            allowance = np.maximum(_ROUNDOFF, _ULPS * (size + trial.size))
            ok |= trial.f - f <= _ARMIJO * alpha * gd + allowance
        if out is None:
            if ok.all():
                return trial, failed
            out = pts.take(np.arange(len(pts.x)))
        out.put(rows[ok], trial.take(ok))
        stay = ~ok
        rows, x, f, size = rows[stay], x[stay], f[stay], size[stay]
        d, gd, bound = d[stay], gd[stay], bound[stay]
        if not rows.size:
            return out, failed
        alpha *= 0.5
    for j, g, fj in zip(rows.tolist(), gnorm[rows].tolist(), f.tolist()):
        failed[j] = LineSearchError(
            "backtracking found no acceptable step",
            {"grad_norm": g, "objective": fj, "iteration": iteration},
        )
    return out, failed


def _result(flavor, k, lengths, angles, kx, f, vol, gnorm, iterations, path):
    """The SolveResult of a converged start, or the NumericalError of a non-positive hyper length.

    Ideal lengths come gauge-projected, which leaves the values of the
    point's kernel record unchanged in exact arithmetic.
    """
    if flavor == "hyper" and np.min(lengths) <= 0.0:
        return NumericalError(
            f"hyper-ideal critical point has non-positive lengths {lengths}; "
            "this contradicts the positivity of critical points"
        )
    return SolveResult(
        flavor=flavor,
        lengths=lengths,
        assignment=angles,
        achieved_cone_angles=kx,
        target_cone_angles=k,
        volume=vol,
        w_value=-f,
        objective=f,
        iterations=iterations,
        grad_norm=gnorm,
        path=np.array(path),
    )


def duality_gap(c, k, result, samples, seed=0):
    """Sampled check of the duality inequality <x, k> - cov(x) <= W(k).

    Draws `samples` points (a positive integer, DomainError otherwise)
    uniformly in a box of half-width _DUALITY_SPREAD = 1 around the solved
    metric and returns max(<x,k> - cov(x)) - W; convexity makes this
    nonpositive up to solve and kernel tolerance.  The tetrahedra of all
    samples go through one call of the flavor's kernel.  A result that does
    not fit c (see _check_result) is a DomainError, and a sample whose
    covolume the kernel cannot evaluate (NaN) a NumericalError.
    """
    k = _check_target(c, k)
    base, _ = _check_result(c, result)
    samples = _count(samples, "samples")
    rng = _rng(seed)
    x = base + rng.uniform(-_DUALITY_SPREAD, _DUALITY_SPREAD, (samples, c.num_edges))
    cov = _evaluate(c, x, result.flavor)[1]
    gap = float((_rowdot(x, k) - cov).max()) - result.w_value
    if math.isnan(gap):
        raise NumericalError("a sampled covolume is outside the double range")
    return gap


def objective_trace(c, result):
    """The objective cov(x) - <x, k> at each point of result's descent path, as a list.

    The path holds the start and each accepted point of the descent,
    unprojected for the ideal flavor, so the trace decreases up to the
    Armijo test's roundoff allowance.  Its rows go through one call of the
    flavor's kernel, each with the bits the descent would give it.  A
    result without a path, or whose path does not fit c, is a DomainError.
    """
    _check_flavor(result.flavor)
    path = np.asarray(result.path, dtype=float)  # a 0-d NaN for None
    if path.ndim != 2 or path.shape[1] != c.num_edges:
        raise DomainError(f"no descent path over {c.num_edges} edges, got shape {np.shape(result.path)}")
    k = _check_edge_vector(c, result.target_cone_angles, "result target")
    return (_evaluate(c, path, result.flavor)[1] - _rowdot(path, k)).tolist()


def _check_result(c, result):
    """result's lengths and assignment, checked to fit c; DomainError if they do not."""
    lengths = _check_edge_vector(c, result.lengths, "result lengths")
    return lengths, _check_assignment(c, result.assignment, result.flavor)


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
    defect.  A result that does not fit c is a DomainError.
    """
    lengths, a = _check_result(c, result)
    lengths = lengths[c.edge_index]
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

    The starts run in lockstep (see _lockstep; a group of one takes
    _descend_one), in consecutive groups of at most _GROUP_TETS tetrahedra
    in total, so a large count never holds all of its starts' kernel
    temporaries at once.  Each group draws its initial metrics from the
    seed's stream when it runs, start by start.  The first start carries the
    LP rules of solve_metric, so the later ones skip the LP gate.
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
