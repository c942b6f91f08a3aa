"""Quantities assembled over a complex: angles, cone angles, curvature,
volume, and covolume with analytic cone-angle gradients.

Metrics are edge-class vectors (any reals for the ideal flavor, positive
for the hyper-ideal flavor).  Angle assignments come in two shapes:

* ideal: array (n_tets, 3), one angle per quad, each row summing to pi;
* hyper: array (n_tets, 6), one angle per edge slot, the three slots at
  each tetrahedron vertex summing to at most pi.

Cone angles sum dihedral angles over edge *instances*, so an edge class
meeting a tetrahedron in several slots is counted once per slot: they are
the complex's incidence matrix applied to the (T, 6) slot angles, taken as
one bincount over the slots' edges, which adds each edge's instances in
(tet, slot) order as that product does.  The curvature is 2 pi minus the
cone angle at interior edges and pi minus the cone angle at boundary edges.

The covolume of a metric is the sum of the per-tetrahedron covolumes; its
gradient is exactly the cone-angle vector of the metric, which is what the
solvers exploit.  _evaluate is the one evaluator of metrics on a complex:
it takes m metrics, one per row, through one call of the flavor's batched
kernel (ideal.ideal_kernel, hyperideal.hyper_kernel) and returns the
kernel record, the covolumes and the cone angles of every row.
cov_complex, volume_of_metric and the solvers' duality check read it.  The
descent runs the kernel's two stages apart: _evaluate_angles, the angle
stage and the cone angles, at every point, and _evaluate_volumes, the
volume stage, only where a value is read.  A tetrahedron beyond its
kernel's range makes its row's covolume NaN; the descent reads that as a
failed Armijo test, and the named functions raise NumericalError.
"""

import math

import numpy as np

from .errors import DomainError, NumericalError
from .hyperideal import (
    VERTEX_SLOTS,
    hyper_angle_stage,
    hyper_angles,
    hyper_kernel,
    hyper_volume_stage,
    volumes_from_angles,
)
from .ideal import ideal_angle_stage, ideal_kernel, ideal_volume_stage
from .lobachevsky import lobachevsky_array

__all__ = [
    "FLAVORS",
    "angles_of_metric",
    "cone_angles",
    "curvature",
    "volume",
    "volume_of_metric",
    "cov_complex",
    "validate_assignment",
]

FLAVORS = ("ideal", "hyper")
# how far an assignment's angles may fall below 0, and its sums off pi
_ASSIGNMENT_TOL = 1e-10


def _check_flavor(flavor):
    if flavor not in FLAVORS:
        raise DomainError(f"flavor must be one of {FLAVORS}, got {flavor!r}")


def _check_edge_vector(c, x, what):
    """x as a finite float vector with one entry per edge class of c."""
    x = np.asarray(x, dtype=float)
    if x.shape != (c.num_edges,):
        raise DomainError(f"{what} must have one entry per edge ({c.num_edges}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} must be finite")
    return x


def _check_metric(c, l, flavor, extended=False):
    _check_flavor(flavor)
    l = _check_edge_vector(c, l, "metric values")
    if flavor == "hyper" and not extended and np.min(l) <= 0.0:
        raise DomainError("hyper-ideal metrics require strictly positive lengths")
    return l


def angles_of_metric(c, l, flavor):
    """Per-tetrahedron dihedral angles of the metric l.

    Returns shape (n_tets, 3) of quad angles for the ideal flavor and
    (n_tets, 6) of slot angles for the hyper flavor.
    """
    l = _check_metric(c, l, flavor)
    if flavor == "hyper":
        return hyper_angles(l[c.edge_index])
    return ideal_kernel(l[c.edge_index]).angles


def _check_assignment(c, assignment, flavor):
    """assignment as a float array of the flavor's shape on c: (T, 3) ideal, (T, 6) hyper."""
    _check_flavor(flavor)
    a = np.asarray(assignment, dtype=float)
    expected = (c.n_tets, 3 if flavor == "ideal" else 6)
    if a.shape != expected:
        raise DomainError(f"{flavor} assignment must have shape {expected}, got {a.shape}")
    return a


def validate_assignment(c, assignment, flavor):
    """Check an assignment's linear constraints to _ASSIGNMENT_TOL; DomainError if violated."""
    a = _check_assignment(c, assignment, flavor)
    if not np.all(np.isfinite(a)) or np.min(a) < -_ASSIGNMENT_TOL:
        raise DomainError("assignment angles must be finite and nonnegative")
    if flavor == "ideal":
        sums = a.sum(axis=1)
        if np.max(np.abs(sums - math.pi)) > _ASSIGNMENT_TOL:
            raise DomainError(f"per-tetrahedron quad sums must equal pi, got {sums}")
    else:
        top = a[:, VERTEX_SLOTS].sum(axis=2).max()
        if top > math.pi + _ASSIGNMENT_TOL:
            raise DomainError(f"per-vertex angle sums must be at most pi, got {top}")
    return a


def cone_angles(c, assignment):
    """Cone angle at each edge class: instance-multiplicity angle sum.

    The assignment is (T, 3) quad angles or (T, 6) slot angles.
    """
    a = np.asarray(assignment, dtype=float)
    if a.ndim != 2 or a.shape[1] not in (3, 6):
        raise DomainError(f"assignment must have shape (T, 3) or (T, 6), got {a.shape}")
    if a.shape[0] != c.n_tets:
        raise DomainError(f"assignment has {len(a)} rows for a complex with {c.n_tets} tetrahedra")
    return _cone_angles(c, a[None])[0]


def _copy_slots(c, copies):
    """The edge of every slot of `copies` copies of c, copy i's edges numbered after copy i - 1's."""
    e_count = c.num_edges
    return (c.edge_index + np.arange(0, copies * e_count, e_count)[:, None, None]).ravel()


def _cone_angles(c, a):
    """Cone angles, shape (m, E), of the angles a, shape (m, T, 3) or (m, T, 6), of m rows.

    One bincount over the slots' edges in m copies of the complex.  The
    numbering of m copies is the prefix of that of any larger count, so the
    complex keeps one numbering per power of two of copies, at most twice
    the largest m it has seen, and m reads the prefix of the next.
    """
    m, e_count = len(a), c.num_edges
    if a.shape[2] == 3:
        a = np.concatenate((a, a), axis=2)
    slots = c._derive(_copy_slots, 1 << (m - 1).bit_length())[: a.size]
    return np.bincount(slots, a.ravel(), m * e_count).reshape(m, e_count)


def curvature(c, k):
    """2 pi minus the cone angle at interior edges, pi minus at boundary edges."""
    k = _check_edge_vector(c, k, "cone angles")
    full = np.where(np.asarray(c.edge_boundary), math.pi, 2.0 * math.pi)
    return full - k


def volume(c, assignment, flavor):
    """Total volume of an angle assignment.

    Ideal: sum of Lambda over all quads.  Hyper: sum of per-tetrahedron
    volumes, with flat (type II) tetrahedra contributing zero; a type-III
    tetrahedron raises UnsupportedAngleTypeError.
    """
    a = validate_assignment(c, assignment, flavor)
    if flavor == "ideal":
        return float(lobachevsky_array(a).sum())
    return float(volumes_from_angles(np.clip(a, 0.0, math.pi)).sum())


def volume_of_metric(c, l, flavor):
    """Total volume of the metric l, computed from the lengths themselves.

    The sum of the per-tetrahedron volumes of the flavor's kernel.  Going
    through the angles instead would reject long hyper-ideal edges whose
    angles round to a vertex sum of pi as type III.  A NaN volume raises
    NumericalError.
    """
    l = _check_metric(c, l, flavor)
    vol = float(_evaluate(c, l[None], flavor)[0].vol[0].sum())
    if math.isnan(vol):
        raise NumericalError(f"the volume of these {flavor} lengths is outside the double range")
    return vol


def cov_complex(c, l, flavor, tol=1e-10):
    """Covolume of the metric l and its gradient, the cone-angle vector.

    The value is the sum of per-tetrahedron covolumes, in closed form for
    both flavors; gradient[e] sums the dihedral angles over the instances
    of e.  Both flavors accept any finite real metric: the hyper flavor
    evaluates the C^1 convex extension, which the solvers minimize over
    all of R^E.  tol is the accuracy target of the hyper kernel's
    near-wall band integral (see hyperideal.hyper_kernel).  A covolume
    outside the double range raises NumericalError.
    """
    _, cov, kx = _evaluate_metric(c, l, flavor, extended=True, tol=tol)
    return cov, kx


def _evaluate_metric(c, l, flavor, extended=False, tol=1e-10):
    """The kernel record, covolume and cone angles of the one metric l, checked.

    l is checked as _check_metric does.  A covolume outside the double
    range, which both kernels give as NaN, is a NumericalError.
    """
    l = _check_metric(c, l, flavor, extended)
    kernel, cov, kx = _evaluate(c, l[None], flavor, tol)
    if not math.isfinite(cov[0]):
        raise NumericalError(f"the covolume of these {flavor} lengths is outside the double range")
    return kernel, float(cov[0]), kx[0]


def _evaluate(c, x, flavor, tol=1e-10):
    """The flavor's kernel on the metrics x, shape (m, E), one per row, in one call.

    Returns the kernel record, each array of shape (m, T, ...), the
    covolume of each row, shape (m,), and its cone angles, shape (m, E).
    Each row gets the bits it would get alone, NaN beyond the kernel's
    range; nothing raises on finite x.  tol is cov_complex's.
    """
    m = len(x)
    lengths = x.take(c.edge_index, axis=1).reshape(-1, 6)
    kernel = hyper_kernel(lengths, tol=tol) if flavor == "hyper" else ideal_kernel(lengths)
    kernel = kernel._make(a.reshape(m, c.n_tets, *a.shape[1:]) for a in kernel)
    return kernel, kernel.cov.sum(axis=1), _cone_angles(c, kernel.angles)


def _evaluate_angles(c, x, flavor):
    """The flavor's angle stage on the metrics x, shape (m, E), one per row, in one call.

    Returns the angle-stage record, each array of shape (m, T, ...), and the
    cone angles of each row, shape (m, E), as _evaluate gives them wherever
    the record's tetrahedra are all closed.
    """
    m = len(x)
    lengths = x.take(c.edge_index, axis=1).reshape(-1, 6)
    record = hyper_angle_stage(lengths) if flavor == "hyper" else ideal_angle_stage(lengths)
    record = record._make(a.reshape(m, c.n_tets, *a.shape[1:]) for a in record)
    return record, _cone_angles(c, record.angles)


def _evaluate_volumes(record, flavor, tol=1e-10):
    """The covolume and volume of each row, shape (m,), of an _evaluate_angles record, in one call.

    The flavor's volume stage on all of the record's tetrahedra; each row
    gets the bits _evaluate gives it, but that an ideal covolume past the
    double range is judged against this call's number of tetrahedra (see
    ideal.ideal_volume_stage).
    """
    m = len(record.angles)
    rows = record._make(a.reshape(-1, *a.shape[2:]) for a in record)
    cov, vol = hyper_volume_stage(rows, tol) if flavor == "hyper" else ideal_volume_stage(rows)
    return cov.reshape(m, -1).sum(axis=1), vol.reshape(m, -1).sum(axis=1)
