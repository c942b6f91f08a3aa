"""Geometry of decorated ideal tetrahedra, possibly degenerate, one or many at once.

A generalized decorated tetrahedron is six real edge labels l = (l_1..l_6)
with slots i and i+3 opposite.  Its dihedral angles are the inner angles of
the generalized Euclidean triangle with side lengths

    x_p = exp((l_p + l_{p+3}) / 2),   p = 1, 2, 3,

the angle on pair p sitting opposite side x_p, and a side at least as long
as the other two combined collapses the angles to (pi, 0, 0).  The convex
covolume is cov(l) = 2 * phi_star of the log side lengths, with the cone
angles as its gradient; phi_star itself is the Legendre-type dual of minus
the triangle volume sum(Lambda(a_i)).

`ideal_kernel` evaluates the angles, covolume and volume of a whole (T, 6)
array of labels in one numpy pass; the single-tetrahedron functions are its
T = 1 views.  It runs in two stages, which the descent calls apart: the
angle stage (`ideal_angle_stage`), the triangle angles of the log sides,
and the volume stage (`ideal_volume_stage`), their Lobachevsky sums.  All side lengths are handled in log space so that no finite
label overflows the angles, and the angles come from Kahan's sorted half-angle
arctangent form, which stays accurate where the law of cosines would cancel.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .hyperideal import _check_batch, _check_six
from .lobachevsky import lobachevsky, lobachevsky_array

__all__ = [
    "IdealKernel",
    "IdealAngles",
    "ideal_kernel",
    "ideal_angle_stage",
    "ideal_volume_stage",
    "ideal_jacobian",
    "triangle_angles",
    "penner_angle",
    "ideal_lengths_to_angles",
    "is_decorated_ideal",
    "ideal_volume",
    "phi_star",
    "cov_ideal",
]

PAIRS = ((0, 3), (1, 4), (2, 5))
# labels up to this size keep the kernel's steps, and the sum of its
# covolumes over any 10^7 tetrahedra, in the double range
_LARGE = 1e300


class IdealKernel(NamedTuple):
    """Per-tetrahedron output of ideal_kernel for T tetrahedra."""

    angles: np.ndarray  # (T, 3) quad angles; slots p and p + 3 carry angle p
    cov: np.ndarray  # (T,) covolume, the gradient of which is the slot angles
    vol: np.ndarray  # (T,) volume sum_p Lambda(a_p), 0 on the flat tetrahedra


class IdealAngles(NamedTuple):
    """The angle stage of ideal_kernel for T tetrahedra."""

    angles: np.ndarray  # (T, 3) quad angles
    y: np.ndarray  # (T, 3) log sides l_p / 2 + l_{p+3} / 2
    closed: np.ndarray  # (T,) labels at most _LARGE in size


def _triangle_angles(x):
    """Inner angles of the generalized Euclidean triangles with sides x, shape (T, 3).

    Angle p sits opposite side x_p, and each row sums to pi exactly (the
    largest angle is pi minus the other two).  The sides of a row are sorted
    stably, so equal sides rank by position, into c <= b <= a, and Kahan's
    terms are formed from them: t1 = a + (b + c), t2 = c - (a - b),
    t3 = c + (a - b) and t4 = a + (b - c).  t2 <= 0, a side at least the sum
    of the others, is clamped to 0, which yields the flat (pi, 0, 0) pattern
    exactly.
    """
    # flat index of each row's sides in ascending order
    order = x.argsort(axis=1, kind="stable") + 3 * np.arange(len(x))[:, None]
    srt = x.take(order)  # columns c, b, a
    c, b, a = srt.T
    diff = srt[:, 1:] - srt[:, :-1]  # b - c, a - b
    t43 = srt[:, ::-2] + diff  # t4, t3
    t2 = np.maximum(c - diff[:, 1], 0.0)[:, None]
    t1 = (a + (b + c))[:, None]
    # halves of the angles opposite b and c:
    # atan2(sqrt(t2 t4), sqrt(t1 t3)) and atan2(sqrt(t2 t3), sqrt(t1 t4))
    half = np.arctan2(np.sqrt(t2 * t43), np.sqrt(t1 * t43[:, ::-1]))
    angles = np.empty_like(x)
    angles[:, 1::-1] = 2.0 * half
    angles[:, 2] = math.pi - angles[:, 1] - angles[:, 0]
    out = np.empty_like(x)
    out.put(order, angles)
    return out


def _log_side_angles(y):
    """The quad angles of log sides y, shape (T, 3), each row shifted by its maximum before exp."""
    return _triangle_angles(np.exp(y - y.max(axis=1, keepdims=True)))


def _log_side_volumes(a, y):
    """2 phi_star and the volume of the angles a at log sides y, both shape (T, 3)."""
    lam = lobachevsky_array(a)
    return 2.0 * (lam + a * y).sum(axis=1), lam.sum(axis=1)


def _log_side_kernel(y):
    """Angles, 2 phi_star and volume of log sides y, shape (T, 3), as an IdealKernel.

    Any finite y is safe.
    """
    a = _log_side_angles(y)
    return IdealKernel(a, *_log_side_volumes(a, y))


def ideal_kernel(l):
    """Quad angles, covolume and volume of T tetrahedra with labels l, shape (T, 6).

    Any finite reals are accepted; the log sides are y_p = l_p / 2 + l_{p+3} / 2,
    halved before they are added so that no finite pair overflows, and
    cov = 2 sum_p (Lambda(a_p) + a_p y_p).  Labels up to _LARGE in size keep
    every step in the double range.  Past it the angles and volumes are
    still exact, no step warns, and a covolume of size beyond DBL_MAX / T,
    where a sum of T of them could overflow, is NaN.  Raises DomainError for
    non-finite labels.  The kernel is its two stages, ideal_angle_stage and
    ideal_volume_stage, run one after the other.
    """
    r = ideal_angle_stage(l)
    return IdealKernel(r.angles, *ideal_volume_stage(r))


def ideal_angle_stage(l):
    """The angle stage of ideal_kernel: the quad angles and log sides, as an IdealAngles.

    closed marks the rows whose labels are at most _LARGE in size, whose
    covolume ideal_volume_stage gives finite and from the row alone.
    Raises DomainError for non-finite labels.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim == 2 and l.shape[1] == 6 and np.abs(l).max(initial=0.0) <= _LARGE:  # False where NaN
        y = 0.5 * l[:, :3] + 0.5 * l[:, 3:]
        return IdealAngles(_log_side_angles(y), y, np.ones(len(l), dtype=bool))
    l = _check_batch(l, "edge labels")
    y = 0.5 * l[:, :3] + 0.5 * l[:, 3:]
    with np.errstate(over="ignore"):
        return IdealAngles(_log_side_angles(y), y, np.abs(l).max(axis=1) <= _LARGE)


def ideal_volume_stage(record):
    """The volume stage of ideal_kernel: cov and vol, shape (T,), of an IdealAngles record.

    Where some label of the record exceeds _LARGE, a covolume of size
    beyond DBL_MAX / T, T the record's length, is NaN (see ideal_kernel).
    """
    a, y = record.angles, record.y
    if np.logical_and.reduce(record.closed, axis=None):
        return _log_side_volumes(a, y)
    with np.errstate(over="ignore"):
        cov, vol = _log_side_volumes(a, y)
    cov[~(np.abs(cov) <= np.finfo(float).max / len(cov))] = np.nan
    return cov, vol


def _cotangent_map():
    """Matrix (3, 36) taking (cot a_1, cot a_2, cot a_3) to a tetrahedron's 6 x 6 Jacobian."""
    m = np.zeros((3, 3, 3))  # m[i] is the cotangent form's coefficient of cot a_i
    for p in range(3):
        q, r = (p + 1) % 3, (p + 2) % 3
        m[q, p, p] = m[r, p, p] = 1.0
        m[r, p, q] = m[r, q, p] = -1.0
    return 0.5 * np.tile(m, (1, 2, 2)).reshape(3, 36)


_COTANGENT_MAP = _cotangent_map()


def ideal_jacobian(kernel):
    """Jacobian of the slot angles in the labels, shape (T, 6, 6).

    kernel is the IdealKernel of the T tetrahedra, or its angle stage
    (IdealAngles), whose quad angles are all the Jacobian needs: it is the
    cotangent form of the triangle-angle map on log sides
    (Bobenko-Pinkall-Springborn, Geom. Topol. 2015), d a_p / d y_p = cot a_q
    + cot a_r and d a_p / d y_q = -cot a_r, with y_p = (l_p + l_{p+3}) / 2,
    so d a_p / d l_s is half the entry at (p, s mod 3).
    It is symmetric, and the all-ones vector of each tetrahedron lies in
    its kernel.  Flat tetrahedra, whose angles (pi, 0, 0) stay put nearby,
    get a zero block.
    """
    a = kernel.angles
    flat = (a.min(axis=1) <= 0.0)[:, None]
    cot = np.where(flat, 0.0, 1.0 / np.tan(np.where(flat, 1.0, a)))
    # a broadcast sum: a matrix product this small would page in BLAS's gemm
    # code, about 0.25 MB of resident memory
    return (cot[:, :, None] * _COTANGENT_MAP).sum(axis=1).reshape(-1, 6, 6)


def triangle_angles(x1, x2, x3):
    """Inner angles (a1, a2, a3) of the generalized Euclidean triangle.

    The T = 1 view of the kernel's angle map.  Raises DomainError unless all
    sides are positive and finite.
    """
    for x in (x1, x2, x3):
        if not (x > 0.0 and math.isfinite(x)):
            raise DomainError(f"triangle sides must be positive finite, got {(x1, x2, x3)}")
    return tuple(_triangle_angles(np.array([[x1, x2, x3]], dtype=float))[0].tolist())


def penner_angle(l_jk, l_ij, l_ik):
    """Horocyclic arc length at vertex i of the decorated ideal triangle.

    Penner's cosine law: a_i = exp((l_jk - l_ij - l_ik) / 2).
    """
    return math.exp(0.5 * (l_jk - l_ij - l_ik))


def ideal_lengths_to_angles(l):
    """Six dihedral angles of the generalized decorated tetrahedron.

    The T = 1 view of ideal_kernel.  Opposite slots carry exactly equal
    angles; each quad sum is pi.
    """
    a = tuple(ideal_kernel([_check_six(l, "edge labels")]).angles[0].tolist())
    return a + a


def is_decorated_ideal(l):
    """True iff l is realized by a genuine decorated ideal tetrahedron.

    The T = 1 view of the kernel's flat clamp: the strict triangle
    inequalities on the sides exp((l_p + l_{p+3})/2) hold exactly when every
    angle is positive.
    """
    return bool(ideal_kernel([_check_six(l, "edge labels")]).angles.min() > 0.0)


def _check_angles(a):
    vals = _check_six(a, "dihedral angles")
    for i in range(3):
        if abs(vals[i] - vals[i + 3]) > 1e-9:
            raise DomainError(f"opposite slots must carry equal angles, got {vals}")
    if abs(vals[0] + vals[1] + vals[2] - math.pi) > 1e-9:
        raise DomainError(f"quad angles must sum to pi, got {vals}")
    if min(vals) < -1e-12:
        raise DomainError(f"angles must be nonnegative, got {vals}")
    return vals


def ideal_volume(a):
    """Hyperbolic volume from a valid 6-slot dihedral angle vector.

    Equals Lambda(a1) + Lambda(a2) + Lambda(a3); nonnegative, and zero
    exactly for degenerate (flat) tetrahedra.
    """
    vals = _check_angles(a)
    return lobachevsky(vals[0]) + lobachevsky(vals[1]) + lobachevsky(vals[2])


def phi_star(y1, y2, y3):
    """Fenchel dual of minus the ideal triangle volume.

    Returns (value, (a1, a2, a3)) where the a_i are the angles of the
    triangle with sides exp(y_i) and

        value = sum_i Lambda(a_i) + a_i * y_i.

    The gradient of phi_star is exactly the angle vector.  On the degenerate
    region exp(y_i) >= exp(y_j) + exp(y_k) the formula collapses to the
    closed form pi * y_i because the angles are exactly (pi, 0, 0) and
    Lambda(pi) = 0.  The T = 1 view of the kernel on log sides; a
    covolume 2 phi_star outside the double range raises NumericalError.
    """
    ys = (float(y1), float(y2), float(y3))
    if not all(math.isfinite(v) for v in ys):
        raise DomainError(f"phi_star requires finite arguments, got {ys}")
    with np.errstate(over="ignore"):
        k = _log_side_kernel(np.array([ys]))
    if not math.isfinite(k.cov[0]):
        raise NumericalError(f"the covolume at log sides {ys} is outside the double range")
    return 0.5 * float(k.cov[0]), tuple(k.angles[0].tolist())


def cov_ideal(l):
    """Convex covolume of a generalized decorated tetrahedron.

    Returns (value, gradient) with value = 2 * phi_star of the log sides and
    gradient slot i equal to the dihedral angle there (the Schlaefli-type
    identity d cov / d l_i = a_i); the T = 1 view of ideal_kernel.
    """
    l = _check_six(l, "edge labels")
    value, a = phi_star(*(0.5 * l[p] + 0.5 * l[p + 3] for p in range(3)))
    return 2.0 * value, a + a
