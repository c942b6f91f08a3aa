"""Geometry of generalized hyper-ideal tetrahedra.

Edges are indexed by six slots with slots s and s+3 opposite:

    slot:     0      1      2      3      4      5
    vertices: (0,1)  (0,2)  (0,3)  (2,3)  (1,3)  (1,2)

For positive edge lengths l the quantity phi_s(l) is the symmetric
cosine-law expression that equals cos(a_s) whenever the lengths are realized
by a hyper-ideal tetrahedron; the realizable set is

    L = { l > 0 : phi_s(l) in (-1, 1) for all s }.

Outside L the complement splits into three flat regions Omega_p, one per
opposite pair, where the pair carries phi <= -1 (dihedral angle pi) and the
four remaining edges carry phi >= 1 (angle 0).  The dihedral angle map
extends continuously to all of R^6 by clamping lengths at zero and clamping
phi into [-1, 1] before arccos.  Once an edge is longer than 64, phi is
evaluated on cosh values rescaled by a power of two near the largest cosh
of the tetrahedron, so long edges cannot overflow; the rescaling is exact,
so phi keeps the rounding of the unscaled cosine law.

The covolume is the C^1 convex primitive of the closed 1-form
mu = sum_s a_s dl_s with base value cov(0) = 16 Lambda(pi/4), the doubled
volume of the regular ideal octahedron that the zero-length tetrahedron
degenerates to.  It has a closed form.  Clamped slots carry angle 0, so
with l+ = max(l, 0)

    cov(l) = 2 vol(a(l+)) + sum_s a_s(l+) l+_s,

and on the flat region Omega_p, where the volume vanishes,
cov(l) = pi (l+_p + l+_{p+3}).  The volume is the Murakami-Yano formula
(Comm. Anal. Geom. 2005), which Ushijima extended to hyper-ideal vertices
("A volume formula for generalized hyperbolic tetrahedra", 2006).  On
hyper-ideal tetrahedra its dilogarithm arguments all lie on the unit
circle, so it is a signed sum of 16 Lobachevsky values (`_volume`).

Next to a flat wall the angles approach the flat pattern of one pair, where
the face Gram determinant and the formula's other ingredients vanish.
`_volume` evaluates them on the angles shifted by pi on that pair, which
keeps it accurate to about 1e-15 in absolute terms on any angle vector.
Angles computed from lengths are another matter: arccos near -1 amplifies
the cosine law's roundoff, and once both angles of a pair lie within about
1e-6 of pi the covolume built from them drifts by more than 1e-11.  In the
near-wall band, where both lie within _BAND of pi, the kernel therefore
steps along the two lengths of that pair to the wall and integrates the
pair's angles back (`_cov_near_wall`): a one-dimensional integral of two
slots with a single square-root endpoint, which a change of variable makes
smooth.

`hyper_kernel` evaluates phi, the angles, cov and vol for an array of T
tetrahedra in one numpy pass; the scalar functions are its T = 1 views.
It runs in two stages, which the descent calls apart: the angle stage
(`hyper_angle_stage`), the cosine law, the angles and the row masks, and
the volume stage (`hyper_volume_stage`), `_volume` with the flat and
near-wall fix-ups.
Like the ideal kernel it raises on no finite input: rows it cannot
evaluate come back NaN, where the named functions raise NumericalError.
`mu_segment_integral`, the adaptive quadrature of mu along a straight
segment, is independent of the closed form and serves as its oracle; the
solvers do not use it.

psi is the inverse cosine-law expression: for a type-I angle vector a the
edge lengths of the realizing tetrahedron are arccosh(psi_s(a)).
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from .errors import (
    ConsistencyError,
    DomainError,
    NumericalError,
    UnsupportedAngleTypeError,
)
from .lobachevsky import lobachevsky, lobachevsky_array

__all__ = [
    "EDGE_VERTICES",
    "VERTEX_SLOTS",
    "LengthClass",
    "HyperKernel",
    "HyperAngles",
    "vertex_edge_length",
    "phi",
    "flat_pairs",
    "classify_lengths",
    "hyper_angles",
    "hyper_angles_from_lengths",
    "hyper_kernel",
    "hyper_angle_stage",
    "hyper_volume_stage",
    "hyper_jacobian",
    "psi",
    "classify_angles",
    "cov_hyper",
    "vol_hyper",
    "volume_from_angles",
    "volumes_from_angles",
    "mu_segment_integral",
    "COV_AT_ORIGIN",
]

EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2))
SLOT_OF_EDGE = {frozenset(p): s for s, p in enumerate(EDGE_VERTICES)}
# slots of the three edges meeting each vertex
VERTEX_SLOTS = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

COV_AT_ORIGIN = 16.0 * lobachevsky(math.pi / 4.0)


def _slot(u, v):
    return SLOT_OF_EDGE[frozenset((u, v))]

# per slot (i, j): slots of the edges ik, ih, jk, jh and of the opposite kh,
# plus the indices of the two faces containing the edge
_SLOT_TABLE = []
for _s, (_i, _j) in enumerate(EDGE_VERTICES):
    _k, _h = sorted(set(range(4)) - {_i, _j})
    _SLOT_TABLE.append(
        (
            _slot(_i, _k),
            _slot(_i, _h),
            _slot(_j, _k),
            _slot(_j, _h),
            _slot(_k, _h),
            FACES.index(tuple(sorted((_i, _j, _k)))),
            FACES.index(tuple(sorted((_i, _j, _h)))),
        )
    )
_SLOT_TABLE = tuple(_SLOT_TABLE)

_FACE_SLOTS = tuple(
    tuple(_slot(u, v) for u, v in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2])))
    for f in FACES
)

# the same tables as index arrays for the batched cosine law: _GATHER picks,
# in one pass, the three face slots of each face (4 columns each), then
# the slots ik, ih, jk, jh and kh of each slot (6 columns each)
_F1, _F2 = (np.array([row[i] for row in _SLOT_TABLE]) for i in (5, 6))
_GATHER = np.concatenate(
    [np.array(col) for col in zip(*_FACE_SLOTS)]
    + [np.array([row[i] for row in _SLOT_TABLE]) for i in range(5)]
)

# hyper_jacobian's gathers of entry (s, u): of d log F1 and d log F2 from
# each face f's derivatives in its k-th slot (4 k + f) and a zero (12); of
# d num_s from its derivatives in the slots s, ik, ih, jk, jh, kh (6 term + s)
_DLOG = np.array(
    [[[4 * _FACE_SLOTS[row[n]].index(u) + row[n] if u in _FACE_SLOTS[row[n]] else 12 for u in range(6)]
      for row in _SLOT_TABLE] for n in (5, 6)]
)
_DNUM = np.array([[6 * ((s,) + _SLOT_TABLE[s][:5]).index(u) + s for u in range(6)] for s in range(6)])

# slot of the edge shared by faces f != g
_SHARED = np.array(
    [[_slot(*(set(f) & set(g))) if f != g else 0 for g in FACES] for f in FACES]
)
_DIAGONAL = np.eye(4, dtype=bool)


def _slot_sums(groups):
    """Matrix (6, len(groups)) whose column j sums the slots of groups[j]."""
    out = np.zeros((6, len(groups)))
    for j, group in enumerate(groups):
        out[list(group), j] = 1.0
    return out


# Murakami-Yano phases.  The quadratic's leading coefficient sums exp(i x)
# over x = the angle sums of the three opposite pairs, of the four faces and
# of all six slots; the 16 Lobachevsky arguments use beta = 0, the sums over
# each pair's complement, and pi plus each vertex sum, entering the volume
# with the signs _SIGN.  _volume takes pi off the angles of one opposite
# pair.  That moves each phase by pi times its number of slots of the pair,
# the same for all three pairs, which gives the signs _PHASE_SIGN; and it
# moves each beta by an even multiple of pi, which Lambda's period absorbs
# once beta is halved, so the vertex sums drop their pi.
_PAIRS = ((0, 3), (1, 4), (2, 5))
_DEN_PHASES = _slot_sums(_PAIRS + _FACE_SLOTS + (range(6),))
_PHASE_SIGN = np.array([1, 1, 1, -1, -1, -1, -1, 1], dtype=float)
_BETA = _slot_sums(((),) + tuple(set(range(6)) - set(p) for p in _PAIRS) + VERTEX_SLOTS)
_SIGN = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float)
_PHASES_AND_BETA = np.hstack((_DEN_PHASES, _BETA))
_PI_ON_PAIR = math.pi * np.array([[s in p for s in range(6)] for p in _PAIRS])
_ROOT_SIGNS = np.array([-1.0, 1.0])

# both angles of a pair this close to pi: the tetrahedron is in the near-wall
# band, where the kernel integrates instead of using its closed-form angles
# (which carry the covolume to 1e-14 down to 1e-5 from pi, 3e-11 at 1e-6)
_BAND = 1e-3
# the cosine law runs on cosh values scaled by a power of two once a length
# exceeds _SCALE_FROM (below it cosh^6 fits a double unscaled); cosh
# overflows past _COSH_MAX, where cosh l = e^l / 2 to double precision
_SCALE_FROM = 64.0
_COSH_MAX = 700.0
_LN2 = math.log(2.0)
# past this the binary scale exponent no longer resolves a length to a unit
_MAX_LENGTH = 1e12
# scaled face terms below this are too close to underflow for the cosine law
_FACE_FLOOR = 1e-280
# how far an angle may sit off 0, pi or a vertex sum off pi for the type tests
_ANGLE_TOL = 1e-9


def _check_six(l, name="edge lengths"):
    """One finite 6-vector as a tuple of floats; name is the noun of the error messages."""
    if len(l) != 6:
        raise DomainError(f"expected 6 {name}, got {len(l)}")
    vals = tuple(float(v) for v in l)
    if not all(math.isfinite(v) for v in vals):
        raise DomainError(f"{name} must be finite, got {vals}")
    return vals


def _check_batch(l, name="edge lengths"):
    """A finite float array of shape (T, 6); name is the noun of the error messages."""
    arr = np.asarray(l, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise DomainError(f"expected {name} of shape (T, 6), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def vertex_edge_length(l_ij, l_ik, l_jk):
    """Length of the vertex-triangle side cut off at vertex i.

    arccosh((cosh l_ij cosh l_ik + cosh l_jk) / (sinh l_ij sinh l_ik)); the
    argument is >= 1 for any positive lengths, so the result is always
    defined.  Raises DomainError for non-positive input.
    """
    for v in (l_ij, l_ik, l_jk):
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"vertex_edge_length requires positive lengths, got {(l_ij, l_ik, l_jk)}")
    arg = (math.cosh(l_ij) * math.cosh(l_ik) + math.cosh(l_jk)) / (
        math.sinh(l_ij) * math.sinh(l_ik)
    )
    if arg < 1.0 - 1e-12:
        raise DomainError(f"arccosh argument {arg} below 1 beyond roundoff slack")
    return math.acosh(max(arg, 1.0))


def _phi(lp):
    """phi of nonnegative lengths (T, 6); NumericalError naming the first row beyond the range."""
    ph, *_, bad = _cosine_law(lp)
    if bad is not None:
        t = int(np.flatnonzero(bad)[0])
        raise NumericalError(f"edge lengths {tuple(lp[t].tolist())} are beyond the cosine law's range")
    return ph


def _gathered(c):
    """The face slots ca, cb, cc, shape (T, 4), and ik, ih, jk, jh, kh, shape (T, 6), of c."""
    g = c.take(_GATHER, axis=1)
    return g[:, 0:4], g[:, 4:8], g[:, 8:12], g[:, 12:18], g[:, 18:24], g[:, 24:30], g[:, 30:36], g[:, 36:]


def _cosine_law(lp):
    """phi of nonnegative lengths lp, shape (T, 6), and the terms it is made of.

    Returns phi (exactly 1 where cosh l is 1), the scaled cosh values c, the
    scale e = 2^-m of each row, the face terms, the denominators and bad.

    The cosine law is evaluated on c = cosh(l) / 2^m, one binary exponent m
    per tetrahedron: m = 0 while its lengths stay below _SCALE_FROM (cosh^6
    then fits a double), about the binary exponent of its largest cosh
    otherwise, so long edges cannot overflow.  Terms of degree below three
    carry the matching powers of 2^-m, and the two face terms of the
    denominator are scaled by even powers of two before their product is
    taken.  Every rescaling is exact, so phi is the unscaled cosine law on
    numpy's cosh to the last bit wherever that does not overflow (math.cosh
    may differ in the last bit, so a scalar cosine law agrees to a few ulp).
    When no length of the batch exceeds _SCALE_FROM every m is 0: c is
    cosh l itself and den is sqrt(F1 F2), with none of the rescaling steps.

    The one scale per tetrahedron also sets the range: a face without the
    longest edge scales like 2^-3m, so one edge longer than about 216 next
    to edges of length 1 (a face term below _FACE_FLOOR) is beyond it, as
    is any length above _MAX_LENGTH.  bad marks such rows, None if there
    are none; they are neutralized before cosh and sqrt, so nothing warns,
    and get NaN phi.  Every other row keeps its bits.
    """
    top = lp.max(initial=0.0)
    bad = None
    if top > _MAX_LENGTH:
        bad = lp.max(axis=1) > _MAX_LENGTH
        lp = np.where(bad[:, None], 0.0, lp)  # the scaled path gives any row its bits
    if top <= _SCALE_FROM:
        c = ch = np.cosh(lp)
        e = np.ones((len(lp), 1))
    else:
        ch = np.cosh(np.minimum(lp, _COSH_MAX))
        m = np.floor(lp.max(axis=1, keepdims=True) / _LN2)
        m[m <= _SCALE_FROM / _LN2] = 0.0
        shift = -m.astype(int)
        c = np.where(lp < _COSH_MAX, np.ldexp(ch, shift), 0.5 * np.exp(lp - m * _LN2))
        e = np.ldexp(1.0, shift)
    ca, cb, cc, ik, ih, jk, jh, kh = _gathered(c)
    # (2 ca cb cc + ca^2 + cb^2 + cc^2 - 1) / 2^3m
    face = 2.0 * ca * cb * cc + e * (ca * ca) + e * (cb * cb) + e * (cc * cc) - e * e * e
    if face.min(initial=math.inf) < _FACE_FLOOR:
        low = face.min(axis=1) < _FACE_FLOOR
        face[low] = 1.0
        bad = low if bad is None else bad | low
    if top <= _SCALE_FROM:  # every m is 0, and F1 F2 fits a double
        den = np.sqrt(face[:, _F1] * face[:, _F2])
    else:
        half = np.frexp(face)[1] // 2
        unit = np.ldexp(face, -2 * half)
        den = np.ldexp(np.sqrt(unit[:, _F1] * unit[:, _F2]), half[:, _F1] + half[:, _F2])
    num = e * (ik * ih) + e * (jk * jh) + c * (ik * jh + ih * jk) - (c * c - e * e) * kh
    ph = np.where(ch == 1.0, 1.0, num / den)
    if bad is not None:
        ph[bad] = np.nan
    return ph, c, e, face, den, bad


def _angles(ph):
    return np.arccos(np.maximum(np.minimum(ph, 1.0), -1.0))


def phi(l):
    """The six symmetric cosine-law values phi_s(l) for strictly positive l.

    Equals cos of the dihedral angles when l lies in the hyper-ideal set L.
    """
    vals = _check_six(l)
    if min(vals) <= 0.0:
        raise DomainError(f"phi requires strictly positive lengths, got {vals}")
    return tuple(_phi(np.array([vals]))[0].tolist())


@dataclass(frozen=True)
class LengthClass:
    """Classification of a positive length vector against the flat regions.

    kind is one of "hyper_ideal", "flat_boundary", "flat_interior"; pair is
    the 0-based opposite pair carrying angle pi for the flat kinds, None
    otherwise.  phi holds the six values the decision was made from.
    """

    kind: str
    pair: int | None
    phi: tuple

    @property
    def is_hyper_ideal(self):
        return self.kind == "hyper_ideal"


def flat_pairs(l, tol=1e-9):
    """The flat pair of each of T positive length rows, shape (T, 6), and phi.

    Returns (pair, phi): pair[t] is the opposite pair of row t with phi <=
    -1 + tol on one of its slots, or -1 when no pair qualifies (the row lies
    in the closure of L); phi holds the rows' six cosine-law values.  Two
    distinct flat pairs cannot coexist, so a row showing both raises
    ConsistencyError, and a non-positive length raises DomainError; either
    names the first such row.
    """
    l = np.asarray(l, dtype=float)
    low = np.flatnonzero(l.min(axis=1) <= 0.0)
    if low.size:
        t = int(low[0])
        raise DomainError(f"tetrahedron {t} has non-positive lengths {l[t]}")
    ph = _phi(l)
    flat = np.minimum(ph[:, :3], ph[:, 3:]) <= -1.0 + tol
    two = np.flatnonzero(flat.sum(axis=1) > 1)
    if two.size:
        t = int(two[0])
        raise ConsistencyError(
            f"tetrahedron {t}: two opposite pairs report phi <= -1 (pairs "
            f"{np.flatnonzero(flat[t]).tolist()}, phi={ph[t]}); this is "
            "excluded by the flat-region disjointness"
        )
    return np.where(flat.any(axis=1), flat.argmax(axis=1), -1), ph


def classify_lengths(l, tol=1e-9):
    """Locate a positive length vector relative to L and the flat regions.

    The T = 1 view of flat_pairs: a pair with phi <= -1 + tol is flagged
    flat; |phi + 1| <= tol lands on the boundary wall, anything further
    below -1 in the interior of the flat region.  Points with every phi
    inside (-1 + tol, 1 - tol), and also points near the small-length
    frontier where some phi approaches 1 without any pair reaching -1,
    classify as hyper_ideal (they lie in the closure of L, not in any flat
    region).
    """
    pair, ph = flat_pairs([_check_six(l)], tol)
    p, ph = int(pair[0]), tuple(ph[0].tolist())
    if p < 0:
        return LengthClass("hyper_ideal", None, ph)
    if min(ph[p], ph[p + 3]) < -1.0 - tol:
        return LengthClass("flat_interior", p, ph)
    return LengthClass("flat_boundary", p, ph)


def hyper_angles(l):
    """Continuously extended dihedral angles of T tetrahedra, shape (T, 6).

    Lengths are clamped at zero, phi at [-1, 1]; a slot with l <= 0 gets
    angle 0, a flat pair gets pi.  The six slots are independent: opposite
    angles coincide only in the degenerate classes.
    """
    return _angles(_phi(np.maximum(_check_batch(l), 0.0)))


def hyper_angles_from_lengths(l):
    """The extended dihedral angles of one arbitrary real 6-vector (see hyper_angles)."""
    vals = _check_six(l)
    return tuple(_angles(_phi(np.maximum(np.array([vals]), 0.0)))[0].tolist())


def _regions(ph, a):
    """The flat and the near-wall rows of phi and the angles a, shape (T, 6).

    Returns (pair, near): pair[t] is the flat pair of row t, the pair with the
    least phi once some phi <= -1, and -1 where there is none; near, shape
    (T, 3), marks on the other rows the pairs whose two angles both lie
    within _BAND of pi, the near-wall band.
    """
    pair_min = np.minimum(ph[:, :3], ph[:, 3:])
    pair = np.where(pair_min.min(axis=1) <= -1.0, pair_min.argmin(axis=1), -1)
    near = (np.minimum(a[:, :3], a[:, 3:]) > math.pi - _BAND) & (pair < 0)[:, None]
    return pair, near


class HyperKernel(NamedTuple):
    """Per-tetrahedron output of hyper_kernel for T tetrahedra.

    The fields after vol are the terms hyper_jacobian reads (see _cosine_law).
    """

    phi: np.ndarray  # (T, 6) cosine-law values at the clamped lengths
    angles: np.ndarray  # (T, 6) extended dihedral angles, the gradient of cov
    cov: np.ndarray  # (T,) extended covolume
    vol: np.ndarray  # (T,) volume, 0 on the flat regions
    lengths: np.ndarray  # (T, 6) the lengths clamped at zero
    c: np.ndarray  # (T, 6) cosh of the clamped lengths, scaled by e
    e: np.ndarray  # (T, 1) each row's scale 2^-m
    face: np.ndarray  # (T, 4) scaled face terms
    den: np.ndarray  # (T, 6) denominators of phi
    smooth: np.ndarray  # (T,) neither flat nor in the near-wall band


class HyperAngles(NamedTuple):
    """The angle stage of hyper_kernel for T tetrahedra: its record less cov and vol."""

    phi: np.ndarray  # (T, 6) as in HyperKernel, NaN on the rows beyond the range
    angles: np.ndarray  # (T, 6) likewise
    lengths: np.ndarray
    c: np.ndarray
    e: np.ndarray
    face: np.ndarray
    den: np.ndarray
    smooth: np.ndarray
    closed: np.ndarray  # (T,) neither beyond the range nor in the near-wall band


def hyper_kernel(l, tol=1e-10):
    """phi, angles, covolume and volume of T tetrahedra with lengths l, shape (T, 6).

    Any finite reals are accepted: cov is the C^1 convex extension.  tol is
    the absolute accuracy target of the integral that replaces the closed
    form in the near-wall band.  A row beyond the cosine law's range, or
    whose band integral does not converge, gets NaN phi, angles, cov and
    vol; every other row keeps its bits.  Non-finite input is a DomainError.
    The kernel is its two stages, hyper_angle_stage and hyper_volume_stage,
    run one after the other.
    """
    r = hyper_angle_stage(l)
    cov, vol = hyper_volume_stage(r, tol)
    if not r.closed.all():  # a band integral that fails takes its row's angles too
        lost = np.isnan(cov)
        r.phi[lost] = r.angles[lost] = np.nan
    return HyperKernel(r.phi, r.angles, cov, vol, r.lengths, r.c, r.e, r.face, r.den, r.smooth)


def hyper_angle_stage(l):
    """The angle stage of hyper_kernel: the cosine law, the angles and the row masks.

    Everything of the kernel's record but cov and vol, as a HyperAngles:
    what the cone angles, the Jacobian and hyper_volume_stage read.  closed
    marks the rows whose covolume hyper_volume_stage gives in closed form,
    finite and from the row's angles and lengths alone: not beyond the
    cosine law's range (NaN phi and angles here) and not in the near-wall
    band, whose integral may fail.  Non-finite input is a DomainError.
    """
    lp = np.maximum(_check_batch(l), 0.0)
    ph, c, e, face, den, bad = _cosine_law(lp)
    if bad is not None:  # angles 0 until the end: _regions and max see no NaN
        ph[bad] = 1.0
    a = _angles(ph)
    smooth, closed = np.ones((2, len(lp)), dtype=bool)
    if a.max(initial=0.0) > math.pi - _BAND:  # some row may be flat or in the band
        pair, near = _regions(ph, a)
        closed = ~near.any(axis=1)
        smooth = (pair < 0) & closed
    if bad is not None:
        ph[bad] = a[bad] = np.nan
        closed = closed & ~bad
    return HyperAngles(ph, a, lp, c, e, face, den, smooth, closed)


def hyper_volume_stage(record, tol=1e-10):
    """The volume stage of hyper_kernel: cov and vol, shape (T,), of a HyperAngles record.

    The closed form 2 vol + sum a l+ with vol = _volume(a), then the fix-ups:
    vol 0 and cov pi (l_p + l_{p+3}) on the flat rows, the band integral
    (tol its accuracy target) on the near-wall rows, and NaN on the rows
    beyond the range and those whose integral does not converge.  Each
    row's values depend on that row alone.
    """
    ph, a, lp = record.phi, record.angles, record.lengths
    bad = None
    if not record.closed.all():
        bad = np.isnan(a[:, 0])
        if bad.any():  # the angle stage's clean values, as the rows had them
            ph = np.where(bad[:, None], 1.0, ph)
            a = np.where(bad[:, None], 0.0, a)
    vol = _volume(a)
    cov = 2.0 * vol + np.einsum("ij,ij->i", a, lp)
    if a.max(initial=0.0) > math.pi - _BAND:  # some row may be flat or in the band
        pair, near = _regions(ph, a)
        flat = np.flatnonzero(pair >= 0)
        p = pair[flat]
        vol[flat] = 0.0
        cov[flat] = math.pi * (lp[flat, p] + lp[flat, p + 3])
        for t in np.flatnonzero(near.any(axis=1)):
            cov[t] = _cov_near_wall(lp[t], int(near[t].argmax()), tol)
            vol[t] = 0.5 * (cov[t] - float(a[t] @ lp[t]))
    if bad is not None:
        cov[bad] = vol[bad] = np.nan
    return cov, vol


def hyper_jacobian(kernel):
    """Jacobian of the extended dihedral angles in the lengths, shape (T, 6, 6).

    kernel is the HyperKernel of the T tetrahedra, or its angle stage
    (HyperAngles), whose cosine-law terms give the Jacobian at the point it
    evaluated.  By the chain rule through
    the cosine law, d a_s = -d phi_s / sin a_s, where phi_s = num_s /
    sqrt(F1 F2) is differentiated in c = cosh l (see _cosine_law) and
    dc/dl = e sinh l (e = 1 unless some length exceeds _SCALE_FROM).  By
    Schlaefli's formula the angles are the gradient of the covolume, so the
    Jacobian is symmetric.  It is zero on the rows and columns of clamped
    slots (l <= 0), and a zero block on flat tetrahedra and on those in the
    near-wall band, where sin a -> 0 makes the derivative blow up.
    """
    ph, lp, c, e, face, den = kernel.phi, kernel.lengths, kernel.c, kernel.e, kernel.face, kernel.den
    ca, cb, cc, ik, ih, jk, jh, kh = _gathered(c)
    eca, ecb, ecc, eik, eih, ejk, ejh, _ = _gathered(e * c)
    # half of d log F_f / d c_u on the three slots of each face f; a zero row
    dlog = np.zeros((len(lp), 4, 4))
    dlog[:, :3] = np.stack([cb * cc + eca, ca * cc + ecb, ca * cb + ecc], axis=1) / face[:, None]
    dlog = dlog.reshape(-1, 16)
    # d num_s / d c_u on the slots s, ik, ih, jk, jh and kh of slot s
    dnum = np.hstack([ik * jh + ih * jk - 2.0 * c * kh, eih + c * jh, eik + c * jk,
                      ejh + c * ih, ejk + c * ik, e * e - c * c])
    inside = np.abs(ph) < 1.0
    # 1 / sin a_s, and 0 on the slots whose angle is clamped at 0 or pi
    w = inside / np.sqrt(1.0 - np.where(inside, ph, 0.0) ** 2)
    # d a_s / d c_u = (phi_s (d log F1 + d log F2) / 2 - d num_s / den_s) / sin a_s
    jac = (dlog.take(_DLOG[0], axis=1) + dlog.take(_DLOG[1], axis=1)) * (ph * w)[:, :, None]
    jac -= dnum.take(_DNUM, axis=1) * (w / den)[:, :, None]
    sh = np.where(lp < _COSH_MAX, np.sinh(np.minimum(lp, _COSH_MAX)) * e, c)
    jac *= sh[:, None, :]
    if not kernel.smooth.all():
        jac[~kernel.smooth] = 0.0
    return jac


def _volume(a):
    """Volume of the tetrahedra with dihedral angles a, shape (T, 6), in closed form.

    With G the face Gram matrix (entries -cos of the angles), Delta = -det G,
    s = sum_p sin a_p sin a_{p+3} and delta the argument of the
    Murakami-Yano leading coefficient (see _DEN_PHASES), the two roots of
    the quadratic are exp(i theta) with theta = atan2(+-sqrt(Delta), -s) -
    delta, and vol = 1/2 |sum_k sign_k (Lambda((beta_k + theta_-) / 2) -
    Lambda((beta_k + theta_+) / 2))|.

    Near the flat pattern of pair p (pi on p and p + 3, 0 elsewhere) Delta,
    s and the leading coefficient all vanish, to orders 6, 2 and 2 in the
    distance, and their plain evaluation loses them to cancellation.  So
    everything is computed from dev, the angles with pi taken off the pair
    p whose smaller angle is largest: dev is small near that pattern, and
    each quantity becomes a sum of terms of its own order (_gram_determinant
    and _phase_sum).  The identities hold for any p, so the same arithmetic
    serves every tetrahedron.
    """
    p = np.argmax(np.minimum(a[:, :3], a[:, 3:]), axis=1)
    dev = a - _PI_ON_PAIR[p]
    sn = np.sin(dev)
    s = np.einsum("ij,ij->i", sn[:, :3], sn[:, 3:])
    # einsum and sums here and in _phase_sum, not matrix products: BLAS
    # orders a product's additions by the batch size, so a row's bits would
    # depend on the rows sharing the call
    sums = np.einsum("ij,jk->ik", dev, _PHASES_AND_BETA)
    re, im = _phase_sum(sums[:, :8])
    delta = np.arctan2(im, re)
    root = np.sqrt(np.maximum(_gram_determinant(dev), 0.0))
    theta = np.arctan2(root[:, None] * _ROOT_SIGNS, -s[:, None]) - delta[:, None]
    lam = lobachevsky_array(0.5 * (sums[:, 8:, None] + theta[:, None, :]))
    return 0.5 * np.abs(((lam[:, :, 0] - lam[:, :, 1]) * _SIGN).sum(axis=1))


def _phase_sum(eps):
    """Real and imaginary parts of sum_j _PHASE_SIGN_j exp(i eps_j), eps of shape (T, 8).

    The signs sum to zero, and so do their sums against each slot's column
    of _DEN_PHASES; hence the sum equals sum_j sign_j (exp(i eps_j) - 1)
    and its imaginary part -sum_j sign_j (eps_j - sin eps_j).  Written so,
    both parts are sums of terms of their own order, second and third in
    eps.
    """
    half = np.sin(0.5 * eps)
    re = -2.0 * (half * half * _PHASE_SIGN).sum(axis=1)
    tail = eps - np.sin(eps)
    # below 0.5 the Taylor series to the 13th power gives eps - sin eps to
    # 1e-15 relative, where the difference would cancel
    small = np.abs(eps) < 0.5
    x, x2 = eps[small], eps[small] ** 2
    series = 1.0
    for n in (156, 110, 72, 42, 20):
        series = 1.0 - x2 / n * series
    tail[small] = x * x2 / 6.0 * series
    return re, -(tail * _PHASE_SIGN).sum(axis=1)


def _gram_determinant(dev):
    """Delta = -det G from the shifted angles dev, shape (T, 6), of _volume.

    With pi taken off pair p, flipping the signs of the two faces around
    edge p + 3 turns G into J + E, where J is all ones and E has the entries
    -2 sin^2(dev/2) off the diagonal: the rank-one limit at the flat pattern
    of pair p becomes exactly J.  Subtracting the first face from the others
    leaves det G as the determinant of a 3 x 3 matrix built from E alone,
    whose entries are small near that pattern and accurate to their last
    bits.
    """
    half = np.sin(0.5 * dev.take(_SHARED, axis=1))
    e = -2.0 * half * half
    e[:, _DIAGONAL] = 0.0
    r = e[:, 0, 1:]
    m = e[:, 1:, 1:] - e[:, 1:, :1] - e[:, :1, 1:] - r[:, :, None] * r[:, None, :]
    return -np.linalg.det(m)


def _cov_near_wall(lp, p, tol):
    """cov at nonnegative lengths lp in the near-wall band of flat region p.

    Along l(t) = lp + t u with u = e_p + e_{p+3}, cov grows at the rate
    a_p + a_{p+3}.  The ray enters the closure of Omega_p, a convex set, at
    the first t* where min(phi_p, phi_{p+3}) = -1, and there
    cov = pi (l_p + l_{p+3}).  Hence cov(lp) = pi (lp_p + lp_{p+3} + 2 t*)
    minus the integral of a_p + a_{p+3} over [0, t*]; the substitution
    t = t* (1 - tau^2) turns the square-root endpoint into a smooth
    integrand.  NaN where no wall is in range or the integral misses tol.
    """
    u = np.zeros(6)
    u[[p, p + 3]] = 1.0

    def pair_phi(t):
        ph = _cosine_law((lp + t * u)[None, :])[0][0]  # NaN beyond the range, no wall
        return ph[p], ph[p + 3]

    def gap(t):
        return 1.0 + min(pair_phi(t))

    hi = 1e-3
    for _ in range(64):
        if gap(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        return math.nan
    t_star = brentq(gap, 0.0, hi, xtol=1e-15)

    def integrand(tau):
        ph = pair_phi(t_star * (1.0 - tau * tau))
        return 2.0 * t_star * tau * sum(math.acos(min(1.0, max(-1.0, v))) for v in ph)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(integrand, 0.0, 1.0, epsabs=tol, epsrel=1e-13, limit=100)
    if abserr > 50.0 * tol:
        return math.nan
    return math.pi * (lp[p] + lp[p + 3] + 2.0 * t_star) - value


def _angle_types(a):
    """Vertex sums (T, 4) and the type-I and type-II rows of angle vectors a, shape (T, 6)."""
    sums = a[:, VERTEX_SLOTS].sum(axis=2)
    type_2 = (np.abs(a[:, None, :] - _PI_ON_PAIR) <= _ANGLE_TOL).all(axis=2).any(axis=1)
    return sums, (sums < math.pi).all(axis=1), type_2


def classify_angles(a):
    """Type I / II / III classification of an angle vector in closure(B).

    Type I: every vertex sum strictly below pi.  Type II: pi on one opposite
    pair and 0 elsewhere (within _ANGLE_TOL).  Type III: everything else.
    Raises DomainError when a is not in closure(B) beyond _ANGLE_TOL.
    """
    vals = _check_six(a, "dihedral angles")
    if min(vals) < -_ANGLE_TOL:
        raise DomainError(f"angles must be nonnegative, got {vals}")
    sums, type_1, type_2 = _angle_types(np.array([vals]))
    if sums.max() > math.pi + _ANGLE_TOL:
        raise DomainError(f"vertex angle sums must be at most pi, got {tuple(sums[0].tolist())}")
    return "type_I" if type_1[0] else "type_II" if type_2[0] else "type_III"


def psi(a):
    """Inverse cosine-law values for a type-I angle vector.

    psi_s(a) >= 1 is the cosh of the edge length of the realizing
    tetrahedron; psi_s = 1 exactly when a_s = 0.  Raises DomainError for
    type II/III input.
    """
    vals = _check_six(a, "dihedral angles")
    if classify_angles(vals) != "type_I":
        raise DomainError(f"psi requires a type-I angle vector, got {vals}")
    c = [math.cos(v) for v in vals]
    s2 = [math.sin(v) ** 2 for v in vals]
    vert_d = []
    for s1, s2_, s3 in VERTEX_SLOTS:
        c1, c2, c3 = c[s1], c[s2_], c[s3]
        vert_d.append(2.0 * c1 * c2 * c3 + c1 * c1 + c2 * c2 + c3 * c3 - 1.0)
    out = []
    for s in range(6):
        ik, ih, jk, jh, kh, _, _ = _SLOT_TABLE[s]
        i, j = EDGE_VERTICES[s]
        num = (
            s2[s] * c[kh]
            + c[ik] * c[jk]
            + c[ih] * c[jh]
            + c[s] * (c[ik] * c[jh] + c[ih] * c[jk])
        )
        den = vert_d[i] * vert_d[j]
        if den <= 0.0:
            raise DomainError(
                f"vertex sums too close to pi for a stable length (angles {vals})"
            )
        out.append(num / math.sqrt(den))
    return tuple(out)


def _segment_knots(start, end, scan=64):
    """Interior parameters where the integrand of mu kinks along a segment.

    Collects sign crossings of each coordinate and, on a scan grid refined
    by bisection, crossings of each phi_s through +/-1.  The knots only
    accelerate the adaptive quadrature; a missed tangential crossing costs
    accuracy locally, never correctness, because the integrand stays
    continuous.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    d = end - start
    knots = set()
    for e in range(6):
        if (start[e] > 0.0) != (end[e] > 0.0) and d[e] != 0.0:
            t = start[e] / (start[e] - end[e])
            if 1e-12 < t < 1.0 - 1e-12:
                knots.add(t)
    ts = np.linspace(0.0, 1.0, scan + 1)
    vals = _phi(np.maximum(start + ts[:, None] * d, 0.0))
    for s in range(6):
        for level in (1.0, -1.0):
            g = vals[:, s] - level
            for idx in range(scan):
                if g[idx] == 0.0 or g[idx] * g[idx + 1] >= 0.0:
                    continue
                f = lambda t: _phi(np.maximum(start + t * d, 0.0)[None, :])[0, s] - level
                try:
                    root = brentq(f, ts[idx], ts[idx + 1], xtol=1e-13)
                except ValueError:
                    continue
                if 1e-12 < root < 1.0 - 1e-12:
                    knots.add(root)
    # crossings of several phi walls coincide on the flat-region boundary;
    # merge near-duplicates or QUADPACK gets degenerate subintervals
    merged = []
    for t in sorted(knots):
        if not merged or t - merged[-1] > 1e-9:
            merged.append(t)
    return merged


def mu_segment_integral(start, end, tol=1e-10):
    """Line integral of mu = sum_s a_s dl_s along the straight segment.

    The 1-form is closed, so together with COV_AT_ORIGIN these increments
    determine the extended covolume along any polygonal path.  This is the
    independent oracle for the closed-form covolume; it shares only the
    angle map with it.  Raises NumericalError when the adaptive quadrature
    cannot certify tol.
    """
    start = np.asarray(_check_six(start), dtype=float)
    end = np.asarray(_check_six(end), dtype=float)
    d = end - start
    if not d.any():
        return 0.0

    def integrand(t):
        a = hyper_angles_from_lengths(start + t * d)
        return float(np.dot(a, d))

    knots = _segment_knots(start, end)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(
            integrand,
            0.0,
            1.0,
            points=knots if knots else None,
            epsabs=tol,
            epsrel=1e-13,
            limit=250,
        )
    if abserr > max(50.0 * tol, 1e-9 * max(1.0, abs(value))):
        raise NumericalError(
            f"segment quadrature did not converge: value={value}, "
            f"abserr={abserr}, requested tol={tol}, knots={knots}"
        )
    return value


def cov_hyper(l, tol=1e-10):
    """C^1 convex covolume extension at an arbitrary real 6-vector.

    The T = 1 view of hyper_kernel; tol is the accuracy target of the
    near-wall band integral.  A NaN covolume raises NumericalError.
    """
    vals = _check_six(l)
    return _evaluated(hyper_kernel([vals], tol=tol).cov[0], vals)


def vol_hyper(l, tol=1e-10):
    """Hyperbolic volume of the generalized tetrahedron with positive lengths.

    The T = 1 view of hyper_kernel: the closed form on L, 0 on the flat
    regions, and (cov(l) - sum_s a_s l_s) / 2 in the near-wall band.  A NaN
    volume raises NumericalError.
    """
    vals = _check_six(l)
    if min(vals) <= 0.0:
        raise DomainError(f"vol_hyper requires strictly positive lengths, got {vals}")
    return _evaluated(hyper_kernel([vals], tol=tol).vol[0], vals)


def _evaluated(value, vals):
    """A kernel value as a float; NumericalError where it is NaN, at the lengths vals."""
    if math.isnan(value):
        raise NumericalError(f"the kernel cannot evaluate edge lengths {vals} in double precision")
    return float(value)


def volumes_from_angles(a):
    """Volumes of T tetrahedra from angle vectors in closure(B), shape (T, 6).

    The batched volume_from_angles: type-I rows take the closed form, type-II
    rows (the flat pattern of one pair, within _ANGLE_TOL) volume 0, and the
    first type-III row raises UnsupportedAngleTypeError naming its index.
    """
    a = np.asarray(a, dtype=float)
    _, type_1, type_2 = _angle_types(a)
    bad = np.flatnonzero(~(type_1 | type_2))
    if bad.size:
        t = int(bad[0])
        raise UnsupportedAngleTypeError(f"tetrahedron {t} carries a type-III angle vector {a[t]}")
    vol = np.zeros(len(a))
    vol[type_1] = _volume(a[type_1])
    return vol


def volume_from_angles(a):
    """Volume of the tetrahedron realizing an angle vector in closure(B).

    Type I: the closed form evaluated on the angles themselves, which covers
    zero angles as well and stays accurate up to the flat patterns (see
    _volume).  Type II is flat with volume 0.  Type III has no supported
    evaluation.
    """
    vals = _check_six(a, "dihedral angles")
    kind = classify_angles(vals)
    if kind == "type_II":
        return 0.0
    if kind == "type_III":
        raise UnsupportedAngleTypeError(
            f"volume is not evaluated at type-III angle vectors: {vals}"
        )
    return float(_volume(np.array([vals]))[0])
