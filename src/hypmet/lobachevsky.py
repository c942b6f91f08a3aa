"""The Lobachevsky function, the volume primitive of hyperbolic tetrahedra.

Lambda(x) = -integral_0^x log|2 sin t| dt.  It is odd, pi-periodic, and
analytic away from multiples of pi.  Every volume formula in this package
reduces to sums of Lambda values, so this evaluator targets absolute error
below 1e-12 on all finite inputs.

Evaluation strategy: reduce the argument to [-pi/2, pi/2] using the exact
period/oddness symmetries, then evaluate the Clausen-style local expansion

    Lambda(x) = x - x*log(2x) + sum_{n>=1} c_n x^(2n+1),
    c_n = 4^n |B_{2n}| / (2n (2n+1) (2n)!),

whose term ratio is (x/pi)^2 <= 1/4 on the reduced interval, so roughly
25 terms reach full double precision.  The Bernoulli coefficients are
generated exactly with rationals at import time.  `lobachevsky` evaluates
one float; `lobachevsky_array` evaluates the same expansion elementwise on
a numpy array, for the batched ideal and hyper-ideal kernels.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = ["lobachevsky", "lobachevsky_array"]


def _bernoulli_even(count):
    """First `count` even-index Bernoulli numbers B_2, B_4, ... as Fractions."""
    m = 2 * count + 1
    b = [Fraction(0)] * m
    b[0] = Fraction(1)
    for n in range(1, m):
        # sum_{k=0}^{n} C(n+1, k) B_k = 0
        acc = Fraction(0)
        binom = 1
        for k in range(n):
            acc += binom * b[k]
            binom = binom * (n + 1 - k) // (k + 1)
        b[n] = -acc / (n + 1)
    return [b[2 * n] for n in range(1, count + 1)]


def _series_coefficients(count=30):
    coeffs = []
    fact = Fraction(2)  # (2n)! running value, starts at 2! for n=1
    pow4 = Fraction(4)
    for n, b2n in enumerate(_bernoulli_even(count), start=1):
        if n > 1:
            fact *= (2 * n - 1) * (2 * n)
            pow4 *= 4
        c = pow4 * abs(b2n) / (2 * n * (2 * n + 1) * fact)
        coeffs.append(float(c))
    return tuple(coeffs)


_COEFFS = _series_coefficients()
_HALF_PI = 0.5 * math.pi


def _core(x):
    """Series evaluation for 0 <= x <= pi/2."""
    if x == 0.0:
        return 0.0
    total = x - x * math.log(2.0 * x)
    x2 = x * x
    p = x
    for c in _COEFFS:
        p *= x2
        term = c * p
        total += term
        if term < 1e-18 * abs(total) + 5e-19:
            break
    return total


def lobachevsky(x):
    """Evaluate Lambda(x) with absolute error below 1e-12.

    Raises DomainError for non-finite input.  The symmetries
    Lambda(-x) = -Lambda(x) and Lambda(x + pi) = Lambda(x) hold to
    machine precision by construction of the range reduction.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"lobachevsky requires a finite argument, got {x!r}")
    r = math.remainder(x, math.pi)  # exact-to-ulp reduction into [-pi/2, pi/2]
    if r < 0.0:
        return -_core(-r)
    return _core(r)


# the coefficients padded with zeros to 32, a column in bit-reversed order: each level of
# Estrin's scheme then pairs the two halves of its rows
_ESTRIN = np.pad(_COEFFS, (0, 32 - len(_COEFFS)))[[int(f"{j:05b}"[::-1], 2) for j in range(32)], None]
# lobachevsky_array's block size, in values: (16, 8192) temporaries outgrow a 2 MB L2 cache
_BLOCK = 6144


def lobachevsky_array(x):
    """Elementwise Lambda of a finite float array, with absolute error below 1e-12.

    Same expansion as `lobachevsky`, summed in full by Estrin's scheme:
    with z = a^2, the 16 pairs c_2j + c_2j+1 z are formed at once, then
    halved level by level, q_j + q_j+1 z^2, q_j + q_j+1 z^4, ..., so the
    whole sum takes 15 elementwise numpy calls whatever the size, where a
    Horner loop would take two per coefficient.  Each value depends on its
    own argument only, never on its neighbours in the array, so larger
    arrays go in blocks of _BLOCK values, which keep the (16, _BLOCK)
    temporary in cache, with the same results.  The reduction into
    [-pi/2, pi/2] is exact: fmod is exact, and so is the subtraction of pi
    from a remainder within a factor two of it.
    """
    x = np.asarray(x, dtype=float)
    if x.size <= _BLOCK:
        return _estrin(x)
    flat = x.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        out[start : start + _BLOCK] = _estrin(flat[start : start + _BLOCK])
    return out.reshape(x.shape)


def _estrin(x):
    """Lambda of a float array in one pass of the scheme lobachevsky_array describes."""
    r = np.fmod(x, math.pi)
    r = np.where(r > _HALF_PI, r - math.pi, r)
    r = np.where(r < -_HALF_PI, r + math.pi, r)
    a = np.abs(r)
    a2 = a * a
    q, z = _ESTRIN, a2.reshape(1, -1)
    while len(q) > 1:  # the sums q_j + q_j+1 z, j even, from the halves; then z squared
        low, q = q[: len(q) // 2], q[len(q) // 2 :] * z
        q += low
        z = z * z
    # a - a log(2a) -> 0 as a -> 0; the placeholder 1 keeps log away from 0
    core = a - a * np.log(2.0 * np.where(a > 0.0, a, 1.0)) + a * a2 * q.reshape(a.shape)
    return np.copysign(core, r)
