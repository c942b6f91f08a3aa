"""Reference geometry computed without hypmet.

Each formula here takes a different route from the package's kernels, so a
benchmark check against it tests the program rather than restating it:

* ideal angles come from the Euclidean law of cosines on the sides
  exp((l_p + l_{p+3}) / 2), where hypmet uses sorted half-angle arctangents;
* hyper-ideal angles come from the hyperbolic law of cosines on the vertex
  (truncation) triangles, where hypmet uses the symmetric cosine-law phi;
* the Lobachevsky function is the quadrature of its defining integral, where
  hypmet sums a Bernoulli series;
* the regular hyper-ideal volume comes from Schlaefli's formula along the
  regular family, where hypmet integrates the covolume along a length path.

Edge slots follow the package convention 01, 02, 03, 23, 13, 12: slots s and
s + 3 are opposite.
"""

import math

from scipy.integrate import quad

EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2))
SLOT = {frozenset(e): s for s, e in enumerate(EDGE_VERTICES)}

FIG8_VOLUME = 2.0298832128193078  # 6 Lambda(pi/3), two regular ideal tetrahedra
REGULAR_HYPER_LENGTH = math.acosh(2.0)
REGULAR_HYPER_ANGLE = math.acos(2.0 / 3.0)


def ideal_angles(l):
    """Six dihedral angles of the decorated ideal tetrahedron with lengths l.

    The angle on opposite pair p is the angle opposite side x_p of the
    Euclidean triangle with sides x_p = exp((l_p + l_{p+3}) / 2).  Requires the
    strict triangle inequalities.
    """
    x = [math.exp(0.5 * (l[p] + l[p + 3])) for p in range(3)]
    out = []
    for p in range(3):
        a, b, c = x[p], x[(p + 1) % 3], x[(p + 2) % 3]
        cos_a = (b * b + c * c - a * a) / (2.0 * b * c)
        if not -1.0 < cos_a < 1.0:
            raise ValueError(f"sides {x} violate the triangle inequality")
        out.append(math.acos(cos_a))
    return tuple(out + out)


def _face_side(l, i, j, k):
    """Side at vertex i of the hexagonal face ijk: the cut between edges ij, ik."""
    lij, lik, ljk = l[SLOT[frozenset((i, j))]], l[SLOT[frozenset((i, k))]], l[SLOT[frozenset((j, k))]]
    return math.acosh(
        (math.cosh(lij) * math.cosh(lik) + math.cosh(ljk)) / (math.sinh(lij) * math.sinh(lik))
    )


def hyper_angles(l):
    """Six dihedral angles of the hyper-ideal tetrahedron with lengths l > 0.

    The dihedral angle at edge ij is the angle of the truncation triangle at
    vertex i at its corner on edge ij.  That triangle's sides are the face
    sides at i, and its corner ij lies between the sides in faces ijk and ijh.
    Requires l to be realized by a hyper-ideal tetrahedron.
    """
    out = []
    for i, j in EDGE_VERTICES:
        k, h = sorted(set(range(4)) - {i, j})
        d_ijk, d_ijh, d_ikh = _face_side(l, i, j, k), _face_side(l, i, j, h), _face_side(l, i, k, h)
        cos_a = (math.cosh(d_ijk) * math.cosh(d_ijh) - math.cosh(d_ikh)) / (
            math.sinh(d_ijk) * math.sinh(d_ijh)
        )
        if not -1.0 < cos_a < 1.0:
            raise ValueError(f"lengths {tuple(l)} are not hyper-ideal")
        out.append(math.acos(cos_a))
    return tuple(out)


def lobachevsky(x):
    """Lambda(x) = -int_0^x log|2 sin t| dt for x in [0, pi], by quadrature.

    The log singularity at 0 is removed analytically (-int log 2t = x - x log 2x);
    arguments past pi/2 are folded with Lambda(pi - x) = -Lambda(x).
    """
    if not 0.0 <= x <= math.pi:
        raise ValueError("reference domain is [0, pi]")
    if x > 0.5 * math.pi:
        return -lobachevsky(math.pi - x)
    if x == 0.0:
        return 0.0
    rest, _ = quad(lambda t: math.log(math.sin(t) / t) if t else 0.0, 0.0, x, epsabs=1e-14, epsrel=1e-14)
    return x - x * math.log(2.0 * x) - rest


def regular_hyper_volume():
    """Volume of the regular hyper-ideal tetrahedron with all lengths arccosh 2.

    Along the regular family with dihedral angle t, Schlaefli's formula
    dV = -1/2 sum l da gives dV/dt = -3 arccosh(cos t / (2 cos t - 1)); the
    family starts at the regular ideal tetrahedron (t = pi/3, volume
    3 Lambda(pi/3)) and reaches lengths arccosh 2 at t = arccos(2/3).
    """
    a = REGULAR_HYPER_ANGLE
    integral, _ = quad(
        lambda t: math.acosh(math.cos(t) / (2.0 * math.cos(t) - 1.0)),
        a,
        math.pi / 3.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return 3.0 * lobachevsky(math.pi / 3.0) + 3.0 * integral
