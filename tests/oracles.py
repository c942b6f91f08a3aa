"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: the Lobachevsky oracle
integrates the defining integral with adaptive quadrature (log singularity
removed analytically), the Schlaefli oracle integrates the volume 1-form in
angle space, and the finite-difference helpers probe gradients directly.
"""

import math

import numpy as np
from scipy.integrate import quad

from hypmet.hyperideal import psi


def lobachevsky_quadrature(x, tol=1e-13):
    """Adaptive-quadrature evaluation of -int_0^x log|2 sin t| dt for x in [0, pi].

    On [0, pi/2] the log singularity at 0 is removed analytically:
    -int log(2t) dt = x - x log(2x), leaving the smooth remainder
    -int log(sin t / t) dt.  Arguments past pi/2 are folded once with the
    reflection identity, which keeps the quadrature away from the
    singularity at pi.
    """
    if x < 0.0 or x > math.pi + 1e-15:
        raise ValueError("oracle domain is [0, pi]")
    if x > math.pi / 2.0:
        # int_{pi/2}^{x} log(2 sin t) dt = int_{pi-x}^{pi/2} log(2 sin u) du
        return 2.0 * lobachevsky_quadrature(math.pi / 2.0, tol) - lobachevsky_quadrature(
            math.pi - x, tol
        )
    if x == 0.0:
        return 0.0

    def smooth(t):
        if t == 0.0:
            return 0.0
        return math.log(math.sin(t) / t)

    rest, err = quad(smooth, 0.0, x, epsabs=tol, epsrel=1e-14, limit=200)
    if err > 100.0 * tol:
        raise RuntimeError(f"oracle quadrature error too large: {err}")
    return x - x * math.log(2.0 * x) - rest


def central_difference(f, x, h=1e-6):
    """Componentwise central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def lengths_of_angles(a):
    """Edge lengths of the hyper-ideal tetrahedron with type-I angles a."""
    return np.array([math.acosh(max(p, 1.0)) for p in psi(tuple(a))])


def schlafli_angle_integral(a0, a1, n=400):
    """Volume difference vol(a1) - vol(a0) by integrating -1/2 sum l da.

    Composite Gauss-Legendre panels along the straight segment in angle
    space; both endpoints must be type-I interior.  Independent of the
    covolume path-integral route.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    d = a1 - a0
    nodes, weights = np.polynomial.legendre.leggauss(8)
    total = 0.0
    edges = np.linspace(0.0, 1.0, n + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        for t, w in zip(nodes, weights):
            lengths = lengths_of_angles(a0 + (mid + half * t) * d)
            total += w * half * (-0.5) * float(lengths @ d)
    return total


def random_positive_ideal_k(c, rng, slack=0.15):
    """Cone angles of a random strictly positive ideal assignment."""
    from hypmet.metrics import cone_angles

    alpha = rng.dirichlet((2.0, 2.0, 2.0), size=c.n_tets)
    alpha = slack / 3 + (1 - slack) * alpha
    return cone_angles(c, alpha * math.pi / alpha.sum(axis=1, keepdims=True))


def random_positive_hyper_k(c, rng, lo=0.15, hi=0.9):
    """Cone angles of a random strictly positive hyper assignment."""
    from hypmet.metrics import cone_angles

    while True:
        a = rng.uniform(lo, hi, (c.n_tets, 6))
        sums = [a[:, list(s)].sum(axis=1) for s in ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))]
        if max(s.max() for s in sums) < math.pi - 0.05:
            return cone_angles(c, a)


def sample_ideal_assignments(c, k, count, rng):
    """Random points of the ideal assignment polytope with cone angles k.

    Collects vertices by minimizing random costs with the simplex polytope
    constraints, then mixes them with Dirichlet weights.  Raises if the
    polytope is empty.
    """
    from scipy.optimize import linprog

    t_count, e_count = c.n_tets, c.num_edges
    nvar = 3 * t_count
    a_eq = np.zeros((t_count + e_count, nvar))
    b_eq = np.zeros(t_count + e_count)
    for t in range(t_count):
        a_eq[t, 3 * t : 3 * t + 3] = 1.0
        b_eq[t] = math.pi
    for eid, cls in enumerate(c.edge_classes):
        for t, s in cls:
            a_eq[t_count + eid, 3 * t + (s if s < 3 else s - 3)] += 1.0
        b_eq[t_count + eid] = k[eid]
    vertices = []
    for _ in range(max(8, count // 8)):
        cost = rng.normal(size=nvar)
        res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * nvar, method="highs")
        if res.status != 0:
            raise RuntimeError(f"assignment polytope sampling failed: {res.message}")
        vertices.append(res.x)
    vertices = np.array(vertices)
    out = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(len(vertices)))
        out.append((w @ vertices).reshape(t_count, 3))
    return out


def disjoint_union(tri, copies, rng=None):
    """`copies` unlinked copies of a triangulation dict, as one dict.

    Tetrahedron t of copy i is numbered i * T + t, then renamed by a random
    permutation when rng is given, so class ids come out in a different
    order than the copies.
    """
    tets = int(tri["tets"])
    total = copies * tets
    name = rng.permutation(total) if rng is not None else np.arange(total)
    gluings = [
        dict(g, tet=int(name[i * tets + g["tet"]]), to_tet=int(name[i * tets + g["to_tet"]]))
        for i in range(copies)
        for g in tri["gluings"]
    ]
    return {"tets": total, "gluings": gluings}


FIG8_COCYCLE = (-1, 0, -1, 0)


def cyclic_cover(tri, cocycle, n):
    """The n-fold cyclic cover of a triangulation dict, built from a face cocycle.

    Tetrahedron (t, i), i in Z/n, is numbered i * T + t; gluing g from tet t
    lifts to (t, i) -> (t', i + cocycle[g] mod n) with the same permutation.
    With FIG8_COCYCLE on the four gluings of fixtures/fig8.json every n gives
    a closed, connected cover with 2n tetrahedra, 2n edge classes of valence
    6 and one vertex class.
    """
    tets = int(tri["tets"])
    return {
        "tets": n * tets,
        "gluings": [
            dict(g, tet=i * tets + g["tet"], to_tet=((i + c) % n) * tets + g["to_tet"])
            for i in range(n)
            for g, c in zip(tri["gluings"], cocycle, strict=True)
        ],
    }
