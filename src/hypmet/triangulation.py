"""Triangulated compact pseudo 3-manifolds: gluing, edge/vertex classes, gauge.

A complex is a disjoint union of abstract tetrahedra with some faces glued
in pairs by affine maps.  Face f of a tetrahedron is the face opposite
vertex f; a gluing records the images of that face's vertices (listed in
increasing order) in the target tetrahedron.  Edges and vertices of the
complex are the equivalence classes of the per-tetrahedron edge slots and
vertices generated by the gluings, found as connected components; classes
get stable 0-based ids ordered by their least (tet, slot) instance so
rebuilds and permuted inputs agree.

Edge slots inside each tetrahedron follow the opposite-pair convention of
the kernels: slots s and s+3 are opposite (see hyperideal.EDGE_VERTICES).
Cone-angle style sums always run over edge *instances*, so an edge class
meeting the same tetrahedron several times is counted with multiplicity.
Complex.incidence is the E x 6T sparse matrix of those sums, a 1 at
(edge class of slot (t, s), 6t + s), with the columns of each row in
ascending order, so incidence @ a.ravel() adds the instances in (tet, slot)
order.

The decoration gauge: a vector w of reals on vertex classes acts on edge
vectors by adding the endpoint values, w(v) + w(v') (twice w(v) on loops).
gauge_matrix returns that linear map; gauge_project removes the gauge
component by least squares.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import connected_components

from .errors import GluingError
from .hyperideal import EDGE_VERTICES

__all__ = [
    "Gluing",
    "GluingSpec",
    "Complex",
    "build_complex",
    "load_triangulation",
    "gauge_matrix",
    "gauge_apply",
    "gauge_project",
]

FACE_VERTICES = tuple(tuple(v for v in range(4) if v != f) for f in range(4))

_FACE_VERTICES = np.array(FACE_VERTICES)
_EDGE_VERTICES = np.array(EDGE_VERTICES)
_SLOT = np.zeros((4, 4), dtype=np.intp)  # slot of the edge between two vertices
_SLOT[_EDGE_VERTICES[:, 0], _EDGE_VERTICES[:, 1]] = np.arange(6)
_SLOT[_EDGE_VERTICES[:, 1], _EDGE_VERTICES[:, 0]] = np.arange(6)
# the two faces that contain each slot: those opposite the other two vertices
_SLOT_FACES = np.array([[f for f in range(4) if f not in e] for e in EDGE_VERTICES])


@dataclass(frozen=True)
class Gluing:
    """One face identification; the reverse identification is implied."""

    tet: int
    face: int
    to_tet: int
    to_face: int
    perm: tuple  # images of the face's vertices, listed in increasing source order


@dataclass(frozen=True)
class GluingSpec:
    tetrahedra: int
    gluings: tuple

    @classmethod
    def from_dict(cls, data):
        try:
            n = int(data["tets"])
            gluings = tuple(
                Gluing(
                    int(g["tet"]),
                    int(g["face"]),
                    int(g["to_tet"]),
                    int(g["to_face"]),
                    tuple(int(v) for v in g["perm"]),
                )
                for g in data["gluings"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GluingError(f"malformed triangulation data: {exc}") from exc
        return cls(n, gluings)


def load_triangulation(path):
    """Read a GluingSpec from the JSON triangulation format, which is UTF-8 text."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return GluingSpec.from_dict(data)


@dataclass
class Complex:
    """A built pseudo 3-manifold; immutable once constructed."""

    n_tets: int
    edge_classes: tuple  # tuple of tuples of (tet, slot) instances
    vertex_classes: tuple  # tuple of tuples of (tet, vertex) instances
    edge_index: np.ndarray  # shape (n_tets, 6), edge class id of each slot
    vertex_index: np.ndarray  # shape (n_tets, 4)
    edge_boundary: np.ndarray  # shape (E,), bool per edge class
    closed: bool
    edge_endpoints: np.ndarray  # shape (E, 2), sorted vertex class ids per edge class
    incidence: csr_array  # shape (E, 6 n_tets), 1 at (edge_index[t, s], 6t + s)

    @property
    def num_edges(self):
        return len(self.edge_classes)

    @property
    def num_vertices(self):
        return len(self.vertex_classes)


def _validate_and_register(spec):
    if spec.tetrahedra <= 0:
        raise GluingError("a complex needs at least one tetrahedron")
    registry = {}

    def register(tet, face, to_tet, to_face, perm):
        key = (tet, face)
        value = (to_tet, to_face, perm)
        if key in registry:
            if registry[key] != value and not (
                key == (to_tet, to_face) and _is_inverse_self(registry[key], value)
            ):
                raise GluingError(f"face {key} glued twice inconsistently")
            return
        registry[key] = value

    for g in spec.gluings:
        for t, f in ((g.tet, g.face), (g.to_tet, g.to_face)):
            if not (0 <= t < spec.tetrahedra and 0 <= f < 4):
                raise GluingError(f"tet/face index out of range in {g}")
        src = FACE_VERTICES[g.face]
        dst = FACE_VERTICES[g.to_face]
        if len(g.perm) != 3 or sorted(g.perm) != list(dst):
            raise GluingError(
                f"perm {g.perm} is not a bijection onto the vertices {dst} of "
                f"face {g.to_face}"
            )
        if (g.tet, g.face) == (g.to_tet, g.to_face):
            if any(a == b for a, b in zip(src, g.perm)):
                raise GluingError(
                    f"self-gluing of face {(g.tet, g.face)} fixes a vertex: {g.perm}"
                )
            register(g.tet, g.face, g.to_tet, g.to_face, g.perm)
            continue
        register(g.tet, g.face, g.to_tet, g.to_face, g.perm)
        inverse = tuple(
            src[g.perm.index(v)] for v in dst
        )  # images of dst vertices in increasing order
        register(g.to_tet, g.to_face, g.tet, g.face, inverse)
    return registry


def _is_inverse_self(a, b):
    # two registrations of a self-glued face may be mutually inverse 3-cycles
    (ta, fa, pa), (tb, fb, pb) = a, b
    if (ta, fa) != (tb, fb):
        return False
    src = FACE_VERTICES[fa]
    fwd = dict(zip(src, pa))
    bwd = dict(zip(src, pb))
    return all(bwd[fwd[v]] == v for v in src)


def _classes(labels, width):
    """Nodes ordered by class label, ascending within each class; the offset
    of each class in that order; the classes as tuples of (tet, local index)
    pairs, for nodes numbered width * tet + local index."""
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels))[:-1]))
    pairs = list(zip((order // width).tolist(), (order % width).tolist()))
    bounds = starts.tolist() + [order.size]
    return order, starts, tuple(tuple(pairs[i:j]) for i, j in zip(bounds[:-1], bounds[1:]))


def build_complex(spec):
    """Glue the tetrahedra of a GluingSpec into a Complex.

    Raises GluingError for malformed specifications.  Unglued faces are
    allowed; they make the complex non-closed and flag their edges as
    boundary.
    """
    registry = _validate_and_register(spec)
    n = spec.tetrahedra

    # one row per glued face: its tet and face, the target tet and the
    # images of the face's vertices
    src = np.array(list(registry), dtype=np.intp).reshape(-1, 2)
    dst = np.array([(t, *p) for t, _, p in registry.values()], dtype=np.intp).reshape(-1, 4)
    fv, image = _FACE_VERTICES[src[:, 1]], dst[:, 1:]
    a, b = [0, 0, 1], [1, 2, 2]  # the face's three edges, as positions in fv
    # one graph: the 6n slots 6t + s, then the 4n vertices 6n + 4t + v.
    # connected_components numbers the components by their least node, so
    # the slot classes come first, in the order of their least instance.
    tails, heads = (
        np.hstack([6 * t[:, :1] + _SLOT[v[:, a], v[:, b]], 6 * n + 4 * t[:, :1] + v]).ravel()
        for t, v in ((src, fv), (dst, image))
    )
    graph = coo_array((np.ones(tails.size), (tails, heads)), shape=(10 * n, 10 * n))
    labels = connected_components(graph, directed=False)[1]
    slot_id = labels[: 6 * n]
    num_edges = int(slot_id.max()) + 1
    vertex_id = labels[6 * n :] - num_edges

    edge_order, edge_starts, edge_classes = _classes(slot_id, 6)
    vertex_classes = _classes(vertex_id, 4)[2]
    edge_index = slot_id.reshape(n, 6)
    vertex_index = vertex_id.reshape(n, 4)
    incidence = csr_array(
        (np.ones(6 * n), edge_order, np.append(edge_starts, 6 * n)), shape=(num_edges, 6 * n)
    )

    glued = np.zeros((n, 4), dtype=bool)
    glued[src[:, 0], src[:, 1]] = True
    open_slot = ~glued[:, _SLOT_FACES].all(axis=2)
    boundary = np.bincount(slot_id, weights=open_slot.ravel(), minlength=num_edges) > 0

    ends = np.sort(vertex_index[:, _EDGE_VERTICES], axis=2).reshape(-1, 2)
    endpoints = ends[edge_order[edge_starts]]
    bad = np.any(ends != endpoints[slot_id], axis=1)
    if bad.any():
        eid = int(slot_id[bad].min())
        found = {tuple(e) for e in ends[slot_id == eid].tolist()}
        raise GluingError(f"edge class {edge_classes[eid]} has inconsistent endpoints {found}")

    return Complex(
        n_tets=n,
        edge_classes=edge_classes,
        vertex_classes=vertex_classes,
        edge_index=edge_index,
        vertex_index=vertex_index,
        edge_boundary=boundary,
        closed=bool(glued.all()),
        edge_endpoints=endpoints,
        incidence=incidence,
    )


def gauge_matrix(c):
    """The linear map B: R^V -> R^E with B[e, v] = endpoints of e in class v."""
    b = np.zeros((c.num_edges, c.num_vertices))
    rows = np.arange(c.num_edges)
    b[rows, c.edge_endpoints[:, 0]] += 1.0
    b[rows, c.edge_endpoints[:, 1]] += 1.0
    return b


def gauge_apply(c, w, x):
    """Act on an edge vector by a vertex vector: (w + x)(e) = w(u) + w(v) + x(e)."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    return x + (w[c.edge_endpoints[:, 0]] + w[c.edge_endpoints[:, 1]])


def gauge_project(c, x):
    """Remove the gauge component: x minus its least-squares fit in col(B).

    The result is orthogonal to col(B); applying the projection twice is a
    no-op.  Two edge vectors describe the same decorated metric up to change
    of decoration exactly when their projections agree.  x is one edge
    vector, or an array (m, E) of them, one per row, fitted in one
    least-squares call.
    """
    b = gauge_matrix(c)
    x = np.asarray(x, dtype=float)
    w, *_ = np.linalg.lstsq(b, x.T, rcond=None)
    return x - (b @ w).T
