"""Triangulated compact pseudo 3-manifolds: gluing, edge/vertex classes, gauge.

A complex is a disjoint union of abstract tetrahedra with some faces glued
in pairs by affine maps.  Face f of a tetrahedron is the face opposite
vertex f; a gluing records the images of that face's vertices (listed in
increasing order) in the target tetrahedron.  GluingSpec holds the gluings
as one (G, 7) integer table with columns tet, face, to_tet, to_face and
perm[0..2], and build_complex checks and glues them in whole-table array
passes.  Edges and vertices of the complex are the equivalence classes of
the per-tetrahedron edge slots and vertices generated by the gluings, found
as connected components; classes get stable 0-based ids ordered by their
least (tet, slot) instance so rebuilds and permuted inputs agree.  The
arrays edge_index and vertex_index hold a complex's classes; the tuples
Complex.edge_classes and vertex_classes list them and are built from those
arrays when first read.

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
gauge_matrix returns that linear map B; gauge_project removes the gauge
component, the fit B w with w = (B^T B)^-1 B^T x of the normal equations.

A complex never changes once built, so what is computed from it alone is
computed once: the class tuples are cached properties, and Complex._derive
keeps the arrays the solvers derive from it (the Newton pattern, the
vertex sums, the copies' slot numbering, the gauge projector's matrices) on
the complex, made on first use and read-only.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import DomainError, GluingError
from .hyperideal import EDGE_VERTICES

__all__ = [
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
_PACK = np.array([16, 4, 1])  # three vertices as one integer


def _reached(code, f, ends):
    """Where a gluing of face f whose images pack to code sends the slot of edge ends, or vertex ends[0]."""
    images = tuple((code >> 4 - 2 * (v - (v > f))) & 3 for v in ends)
    return _SLOT[images] if len(images) == 2 else images[0]


# a tet's 24 class-graph links, one through each face holding a slot (2 s, 2 s + 1) or vertex
# (12 + 3 v ...); _LINK_IMAGES[code, j] is where link j leads under a face gluing packed as code
_LINK_ENDS = [(f, e) for e in EDGE_VERTICES for f in range(4) if f not in e]
_LINK_ENDS += [(f, (v,)) for v in range(4) for f in range(4) if f != v]
_LINK_FACES = np.array([f for f, _ in _LINK_ENDS])
_LINK_IMAGES = np.int32([[_reached(c, f, e) for f, e in _LINK_ENDS] for c in range(64)])
_LINK_TETS = np.repeat(np.int32([6, 4]), 12)  # a tet's stride among the slot nodes, the vertex nodes


@dataclass(frozen=True, eq=False)
class GluingSpec:
    tetrahedra: int
    gluings: np.ndarray  # shape (G, 7): tet, face, to_tet, to_face, perm[0..2]

    @classmethod
    def from_dict(cls, data):
        try:
            n = data["tets"]
            rows = [
                (g["tet"], g["face"], g["to_tet"], g["to_face"], *g["perm"])
                for g in data["gluings"]
            ]
        except (KeyError, TypeError) as exc:
            raise GluingError(f"malformed triangulation data: {exc}") from exc
        # JSON's true and false would read as 1 and 0, its floats and strings
        # as truncated ints
        if type(n) is not int:
            raise GluingError(f"tets must be a JSON integer, got {n!r}")
        flat = list(chain.from_iterable(rows))
        if set(map(len, rows)) - {7} or set(map(type, flat)) - {int}:
            i = next(i for i, r in enumerate(rows) if len(r) != 7 or set(map(type, r)) - {int})
            raise GluingError(f"gluing {i} is not four JSON integers and a perm of 3: {rows[i]}")
        try:
            return cls(int(np.int64(n)), np.fromiter(flat, np.int64, len(flat)).reshape(-1, 7))
        except OverflowError as exc:
            raise GluingError(f"a triangulation integer does not fit 64 bits: {exc}") from exc


def load_triangulation(path):
    """Read a GluingSpec from the JSON triangulation format, which is UTF-8 text."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return GluingSpec.from_dict(data)


def _instances(index):
    """The classes of an (n_tets, width) array of class ids, by id, each a
    tuple of its (tet, local index) pairs in ascending order."""
    ids = index.ravel()
    tets, local = np.divmod(np.argsort(ids, kind="stable"), index.shape[1])
    pairs = list(zip(tets.tolist(), local.tolist()))
    bounds = [0, *np.cumsum(np.bincount(ids)).tolist()]
    return tuple(tuple(pairs[i:j]) for i, j in zip(bounds[:-1], bounds[1:]))


@dataclass(eq=False)
class Complex:
    """A built pseudo 3-manifold; immutable once constructed."""

    n_tets: int
    edge_index: np.ndarray  # shape (n_tets, 6), edge class id of each slot
    vertex_index: np.ndarray  # shape (n_tets, 4)
    edge_boundary: np.ndarray  # shape (E,), bool per edge class
    closed: bool
    edge_endpoints: np.ndarray  # shape (E, 2), sorted vertex class ids per edge class
    incidence: csr_array  # shape (E, 6 n_tets), 1 at (edge_index[t, s], 6t + s)

    @property
    def num_edges(self):
        return self.edge_endpoints.shape[0]

    @cached_property
    def num_vertices(self):
        return int(self.vertex_index.max()) + 1

    @cached_property
    def edge_classes(self):
        """Tuple of tuples of (tet, slot) instances, one per edge class."""
        return _instances(self.edge_index)

    @cached_property
    def vertex_classes(self):
        """Tuple of tuples of (tet, vertex) instances, one per vertex class."""
        return _instances(self.vertex_index)

    def _derive(self, build, *args):
        """build(self, *args), made on the first call with these arguments and kept.

        For what a caller computes from the complex alone and would otherwise
        rebuild at every call.  The arrays of the result, alone or in a
        tuple, are made read-only, since every later call shares them.
        """
        memo = self.__dict__.setdefault("_derived", {})
        key = (build, *args)
        if key not in memo:
            value = build(self, *args)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            memo[key] = value
        return memo[key]


def _refuse(table, bad, what):
    """Raise GluingError for the first gluing flagged in bad."""
    if bad.any():
        i = int(np.argmax(bad))
        t, f, to_t, to_f, *perm = table[i].tolist()
        raise GluingError(f"{what} in gluing {i}: tet {t} face {f} -> {to_t} face {to_f}, {perm}")


def _registry(spec):
    """Check every gluing; return the (n_tets, 4) registry of the faces' gluings and the glued mask."""
    n, g = spec.tetrahedra, spec.gluings
    if n <= 0:
        raise GluingError("a complex needs at least one tetrahedron")
    if n >= 1 << 55:  # the registry's int64 values 64 (4 t + f) + perm would overflow
        raise GluingError(f"a complex has fewer than 2^55 tetrahedra, got {n}")
    # column by column: numpy loops over the rows of a sort or reduction only 3 wide
    t, f, to_t, to_f, p0, p1, p2 = g.T
    out = (t < 0) | (t >= n) | (f < 0) | (f > 3) | (to_t < 0) | (to_t >= n) | (to_f < 0) | (to_f > 3)
    _refuse(g, out, "tet/face index out of range")
    lo, hi = np.minimum(p0, p1), np.maximum(p0, p1)  # a sorting network on the perm
    mid = np.minimum(np.maximum(lo, p2), hi)
    v0, v1, v2 = _FACE_VERTICES.T.take(to_f, axis=1)
    onto = (np.minimum(lo, p2) == v0) & (mid == v1) & (np.maximum(hi, p2) == v2)
    _refuse(g, ~onto, "perm is not a bijection onto the vertices of to_face")
    key, target = 4 * t + f, 4 * to_t + to_f
    pair = key != target
    s0, s1, s2 = _FACE_VERTICES.T.take(f, axis=1)
    _refuse(g, ~pair & ((p0 == s0) | (p1 == s1) | (p2 == s2)), "self-gluing fixes a vertex")

    # the registry: each gluing registers its face with 64 times the target face's key
    # 4 * tet + face plus the images p_i of the face's vertices s_i packed by _PACK, and the
    # target face with the reverse gluing, which sends p_i, the (p_i - (p_i > to_face))-th
    # vertex of the target face, back to s_i; an unglued face keeps the identity onto itself
    reverse = s0 * _PACK[p0 - (p0 > to_f)] + s1 * _PACK[p1 - (p1 > to_f)] + s2 * _PACK[p2 - (p2 > to_f)]
    keys = np.concatenate([key, target[pair]])
    values = 64 * np.concatenate([target, key[pair]])
    values += np.concatenate([16 * p0 + 4 * p1 + p2, reverse[pair]])
    unglued = 64 * np.arange(4 * n) + np.tile(_FACE_VERTICES @ _PACK, n)
    registry = unglued.copy()
    registry[keys] = values  # keeps one registration of each face
    # every registration of a face must agree with the kept one: the same
    # value, or, for a self-glued face, the same target, since such a face
    # fixes no vertex, so its perm is one of the face's two 3-cycles, each
    # the inverse of the other, and it may be listed with either
    kept = registry[keys]
    clash = (kept >> 6 != values >> 6) | ((kept != values) & (values >> 6 != keys))
    if clash.any():
        face = int(keys[np.argmax(clash)])
        raise GluingError(f"face {divmod(face, 4)} glued twice inconsistently")
    return registry.reshape(n, 4), (registry != unglued).reshape(n, 4)


def build_complex(spec):
    """Glue the tetrahedra of a GluingSpec into a Complex.

    Raises GluingError for malformed specifications.  Unglued faces are
    allowed; they make the complex non-closed and flag their edges as
    boundary.
    """
    registry, glued = _registry(spec)
    n = spec.tetrahedra

    # one graph: the 6n slots 6t + s, then the 4n vertices 6n + 4t + v, each linked
    # through every face holding it to its image under the face's registered gluing,
    # in rows of 2 links per slot and 3 per vertex, node numbers in 32 bits while they
    # fit.  connected_components numbers the components by their least node, so the
    # slot classes come first, in the order of their least instance.
    index = np.int32 if 24 * n < np.iinfo(np.int32).max else np.int64
    partner, image = (registry >> 8).astype(index), registry & 63
    links = _LINK_TETS * partner[:, _LINK_FACES] + _LINK_IMAGES[image[:, _LINK_FACES], np.arange(24)]
    links[:, 12:] += 6 * n
    indptr = np.concatenate([np.arange(0, 12 * n, 2, index), np.arange(12 * n, 24 * n + 1, 3, index)])
    heads = np.concatenate([links[:, :12].ravel(), links[:, 12:].ravel()])
    graph = csr_array((np.ones(24 * n), heads, indptr), (10 * n, 10 * n))
    labels = connected_components(graph, directed=False)[1]
    slot_id = labels[: 6 * n]
    num_edges = int(slot_id.max()) + 1
    vertex_id = labels[6 * n :] - num_edges

    # the slots by class, ascending within each class (the pairs of class and
    # slot are distinct, so any sort of them is stable), and each class's offset
    edge_order = np.argsort(slot_id.astype(np.int64) * (6 * n) + np.arange(6 * n))
    edge_starts = np.zeros(num_edges + 1, dtype=np.intp)
    np.cumsum(np.bincount(slot_id), out=edge_starts[1:])
    incidence = csr_array((np.ones(6 * n), edge_order, edge_starts), shape=(num_edges, 6 * n))

    open_slot = ~(glued[:, _LINK_FACES[0:12:2]] & glued[:, _LINK_FACES[1:12:2]])
    boundary = np.bincount(slot_id, weights=open_slot.ravel(), minlength=num_edges) > 0

    vertex_index = vertex_id.reshape(n, 4)
    u, v = (vertex_index[:, _EDGE_VERTICES[:, i]].ravel() for i in (0, 1))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    endpoints = np.column_stack([lo, hi])[edge_order[edge_starts[:-1]]]
    bad = (lo != endpoints[:, 0][slot_id]) | (hi != endpoints[:, 1][slot_id])
    if bad.any():
        members = np.flatnonzero(slot_id == slot_id[bad].min())
        instances = tuple(divmod(i, 6) for i in members.tolist())
        found = set(zip(lo[members].tolist(), hi[members].tolist()))
        raise GluingError(f"edge class {instances} has inconsistent endpoints {found}")

    return Complex(
        n_tets=n,
        edge_index=slot_id.reshape(n, 6),
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
    """Act on an edge vector by a vertex vector: (w + x)(e) = w(u) + w(v) + x(e).

    DomainError unless w has one entry per vertex class and x one per edge.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.shape != (c.num_vertices,) or x.shape != (c.num_edges,):
        raise DomainError(
            f"gauge_apply needs w of shape ({c.num_vertices},) and x of shape "
            f"({c.num_edges},), got {w.shape} and {x.shape}"
        )
    return x + (w[c.edge_endpoints[:, 0]] + w[c.edge_endpoints[:, 1]])


def _gauge_fit(c):
    """B and B (B^T B)^-1, whose product with x^T is the fit of x; B has full column rank."""
    b = gauge_matrix(c)
    return b, b @ np.linalg.inv(b.T @ b)


def gauge_project(c, x):
    """Remove the gauge component: x minus its least-squares fit B w in col(B).

    w = (B^T B)^-1 B^T x solves the normal equations; B and B (B^T B)^-1
    are made once per complex, so a projection is two matrix products.  The
    result is orthogonal to col(B); applying the projection twice is a
    no-op.  Two edge vectors describe the same decorated metric up to change
    of decoration exactly when their projections agree.  x is one edge
    vector, or an array (m, E) of them, one per row.
    """
    b, fit = c._derive(_gauge_fit)
    x = np.asarray(x, dtype=float)
    return x - (x @ fit) @ b.T
