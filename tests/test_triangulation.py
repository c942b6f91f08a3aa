"""Complex builder: gluing combinatorics, class-id stability, the incidence
operator, gauge algebra."""

import copy
import json

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.sparse import csr_array

import hypmet.triangulation
from hypmet.errors import DomainError, GluingError
from hypmet.hyperideal import EDGE_VERTICES, SLOT_OF_EDGE
from hypmet.triangulation import (
    FACE_VERTICES,
    GluingSpec,
    build_complex,
    gauge_apply,
    gauge_matrix,
    gauge_project,
)

from oracles import FIG8_COCYCLE, cyclic_cover, disjoint_union


def doubled_spec():
    return GluingSpec.from_dict(
        {
            "tets": 2,
            "gluings": [
                {
                    "tet": 0,
                    "face": f,
                    "to_tet": 1,
                    "to_face": f,
                    "perm": [v for v in range(4) if v != f],
                }
                for f in range(4)
            ],
        }
    )


class TestBuilder:
    def test_single_unglued_tet(self, single_tet):
        assert single_tet.num_edges == 6
        assert single_tet.num_vertices == 4
        assert not single_tet.closed
        assert all(single_tet.edge_boundary)

    def test_doubled_tetrahedron(self, double_tet):
        assert double_tet.num_edges == 6
        assert double_tet.num_vertices == 4
        assert double_tet.closed
        assert all(len(cls) == 2 for cls in double_tet.edge_classes)
        assert not any(double_tet.edge_boundary)

    def test_figure_eight_census_combinatorics(self, fig8):
        assert fig8.num_edges == 2
        assert fig8.num_vertices == 1
        assert fig8.closed
        assert sorted(len(cls) for cls in fig8.edge_classes) == [6, 6]

    def test_instance_partition_is_exhaustive(self, fig8, double_tet):
        for c in (fig8, double_tet):
            instances = [inst for cls in c.edge_classes for inst in cls]
            assert sorted(instances) == [(t, s) for t in range(c.n_tets) for s in range(6)]
            assert sum(len(cls) for cls in c.edge_classes) == 6 * c.n_tets

    def test_complexes_compare_by_identity(self, fig8, double_tet):
        # their fields are arrays, which have no single truth value
        assert fig8 == fig8 and fig8 != double_tet
        assert len({fig8, double_tet, fig8}) == 2

    def test_gluing_order_does_not_change_classes(self):
        spec = doubled_spec()
        reference = build_complex(spec)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            perm = rng.permutation(len(spec.gluings))
            shuffled = GluingSpec(spec.tetrahedra, spec.gluings[perm])
            rebuilt = build_complex(shuffled)
            assert rebuilt.edge_classes == reference.edge_classes
            assert rebuilt.vertex_classes == reference.vertex_classes

    def test_reverse_direction_gives_same_complex(self, fig8, fixtures_dir):
        import json

        with open(fixtures_dir / "fig8.json") as fh:
            data = json.load(fh)
        reversed_gluings = []
        for g in data["gluings"]:
            src = [v for v in range(4) if v != g["face"]]
            dst = [v for v in range(4) if v != g["to_face"]]
            fwd = dict(zip(src, g["perm"]))
            inv = {b: a for a, b in fwd.items()}
            reversed_gluings.append(
                {
                    "tet": g["to_tet"],
                    "face": g["to_face"],
                    "to_tet": g["tet"],
                    "to_face": g["face"],
                    "perm": [inv[v] for v in dst],
                }
            )
        rebuilt = build_complex(GluingSpec.from_dict({"tets": 2, "gluings": reversed_gluings}))
        assert rebuilt.edge_classes == fig8.edge_classes
        assert rebuilt.vertex_classes == fig8.vertex_classes


class TestBuilderErrors:
    @pytest.mark.parametrize(
        "data",
        [
            {"gluings": []},
            {"tets": 2, "gluings": [{"tet": 0, "face": 0, "to_tet": 1, "to_face": 0}]},
        ],
        ids=["no_tets", "no_perm"],
    )
    def test_missing_fields(self, data):
        with pytest.raises(GluingError, match="malformed triangulation data"):
            GluingSpec.from_dict(data)

    def test_face_glued_twice(self):
        spec = GluingSpec.from_dict(
            {
                "tets": 2,
                "gluings": [
                    {"tet": 0, "face": 0, "to_tet": 1, "to_face": 0, "perm": [1, 2, 3]},
                    {"tet": 0, "face": 0, "to_tet": 1, "to_face": 1, "perm": [0, 2, 3]},
                ],
            }
        )
        with pytest.raises(GluingError):
            build_complex(spec)

    def test_bad_permutation(self):
        spec = GluingSpec.from_dict(
            {
                "tets": 2,
                "gluings": [
                    {"tet": 0, "face": 0, "to_tet": 1, "to_face": 0, "perm": [1, 2, 2]}
                ],
            }
        )
        with pytest.raises(GluingError):
            build_complex(spec)

    def test_out_of_range_indices(self):
        spec = GluingSpec.from_dict(
            {
                "tets": 1,
                "gluings": [
                    {"tet": 0, "face": 0, "to_tet": 3, "to_face": 0, "perm": [1, 2, 3]}
                ],
            }
        )
        with pytest.raises(GluingError):
            build_complex(spec)

    def test_self_gluing_with_fixed_vertex_rejected(self):
        spec = GluingSpec.from_dict(
            {
                "tets": 1,
                "gluings": [
                    {"tet": 0, "face": 0, "to_tet": 0, "to_face": 0, "perm": [1, 3, 2]}
                ],
            }
        )
        with pytest.raises(GluingError):
            build_complex(spec)

    def test_self_gluing_three_cycle_allowed(self):
        spec = GluingSpec.from_dict(
            {
                "tets": 1,
                "gluings": [
                    {"tet": 0, "face": 0, "to_tet": 0, "to_face": 0, "perm": [2, 3, 1]}
                ],
            }
        )
        c = build_complex(spec)
        # the three edges of face 0 collapse to one class
        assert c.num_edges == 4


def gluing(tet, face, to_tet, to_face, perm):
    return {"tet": tet, "face": face, "to_tet": to_tet, "to_face": to_face, "perm": perm}


def gluing_error(tets, gluings):
    with pytest.raises(GluingError) as exc:
        build_complex(GluingSpec.from_dict({"tets": tets, "gluings": gluings}))
    return str(exc.value)


class TestBuilderErrorMessages:
    """Each check names the first gluing, face or edge class that fails it."""

    @pytest.mark.parametrize(
        "tets, gluings, message",
        [
            (
                1,
                [gluing(0, 0, 3, 0, [1, 2, 3])],
                "tet/face index out of range in gluing 0: tet 0 face 0 -> 3 face 0, [1, 2, 3]",
            ),
            (
                2,
                [gluing(0, 0, 1, 0, [1, 2, 3]), gluing(0, 1, 1, 4, [0, 2, 3])],
                "tet/face index out of range in gluing 1: tet 0 face 1 -> 1 face 4, [0, 2, 3]",
            ),
            (
                2,
                [gluing(0, 0, 1, 0, [1, 2, 2])],
                "perm is not a bijection onto the vertices of to_face in gluing 0: "
                "tet 0 face 0 -> 1 face 0, [1, 2, 2]",
            ),
            (
                2,
                [gluing(0, 0, 1, 0, [0, 2, 3])],
                "perm is not a bijection onto the vertices of to_face in gluing 0: "
                "tet 0 face 0 -> 1 face 0, [0, 2, 3]",
            ),
            (
                1,
                [gluing(0, 0, 0, 0, [1, 3, 2])],
                "self-gluing fixes a vertex in gluing 0: tet 0 face 0 -> 0 face 0, [1, 3, 2]",
            ),
            (
                2,
                [gluing(0, 0, 1, 0, [1, 2, 3]), gluing(0, 0, 1, 1, [0, 2, 3])],
                "face (0, 0) glued twice inconsistently",
            ),
        ],
        ids=["to-tet", "to-face", "repeated-vertex", "to-face-vertex", "self-fixed", "twice"],
    )
    def test_message(self, tets, gluings, message):
        assert gluing_error(tets, gluings) == message

    def test_several_faults_raise_the_first_check_that_fails(self):
        # the checks run in order over the whole table: indices, perms,
        # self-gluings, then the registry of faces
        bad_perm = gluing(0, 0, 1, 0, [1, 1, 3])
        fixes = gluing(1, 1, 1, 1, [0, 2, 3])
        out = [gluing(0, 2, 5, 0, [1, 2, 3]), gluing(0, 3, -1, 0, [1, 2, 3])]
        assert gluing_error(2, [bad_perm, fixes, *out]) == (
            "tet/face index out of range in gluing 2: tet 0 face 2 -> 5 face 0, [1, 2, 3]"
        )
        twice = [gluing(0, 2, 1, 2, [0, 1, 3]), gluing(0, 2, 1, 3, [0, 1, 2])]
        assert gluing_error(2, [bad_perm, fixes, *twice]) == (
            "perm is not a bijection onto the vertices of to_face in gluing 0: "
            "tet 0 face 0 -> 1 face 0, [1, 1, 3]"
        )
        fine = gluing(0, 3, 1, 3, [0, 1, 2])
        assert gluing_error(2, [fine, fixes, *twice]) == (
            "self-gluing fixes a vertex in gluing 1: tet 1 face 1 -> 1 face 1, [0, 2, 3]"
        )
        crossed = [fine, gluing(0, 2, 1, 2, [0, 1, 3]), gluing(0, 3, 1, 2, [0, 1, 3]), twice[1]]
        assert gluing_error(2, crossed) == "face (0, 3) glued twice inconsistently"

    def test_inconsistent_endpoints(self, fixture_dicts, monkeypatch):
        # consistent gluings always give an edge class one pair of endpoint
        # classes; a labelling that merges double_tet's last edge class into
        # its first, whose endpoints differ, reaches the check
        real = hypmet.triangulation.connected_components

        def merged(graph, directed):
            count, labels = real(graph, directed=directed)
            slots = labels[: graph.shape[0] // 10 * 6]
            slots[slots == slots.max()] = 0
            return count, labels

        monkeypatch.setattr(hypmet.triangulation, "connected_components", merged)
        assert gluing_error(2, fixture_dicts["double_tet"]["gluings"]) == (
            "edge class ((0, 0), (0, 5), (1, 0), (1, 5)) has inconsistent endpoints {(2, 3), (1, 2)}"
        )


SELF_GLUED = {"tet": 0, "face": 0, "to_tet": 0, "to_face": 0, "perm": [2, 3, 1]}


class TestDuplicateSelfGluing:
    def test_listed_with_its_inverse_cycle_is_accepted(self):
        once = build_complex(GluingSpec.from_dict({"tets": 1, "gluings": [SELF_GLUED]}))
        inverse = dict(SELF_GLUED, perm=[3, 1, 2])
        for gluings in ([SELF_GLUED, inverse], [inverse, SELF_GLUED], [SELF_GLUED, SELF_GLUED]):
            twice = build_complex(GluingSpec.from_dict({"tets": 1, "gluings": gluings}))
            assert twice.edge_classes == once.edge_classes
            assert twice.vertex_classes == once.vertex_classes
            assert np.array_equal(twice.edge_boundary, once.edge_boundary)

    @pytest.mark.parametrize(
        "other",
        [dict(SELF_GLUED, perm=[1, 3, 2]), dict(SELF_GLUED, to_face=1, perm=[0, 2, 3])],
        ids=["transposition", "other-face"],
    )
    def test_listed_with_a_different_perm_raises(self, other):
        for gluings in ([SELF_GLUED, other], [other, SELF_GLUED]):
            with pytest.raises(GluingError):
                build_complex(GluingSpec.from_dict({"tets": 1, "gluings": gluings}))


class TestIntegerFields:
    """Every field of the triangulation format is a JSON integer."""

    @pytest.mark.parametrize(
        "field, value",
        [("face", 0.9), ("face", False), ("face", "0"), ("perm", "123"), ("perm", [1.0, 2.0, 3.5])],
        ids=["float-face", "bool-face", "string-face", "string-perm", "float-perm"],
    )
    def test_gluing_fields(self, fixture_dicts, field, value):
        data = copy.deepcopy(fixture_dicts["double_tet"])
        data["gluings"][0][field] = value
        with pytest.raises(GluingError, match="JSON integers"):
            build_complex(GluingSpec.from_dict(data))

    @pytest.mark.parametrize("tets", [2.7, True, "2"], ids=["float", "bool", "string"])
    def test_tets(self, fixture_dicts, tets):
        for data in (dict(fixture_dicts["double_tet"], tets=tets), {"tets": tets, "gluings": []}):
            with pytest.raises(GluingError, match="JSON integer"):
                build_complex(GluingSpec.from_dict(data))

    @pytest.mark.parametrize("tets", [0, -1])
    def test_tets_positive(self, tets):
        with pytest.raises(GluingError):
            build_complex(GluingSpec.from_dict({"tets": tets, "gluings": []}))

    @pytest.mark.parametrize("where", ["tets", "to_tet", "perm"])
    def test_beyond_64_bits(self, fixture_dicts, where):
        data = copy.deepcopy(fixture_dicts["double_tet"])
        if where == "tets":
            data["tets"] = 10**30
        elif where == "to_tet":
            data["gluings"][0]["to_tet"] = 10**30
        else:
            data["gluings"][0]["perm"] = [1, 2, 10**30]
        with pytest.raises(GluingError):
            build_complex(GluingSpec.from_dict(data))

    @pytest.mark.parametrize("tets", [2**55, 2**62, 2**63 - 1])
    def test_tets_whose_registry_values_overflow(self, fixture_dicts, tets):
        # the registry packs 64 (4 t + f) + perm into int64, which overflows
        # from 2^55 tetrahedra on: refused before any array of that size
        for data in (dict(fixture_dicts["double_tet"], tets=tets), {"tets": tets, "gluings": []}):
            with pytest.raises(GluingError, match=r"fewer than 2\^55 tetrahedra"):
                build_complex(GluingSpec.from_dict(data))

    @pytest.mark.parametrize("perm", [[1, 2], [1, 2, 3, 0]], ids=["two", "four"])
    def test_perm_lists_three_vertices(self, fixture_dicts, perm):
        data = copy.deepcopy(fixture_dicts["double_tet"])
        data["gluings"][0]["perm"] = perm
        with pytest.raises(GluingError):
            build_complex(GluingSpec.from_dict(data))

    def test_table_is_one_integer_row_per_gluing(self, fixture_dicts):
        spec = GluingSpec.from_dict(fixture_dicts["fig8"])
        assert spec.gluings.shape == (4, 7) and spec.gluings.dtype == np.int64
        rows = [
            [g["tet"], g["face"], g["to_tet"], g["to_face"], *g["perm"]]
            for g in fixture_dicts["fig8"]["gluings"]
        ]
        assert spec.gluings.tolist() == rows


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def reference_complex(tri):
    """Edge and vertex classes, boundary flags and endpoints by union-find.

    Takes a triangulation dict whose gluings are listed once per face pair;
    returns (edge_classes, vertex_classes, edge_index, vertex_index,
    edge_endpoints, edge_boundary) in build_complex's conventions.
    """
    n = tri["tets"]
    edges = _UnionFind([(t, s) for t in range(n) for s in range(6)])
    verts = _UnionFind([(t, v) for t in range(n) for v in range(4)])
    glued = set()
    for g in tri["gluings"]:
        tet, face, to_tet = g["tet"], g["face"], g["to_tet"]
        glued |= {(tet, face), (to_tet, g["to_face"])}
        vmap = dict(zip(FACE_VERTICES[face], g["perm"]))
        for u, image in vmap.items():
            verts.union((tet, u), (to_tet, image))
        fv = FACE_VERTICES[face]
        for a in range(3):
            for b in range(a + 1, 3):
                s = SLOT_OF_EDGE[frozenset((fv[a], fv[b]))]
                s2 = SLOT_OF_EDGE[frozenset((vmap[fv[a]], vmap[fv[b]]))]
                edges.union((tet, s), (to_tet, s2))
    edge_classes = tuple(tuple(cls) for cls in edges.classes())
    vertex_classes = tuple(tuple(cls) for cls in verts.classes())
    edge_index = np.empty((n, 6), dtype=int)
    for eid, cls in enumerate(edge_classes):
        for t, s in cls:
            edge_index[t, s] = eid
    vertex_of = {inst: vid for vid, cls in enumerate(vertex_classes) for inst in cls}
    vertex_index = np.array([[vertex_of[t, v] for v in range(4)] for t in range(n)])
    endpoints = []
    boundary = []
    for cls in edge_classes:
        t, s = cls[0]
        u, v = EDGE_VERTICES[s]
        endpoints.append(sorted((vertex_of[t, u], vertex_of[t, v])))
        boundary.append(
            any((t, f) not in glued for t, s in cls for f in range(4) if f not in EDGE_VERTICES[s])
        )
    return (
        edge_classes, vertex_classes, edge_index, vertex_index, np.array(endpoints), np.array(boundary)
    )


def assert_matches_reference(tri):
    c = build_complex(GluingSpec.from_dict(tri))
    edge_classes, vertex_classes, edge_index, vertex_index, endpoints, boundary = reference_complex(tri)
    assert c.edge_classes == edge_classes
    assert c.vertex_classes == vertex_classes
    assert np.array_equal(c.edge_index, edge_index)
    assert np.array_equal(c.vertex_index, vertex_index)
    assert np.array_equal(c.edge_endpoints, endpoints)
    assert np.array_equal(c.edge_boundary, boundary)
    # the incidence CSR: row e lists the instances 6t + s of edge class e, ascending
    assert np.array_equal(c.incidence.indptr, np.cumsum([0, *map(len, edge_classes)]))
    assert np.array_equal(c.incidence.indices, [6 * t + s for cls in edge_classes for t, s in cls])
    assert np.array_equal(c.incidence.data, np.ones(6 * tri["tets"]))
    assert c.closed == (2 * len(tri["gluings"]) == 4 * tri["tets"])
    return c


def relabel(tri, perm):
    """The same gluing with tetrahedron t renamed perm[t], as perfbench/covers.py does."""
    return {
        "tets": tri["tets"],
        "gluings": [
            dict(g, tet=int(perm[g["tet"]]), to_tet=int(perm[g["to_tet"]])) for g in tri["gluings"]
        ],
    }


def relabelled_fig8_cover(fig8_dict, tets, rng):
    """The cyclic cover of fig8 with `tets` tetrahedra, renamed at random."""
    return relabel(cyclic_cover(fig8_dict, FIG8_COCYCLE, tets // 2), rng.permutation(tets))


@pytest.fixture(scope="module")
def fixture_dicts(fixtures_dir):
    out = {}
    for name in ("fig8", "double_tet"):
        with open(fixtures_dir / f"{name}.json") as fh:
            out[name] = json.load(fh)
    return out


class TestBuilderAgainstUnionFind:
    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelled_unions(self, fixture_dicts, name, seed):
        tri = disjoint_union(fixture_dicts[name], 16, np.random.default_rng(seed))
        c = assert_matches_reference(tri)
        assert c.closed and c.num_edges == 16 * (2 if name == "fig8" else 6)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_unglued_faces(self, fixture_dicts, seed):
        rng = np.random.default_rng(seed)
        tri = disjoint_union(fixture_dicts["fig8"], 8, rng)
        keep = np.sort(rng.choice(len(tri["gluings"]), size=20, replace=False))
        tri = dict(tri, gluings=[tri["gluings"][i] for i in keep])
        c = assert_matches_reference(tri)
        assert not c.closed
        assert c.edge_boundary.any()

    @pytest.mark.parametrize("tets", [64, 256, 1024])
    def test_relabelled_fig8_covers(self, fixture_dicts, tets):
        tri = relabelled_fig8_cover(fixture_dicts["fig8"], tets, np.random.default_rng(tets))
        c = assert_matches_reference(tri)
        assert c.closed and c.num_edges == tets and c.num_vertices == 1

    def test_open_relabelled_cover(self, fixture_dicts):
        rng = np.random.default_rng(7)
        tri = relabelled_fig8_cover(fixture_dicts["fig8"], 64, rng)
        keep = np.sort(rng.choice(len(tri["gluings"]), size=80, replace=False))
        c = assert_matches_reference(dict(tri, gluings=[tri["gluings"][i] for i in keep]))
        assert not c.closed and c.edge_boundary.any() and not c.edge_boundary.all()

    def test_open_relabelled_cover_1024(self, fixture_dicts):
        # a quarter of the face pairs of a relabelled T = 1024 cover left open
        rng = np.random.default_rng(8)
        tri = relabelled_fig8_cover(fixture_dicts["fig8"], 1024, rng)
        keep = np.sort(rng.choice(len(tri["gluings"]), size=1536, replace=False))
        c = assert_matches_reference(dict(tri, gluings=[tri["gluings"][i] for i in keep]))
        assert not c.closed and c.edge_boundary.any() and not c.edge_boundary.all()

    def test_single_tet_and_self_gluing(self):
        assert_matches_reference({"tets": 1, "gluings": []})
        self_glued = {"tet": 0, "face": 0, "to_tet": 0, "to_face": 0, "perm": [2, 3, 1]}
        assert_matches_reference({"tets": 1, "gluings": [self_glued]})


def fold(n_tets):
    """The 6T x 3T map from slot 6t + s to quad 3t + (s mod 3)."""
    slots = np.arange(6 * n_tets)
    quads = 3 * (slots // 6) + slots % 3
    return csr_array((np.ones(6 * n_tets), (slots, quads)), shape=(6 * n_tets, 3 * n_tets))


class TestQuadIncidence:
    def test_multiplicity_counts_instances(self, fig8):
        # every quad-edge multiplicity is 0, 1 or 2 and each quad's column sums to 2
        quad_edge = (fig8.incidence @ fold(fig8.n_tets)).toarray()
        assert set(np.unique(quad_edge)) <= {0.0, 1.0, 2.0}
        assert np.all(quad_edge.sum(axis=0) == 2)

    def test_fig8_each_edge_has_six_incidences(self, fig8):
        assert np.all(fig8.incidence.sum(axis=1) == 6)

    def test_rows_list_the_edge_classes(self, fig8, double_tet):
        for c in (fig8, double_tet):
            op = c.incidence
            assert op.shape == (c.num_edges, 6 * c.n_tets)
            assert op.has_canonical_format
            for eid, cls in enumerate(c.edge_classes):
                row = op.indices[op.indptr[eid] : op.indptr[eid + 1]]
                assert row.tolist() == [6 * t + s for t, s in cls]
            dense = op.toarray()
            assert np.all(dense[c.edge_index.ravel(), np.arange(6 * c.n_tets)] == 1.0)
            assert dense.sum() == 6 * c.n_tets

    @pytest.mark.parametrize("case", ["fixtures", "cover", "open"])
    def test_one_at_the_class_of_each_slot(self, fig8, double_tet, fixture_dicts, case):
        # a 1 at (edge_index[t, s], 6t + s), in canonical form
        if case == "fixtures":
            complexes = (fig8, double_tet)
        else:
            tri = relabelled_fig8_cover(fixture_dicts["fig8"], 128, np.random.default_rng(11))
            if case == "open":
                tri = dict(tri, gluings=tri["gluings"][::2])
            complexes = (build_complex(GluingSpec.from_dict(tri)),)
        for c in complexes:
            slots = 6 * c.n_tets
            rule = csr_array(
                (np.ones(slots), (c.edge_index.ravel(), np.arange(slots))),
                shape=(c.num_edges, slots),
            )
            rule.sort_indices()
            assert c.incidence.shape == rule.shape and c.incidence.has_canonical_format
            assert np.array_equal(c.incidence.indptr, rule.indptr)
            assert np.array_equal(c.incidence.indices, rule.indices)
            assert np.array_equal(c.incidence.data, rule.data)


class TestGauge:
    def test_matrix_single_tet_is_k4_incidence(self, single_tet):
        b = gauge_matrix(single_tet)
        assert b.shape == (6, 4)
        assert np.all(b.sum(axis=1) == 2)
        for s, (u, v) in enumerate(EDGE_VERTICES):
            assert b[s, u] == 1 and b[s, v] == 1
        assert np.linalg.matrix_rank(b) == 4

    def test_matrix_fig8_is_column_of_twos(self, fig8):
        b = gauge_matrix(fig8)
        assert b.shape == (2, 1)
        assert np.all(b == 2.0)

    def test_rank_doubled(self, double_tet):
        assert np.linalg.matrix_rank(gauge_matrix(double_tet)) == 4

    def test_apply_zero_identity(self, double_tet):
        x = np.arange(6, dtype=float)
        assert np.array_equal(gauge_apply(double_tet, np.zeros(4), x), x)

    def test_apply_constant_shifts_by_two(self, double_tet):
        x = np.zeros(6)
        out = gauge_apply(double_tet, np.full(4, 0.7), x)
        assert np.allclose(out, 1.4)

    def test_apply_loops_doubled(self, fig8):
        out = gauge_apply(fig8, np.array([0.3]), np.array([1.0, 2.0]))
        assert np.allclose(out, [1.6, 2.6])

    @pytest.mark.parametrize(
        "w, x", [([1.0, 2.0, 3.0], [0.0, 0.0]), ([], [0.0, 0.0]), ([0.3], [1.0, 2.0, 3.0]), ([0.3], 1.0)]
    )
    def test_apply_needs_one_entry_per_vertex_and_edge(self, fig8, w, x):
        # fig8 has one vertex class and two edges; w once read only its
        # entries at the endpoints' classes
        with pytest.raises(DomainError, match="gauge_apply"):
            gauge_apply(fig8, w, x)

    @pytest.mark.parametrize("name", ["fig8", "double_tet"])
    def test_matrix_and_apply_match_endpoint_loops(self, fixture_dicts, name):
        tri = disjoint_union(fixture_dicts[name], 4, np.random.default_rng(5))
        c = build_complex(GluingSpec.from_dict(tri))
        b = np.zeros((c.num_edges, c.num_vertices))
        for eid, (u, v) in enumerate(c.edge_endpoints.tolist()):
            b[eid, u] += 1.0
            b[eid, v] += 1.0
        assert np.array_equal(gauge_matrix(c), b)
        rng = np.random.default_rng(6)
        w, x = rng.normal(size=c.num_vertices), rng.normal(size=c.num_edges)
        looped = x.copy()
        for eid, (u, v) in enumerate(c.edge_endpoints.tolist()):
            looped[eid] += w[u] + w[v]
        assert np.array_equal(gauge_apply(c, w, x), looped)

    def test_project_kills_column_space(self, double_tet):
        b = gauge_matrix(double_tet)
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        assert np.allclose(gauge_project(double_tet, b @ w), 0.0, atol=1e-12)

    def test_project_fixes_orthogonal_complement(self, double_tet):
        b = gauge_matrix(double_tet)
        basis = null_space(b.T)
        rng = np.random.default_rng(1)
        x = basis @ rng.normal(size=basis.shape[1])
        assert np.allclose(gauge_project(double_tet, x), x, atol=1e-12)

    def test_project_idempotent_and_orthogonal(self, fig8, double_tet):
        rng = np.random.default_rng(2)
        for c in (fig8, double_tet):
            x = rng.normal(size=c.num_edges)
            p = gauge_project(c, x)
            assert np.allclose(gauge_project(c, p), p, atol=1e-12)
            assert np.allclose(gauge_matrix(c).T @ p, 0.0, atol=1e-10)

    def test_project_rows_at_once(self, fig8, double_tet):
        # an (m, E) array is projected row by row in one least-squares call
        rng = np.random.default_rng(3)
        for c in (fig8, double_tet):
            x = rng.normal(size=(5, c.num_edges))
            rows = gauge_project(c, x)
            assert rows.shape == x.shape
            for row, xi in zip(rows, x):
                assert np.max(np.abs(row - gauge_project(c, xi))) <= 1e-14

    @pytest.mark.parametrize(
        "name, copies, cover",
        [
            ("fig8", 1, 1),
            ("double_tet", 1, 1),
            ("fig8", 1, 8),
            ("fig8", 1, 64),
            ("fig8", 16, 1),
            ("fig8", 64, 1),
            ("double_tet", 4, 1),
            ("double_tet", 16, 1),
        ],
    )
    def test_project_matches_least_squares(self, fixture_dicts, name, copies, cover):
        # the normal equations B^T B w = B^T x give the fit lstsq gives, to
        # 1e-13, on vectors and on stacked rows; the unions have V = 16 and 64
        tri = fixture_dicts[name]
        if cover > 1:
            tri = cyclic_cover(tri, FIG8_COCYCLE, cover)
        c = build_complex(GluingSpec.from_dict(disjoint_union(tri, copies)))
        b = gauge_matrix(c)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, c.num_edges))
        x[0] += b @ rng.normal(size=c.num_vertices)  # a large gauge component
        w, *_ = np.linalg.lstsq(b, x.T, rcond=None)
        want = x - (b @ w).T
        assert np.max(np.abs(gauge_project(c, x) - want)) <= 1e-13
        assert np.max(np.abs(gauge_project(c, x[1]) - want[1])) <= 1e-13


class TestStackedQuotientKernel:
    def test_stacked_quotient_kernel_equals_gauge_space(self, fig8, double_tet):
        # kernel of the stacked per-tet restriction-quotient maps = col(B),
        # checked by rank comparison
        for c in (fig8, double_tet):
            b = gauge_matrix(c)
            per_tet = np.zeros((6, 4))
            for s, (u, v) in enumerate(EDGE_VERTICES):
                per_tet[s, u] = per_tet[s, v] = 1.0
            comp = null_space(per_tet.T)  # complement of the per-tet gauge image
            rows = []
            for t in range(c.n_tets):
                restrict = np.zeros((6, c.num_edges))
                for s in range(6):
                    restrict[s, c.edge_index[t, s]] = 1.0
                rows.append(comp.T @ restrict)
            stacked = np.vstack(rows)
            dim_kernel = c.num_edges - np.linalg.matrix_rank(stacked)
            assert dim_kernel == np.linalg.matrix_rank(b)
            # and col(B) really is inside the kernel
            assert np.allclose(stacked @ b, 0.0, atol=1e-12)
