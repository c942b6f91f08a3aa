"""The cyclic cover generator on the figure-eight fixture."""

from pathlib import Path

import pytest

import covers
from hypmet.triangulation import GluingSpec, build_complex

FIG8 = Path(__file__).resolve().parents[2] / "fixtures" / "fig8.json"


@pytest.fixture(scope="module")
def fig8():
    return covers.load_gluing(FIG8)


def test_one_fold_cover_is_the_fixture(fig8):
    assert covers.cyclic_cover(fig8, covers.FIG8_COCYCLE, 1) == fig8


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_fig8_cover_is_closed_connected_with_valence_six_edges(fig8, n):
    tri = covers.cyclic_cover(fig8, covers.FIG8_COCYCLE, n)
    c = build_complex(GluingSpec.from_dict(tri))
    assert covers.is_connected(tri)
    assert c.closed
    assert c.n_tets == 2 * n
    assert c.num_edges == 2 * n
    assert all(len(cls) == 6 for cls in c.edge_classes)


def test_zero_cocycle_gives_disjoint_copies(fig8):
    tri = covers.cyclic_cover(fig8, (0, 0, 0, 0), 3)
    assert not covers.is_connected(tri)
    assert build_complex(GluingSpec.from_dict(tri)).num_edges == 6


def test_relabel_keeps_the_combinatorics(fig8):
    tri = covers.cyclic_cover(fig8, covers.FIG8_COCYCLE, 4)
    moved = covers.relabel(tri, [5, 2, 7, 0, 1, 6, 3, 4])
    c = build_complex(GluingSpec.from_dict(moved))
    assert c.closed and c.num_edges == 8
    assert sorted(len(cls) for cls in c.edge_classes) == [6] * 8


def test_rejects_a_cocycle_of_the_wrong_length(fig8):
    with pytest.raises(ValueError):
        covers.cyclic_cover(fig8, (1, 0), 2)
