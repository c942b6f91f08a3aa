import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # expose oracles.py

import hypmet.solver
from hypmet.triangulation import build_complex, load_triangulation

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def fig8():
    return build_complex(load_triangulation(FIXTURES / "fig8.json"))


@pytest.fixture(scope="session")
def double_tet():
    return build_complex(load_triangulation(FIXTURES / "double_tet.json"))


@pytest.fixture(scope="session")
def single_tet():
    from hypmet.triangulation import GluingSpec

    return build_complex(GluingSpec.from_dict({"tets": 1, "gluings": []}))


@pytest.fixture(scope="session")
def sparse_tets():
    """The fewest tetrahedra of a fig8 cyclic cover (E = T) whose Newton step takes SuperLU."""
    return 2 * (hypmet.solver._DENSE_EDGES // 2 + 1)


@pytest.fixture
def newton_paths(monkeypatch):
    """paths(c) yields True, then False, having set the Newton step of c dense, then sparse."""

    def paths(c):
        for dense in (True, False):
            edges = c.num_edges if dense else c.num_edges - 1
            monkeypatch.setattr(hypmet.solver, "_DENSE_EDGES", edges)
            yield dense

    return paths
