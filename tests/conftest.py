from __future__ import annotations

import numpy as np
import pytest

from mzl import contour, domains
from mzl.elliptic import lattice
from mzl.special import klein_j_pair


@pytest.fixture(autouse=True)
def cold_caches():
    # every test starts from empty memos of starting grids, first rounds
    # and domain geometries, so a test that counts f or inner calls sees
    # the calls of a first count
    contour._start_grid.cache_clear()
    domains._first_round.cache_clear()
    domains._line_grid.cache_clear()
    domains._j_geometry.cache_clear()
    domains._wp_rectangle.cache_clear()


@pytest.fixture(scope="session")
def lat1():
    return lattice(1.0)


@pytest.fixture(scope="session")
def lat15():
    return lattice(1.5)


@pytest.fixture(scope="session")
def jfun():
    return klein_j_pair


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)
