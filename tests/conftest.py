from __future__ import annotations

import numpy as np
import pytest

from mzl.elliptic import lattice
from mzl.special import klein_j_pair


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
