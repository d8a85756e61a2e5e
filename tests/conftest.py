"""Fixtures shared by the test modules: the desk-scale grids."""

import pytest

from gcflab.verify import desk_grid


@pytest.fixture(scope="module")
def g1():
    return desk_grid(1)


@pytest.fixture(scope="module")
def g2():
    return desk_grid(2)
