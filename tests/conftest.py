"""Fixtures shared by the test modules: the desk-scale grids, and the one
translation route."""

import pytest

from gcflab.body import ConvexBody
from gcflab.verify import desk_grid


@pytest.fixture(scope="module")
def g1():
    return desk_grid(1)


@pytest.fixture(scope="module")
def g2():
    return desk_grid(2)


def with_origin(body, z):
    """The body re-expressed with the origin moved to z: u -> u - <z, x>,
    exact at the nodes because linear functions are grid-resolved."""
    return ConvexBody(body.grid, body.support_about(z))
