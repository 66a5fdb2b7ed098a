"""Shared fixtures.

The quadrature moment grids are expensive (the full 5..501 grid takes about
33 s on a 2-core Xeon; the suite as a whole 104-112 s) and are shared
session-wide; `moments_quadrature` caches per size, so overlapping fixtures
never recompute.
"""

import pytest

from optmean.order_stats import moments_quadrature

GRID_101 = tuple(range(5, 102, 4))
GRID_501 = tuple(range(5, 502, 4))


@pytest.fixture(scope="session")
def quad_grid_101():
    return {n: moments_quadrature(n) for n in GRID_101}


@pytest.fixture(scope="session")
def quad_grid_501():
    return {n: moments_quadrature(n) for n in GRID_501}
