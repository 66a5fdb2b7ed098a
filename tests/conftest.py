"""Shared fixtures.

The quadrature moment grids are shared session-wide. `moments_quadrature`
reads them from the shipped table and builds each size once, so overlapping
fixtures never rebuild; `tests/test_quad_table.py` is where every size is
integrated, once, to check the table.
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
