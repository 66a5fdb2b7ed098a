"""The exact weights solved in Python floats, held to numpy's bits.

`weights._solve` factors and solves the 2x2 and 3x3 part covariances without
numpy. These checks compare it with what numpy computes from the same
moments: the covariance product, `np.linalg.cholesky` as the positive-
definiteness test, and `np.linalg.solve` with its normalisation, each by
`repr`. `_fma`, the single rounding those solves rest on, is compared with
exact rational arithmetic.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from optmean.order_stats import moments_mc
from optmean.weights import Scenario, _fma, _lu_solve, _positive_definite, \
    optimal_weights

# the (mid-range, mid-quartile range, median) rows, written out
PARTS = np.array([[0.5, 0, 0, 0, 0.5], [0, 0.5, 0, 0.5, 0], [0, 0, 1, 0, 0]])


def _numpy_covariance(m):
    ranks = m.index_set.indices
    sigma = np.array([[m.cov(i, j) for j in ranks] for i in ranks])
    return PARTS @ sigma @ PARTS.T


def _numpy_weights(m, scenario):
    """The weights on the scenario's parts but the median, as numpy solves them."""
    cov = _numpy_covariance(m)[np.ix_(scenario.parts, scenario.parts)]
    np.linalg.cholesky(cov)
    c = np.linalg.solve(cov, np.ones(len(cov)))
    c /= c.sum()
    return [repr(float(v)) for v in c[:-1]]


def _solved(m, scenario):
    ws = optimal_weights(m, scenario)
    return [repr(w) for w in (ws.w1, ws.w2) if w is not None]


def _same_bits(python_rows, array) -> bool:
    return np.array(python_rows).view(np.uint64).tolist() == \
        np.asarray(array, dtype=np.float64).view(np.uint64).tolist()


def _mc_sets():
    return [moments_mc(n, 10_000, seed) for seed in (1, 2028) for n in (5, 13, 101)]


class TestAgainstNumpy:

    def test_every_table_row(self, quad_grid_501):
        assert len(quad_grid_501) == 125
        for n, m in quad_grid_501.items():
            assert _same_bits(m.parts_covariance, _numpy_covariance(m)), n
            for scenario in Scenario:
                assert _solved(m, scenario) == _numpy_weights(m, scenario), (n, scenario)

    def test_monte_carlo_moments(self):
        for m in _mc_sets():
            assert _same_bits(m.parts_covariance, _numpy_covariance(m)), m.n
            for scenario in Scenario:
                assert _solved(m, scenario) == _numpy_weights(m, scenario), m.n

    @pytest.mark.parametrize("size", [2, 3])
    def test_random_spd_systems(self, size):
        # 1,500 per size, each scaled by 10^u for u uniform on [-8, 3]
        rng = np.random.default_rng(2800 + size)
        for _ in range(1_500):
            b = rng.standard_normal((size, size))
            a = b @ b.T + rng.uniform(1e-3, 1.0) * np.eye(size)
            a *= 10.0 ** rng.uniform(-8, 3)
            a = np.triu(a) + np.triu(a, 1).T
            rows = a.tolist()
            assert _positive_definite(rows)
            for rhs in (np.ones(size), rng.standard_normal(size)):
                got = _lu_solve(rows, rhs.tolist())
                assert list(map(repr, got)) == \
                    [repr(float(v)) for v in np.linalg.solve(a, rhs)], rows


def _numpy_refuses(a) -> bool:
    """Whether numpy's Cholesky refuses ``a`` or runs into a NaN.

    numpy's factorisation (OpenBLAS dpotrf) stops at a pivot <= 0 only, so a
    NaN pivot runs through into the factor; `_positive_definite` refuses it.
    """
    try:
        return bool(np.isnan(np.linalg.cholesky(np.array(a))).any())
    except np.linalg.LinAlgError:
        return True


class TestPositiveDefinite:

    def test_agrees_with_numpy_cholesky(self):
        rng = random.Random(2801)
        counts = dict.fromkeys(("singular", "low rank", "indefinite", "special"), 0)
        refused = 0
        for _ in range(8_000):
            size, kind = rng.choice((2, 3)), rng.choice(tuple(counts))
            if kind == "singular":  # exactly: a multiple of one row
                v = [rng.choice((0.5, 1.0, 2.0, 3.0)) for _ in range(size)]
                a = [[x * y for y in v] for x in v]
            elif kind == "low rank":  # singular up to rounding
                b = [[rng.gauss(0, 1) for _ in range(size - 1)] for _ in range(size)]
                a = [[math.fsum(x * y for x, y in zip(r, s)) for s in b] for r in b]
            else:
                a = [[rng.gauss(0, 1) for _ in range(size)] for _ in range(size)]
                for i in range(size):
                    a[i][i] = abs(a[i][i]) * rng.choice((1.0, 3.0))
                if kind == "special":
                    a[rng.randrange(size)][rng.randrange(size)] = rng.choice(
                        (math.nan, math.inf, -math.inf, 0.0))
            for i in range(size):
                for j in range(i):
                    a[i][j] = a[j][i]
            counts[kind] += 1
            refuses = not _positive_definite(a)
            refused += refuses
            assert refuses == _numpy_refuses(a), a
        # each kind ran, and both answers came up
        assert min(counts.values()) > 1_500 and 0 < refused < 8_000

    @pytest.mark.parametrize("a", [
        [[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.nan], [math.nan, 1.0]],
        [[math.inf, math.inf], [math.inf, math.inf]]])
    def test_a_nan_pivot_is_refused(self, a):
        assert not _positive_definite(a)

    def test_an_infinite_pivot_runs(self):
        assert _positive_definite([[math.inf, 0.0], [0.0, 1.0]])


def _exact(a, b, c) -> float:
    value = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _random_float(rng: random.Random) -> float:
    """Near 1, anywhere from 1e-150 to 1e153, or subnormal."""
    return rng.choice((rng.gauss(0.0, 1.0),
                       rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-150, 150),
                       rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-1074, -1000)))


class TestFma:

    def test_single_rounding(self):
        rng = random.Random(2802)
        for k in range(30_000):
            a, b, c = (_random_float(rng) for _ in range(3))
            if k % 4 == 0:
                c = -(a * b)  # leaves the rounding error of the product
            got, want = _fma(a, b, c), _exact(a, b, c)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), \
                (a, b, c)

    def test_exact_cancellation_is_positive_zero(self):
        rng = random.Random(2803)
        for _ in range(10_000):
            # 26-bit significands: the product is exact, so c cancels it
            a, b = (rng.randrange(1, 2 ** 26) * 2.0 ** rng.randint(-60, 60)
                    * rng.choice((1, -1)) for _ in range(2))
            got = _fma(a, b, -(a * b))
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_zero_product_takes_the_sign_of_float_addition(self):
        for a, b, c in [(0.0, 1.0, 0.0), (-0.0, 1.0, -0.0), (0.0, -2.0, -0.0),
                        (-0.0, -3.0, 0.0), (-0.0, 5.0, 0.0), (0.0, 7.0, -1.5)]:
            got, want = _fma(a, b, c), a * b + c
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_beyond_the_range(self):
        assert _fma(1e308, 10.0, -1e308) == math.inf
        assert _fma(-1e308, 10.0, 1e308) == -math.inf
        assert _fma(1e308, 10.0, -math.inf) == -math.inf
        assert math.isnan(_fma(math.nan, 1.0, 1.0))
