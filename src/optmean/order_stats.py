"""Normal-distribution primitives and moments of normal order statistics.

Everything downstream (optimal weights, simulations, the case study) rests
on the quantities computed here: means and second moments of the five
summary order statistics ``Z_(1) <= Z_(Q+1) <= Z_(2Q+1) <= Z_(3Q+1) <=
Z_(n)`` of a standard-normal sample of size ``n = 4Q + 1``.

Two backends are provided. ``moments_quadrature`` integrates one density
with adaptive Gauss-Legendre panels and is the deterministic reference: the
joint density of ranks r_1 < ... < r_k of n (k = 1 or 2) is n! / prod
Gamma(g) * prod phi(x) * prod mass^(g - 1), with gaps g the differences of
(0, r_1, ..., r_k, n + 1) and the Phi-masses below, between and above the
points (David & Nagaraja, Order Statistics, 3rd ed., sec. 2.2). The end
masses are ``log_ndtr(x_1)`` and ``log_ndtr(-x_k)``; a mass between
neighbours is one erfc difference, mirrored to Phi(-x) - Phi(-y) when
x + y > 0. ``moments_mc`` averages over sorted standard-normal samples drawn
from counter-based streams, so its output is reproducible for a fixed ``(n,
replicates, seed)`` regardless of how the replicates are chunked.

Every inverse normal CDF, the scalar ``normal_quantile`` of the SD rules
and the bulk transforms of drawn uniforms alike, is ``scipy.special.ndtri``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Mapping

import numpy as np
from scipy import special

from ._rng import cell_sums, replicate_chunks, stream_key
from .errors import NumericalError, ScenarioError

__all__ = [
    "SUMMARY_FIELDS",
    "summary_parts",
    "OrderIndexSet",
    "OrderStatMoments",
    "AsymptoticQuantileCov",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "moments_mc",
    "moments_quadrature",
    "asymptotic_cov",
    "check_sample_size",
    "check_replicates",
    "check_moment_domain",
    "MIN_MC_REPLICATES",
    "MAX_QUADRATURE_SIZE",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

MIN_MC_REPLICATES = 10_000
MAX_QUADRATURE_SIZE = 501

# Quadrature controls: integrands are restricted to the region holding all
# but ~1e-20 of each order statistic's mass (always inside [-10, 10], where
# the untruncated normal leaves < 1e-22 behind), and every integral is
# evaluated at successive panel counts of the ladder, each 1.5x the last
# (the rungs are not nested), until two consecutive rungs agree. Over
# n = 5..501 every integral is accepted at its second rung, 24 panels.
_PANEL_LADDER = (16, 24, 36, 54, 81)
_PANEL_TOL = 1e-8
_SUPPORT_EPS = 1e-20
_QUAD_ERROR_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# scalar normal primitives


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    The erfc form keeps full relative accuracy in the left tail.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, ``scipy.special.ndtri`` on (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    return float(special.ndtri(p))


# ---------------------------------------------------------------------------
# count rules: the one place a sample size or replicate count is refused


def _whole(value):
    """``value`` as an int if it is whole (9, 9.0, a numpy integer), else None."""
    try:
        return operator.index(value)
    except TypeError:
        return int(value) if isinstance(value, float) and value.is_integer() else None


def check_sample_size(n) -> int:
    """A sample size, as an int: whole, >= 5 and finite as a float."""
    size = _whole(n)
    if size is None or not 5 <= size <= sys.float_info.max:
        raise ValueError(f"sample size must be an integer >= 5 that is "
                         f"finite as a float, got {n!r}")
    return size


def check_replicates(replicates, least: int, purpose: str) -> int:
    """A replicate count, as an int: whole and >= ``least``, which ``purpose`` needs."""
    count = _whole(replicates)
    if count is None or count < least:
        raise ValueError(f"refusing to run with replicates={replicates!r}; at least "
                         f"{least} are needed for {purpose}")
    return count


def check_moment_domain(sizes, replicates=None):
    """Refuse, before any work, what a moment backend cannot serve: a size
    `OrderIndexSet` refuses, n > 501 for quadrature (``replicates`` None), or
    fewer than 10,000 Monte Carlo ``replicates``, returned as an int."""
    if replicates is not None:
        replicates = check_replicates(replicates, MIN_MC_REPLICATES, "Monte Carlo moments")
    for n in sizes:
        if OrderIndexSet.from_size(n).n > MAX_QUADRATURE_SIZE and replicates is None:
            raise ValueError(f"quadrature supports n <= {MAX_QUADRATURE_SIZE}, got {n}")
    return replicates


# ---------------------------------------------------------------------------
# domain types

# The five summary values, in the rank order of `OrderIndexSet.indices`.
SUMMARY_FIELDS = ("minimum", "q1", "median", "q3", "maximum")


def summary_parts(minimum, q1, median, q3, maximum):
    """The estimator parts (mid-range, mid-quartile range, median) of the
    five summary values, for floats and arrays alike; a part whose values
    are absent (None) is None."""
    return (None if minimum is None else (minimum + maximum) / 2.0,
            None if q1 is None else (q1 + q3) / 2.0,
            median)


@dataclass(frozen=True)
class OrderIndexSet:
    """The five summary ranks {1, Q+1, 2Q+1, 3Q+1, n} for n = 4Q + 1."""

    n: int
    q: int

    @classmethod
    def from_size(cls, n: int) -> "OrderIndexSet":
        size = _whole(n)
        if size is None or size < 5 or size % 4 != 1:
            raise ScenarioError(
                f"sample size must satisfy n = 4Q + 1 with Q >= 1, got n={n}"
            )
        return cls(n=size, q=(size - 1) // 4)

    @property
    def indices(self) -> tuple[int, int, int, int, int]:
        q = self.q
        return (1, q + 1, 2 * q + 1, 3 * q + 1, self.n)

    # each rank by name, read from `indices`
    minimum, lower_quartile, median, upper_quartile, maximum = (
        property(lambda self, k=k: self.indices[k]) for k in range(5))


@dataclass(frozen=True)
class OrderStatMoments:
    """Means and raw second moments of the five summary order statistics.

    ``means[i] = E(Z_(i))`` and ``second_moments[(i, j)] = E(Z_(i) Z_(j))``
    for ranks i <= j drawn from the index set of ``n``. ``std_error`` is a
    single 1-sigma bound covering every entry (the Monte Carlo standard
    error, or a zero-equivalent tolerance for quadrature).
    """

    n: int
    means: Mapping[int, float]
    second_moments: Mapping[tuple[int, int], float]
    backend: str
    std_error: float

    def __post_init__(self):
        idx = OrderIndexSet.from_size(self.n)
        expected = set(idx.indices)
        if set(self.means) != expected:
            raise ValueError("means must be keyed by the five summary ranks")
        pairs = {(i, j) for i in expected for j in expected if i <= j}
        if set(self.second_moments) != pairs:
            raise ValueError("second_moments must cover all rank pairs i <= j")
        for i in expected:
            if not self.second_moments[(i, i)] > 0.0:
                raise ValueError(f"E(Z_({i})^2) must be positive")

    @property
    def index_set(self) -> OrderIndexSet:
        return OrderIndexSet.from_size(self.n)

    def mean(self, i: int) -> float:
        return self.means[i]

    def second_moment(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return self.second_moments[(i, j)]

    def cov(self, i: int, j: int) -> float:
        return self.second_moment(i, j) - self.means[i] * self.means[j]

    def var(self, i: int) -> float:
        return self.cov(i, i)

    def summary_covariance(self) -> np.ndarray:
        """Covariance of (mid-range, mid-quartile range, median); symmetric PSD.

        These are the parts every weighted mean estimator combines, in
        sigma^2 = 1 units: L Sigma L' with Sigma the covariance of the five
        summary ranks. Built once per instance and handed out read-only.
        """
        return self._summary_covariance

    @cached_property
    def _summary_covariance(self) -> np.ndarray:
        ranks = self.index_set.indices
        sigma = np.array([[self.cov(i, j) for j in ranks] for i in ranks])
        parts = _SUMMARY_PARTS @ sigma @ _SUMMARY_PARTS.T
        parts.flags.writeable = False
        return parts


# Rows map the five summary ranks (a, q1, m, q3, b) to the estimator parts.
_SUMMARY_PARTS = np.array(summary_parts(*np.eye(5)))


@dataclass(frozen=True)
class AsymptoticQuantileCov:
    """Large-sample covariance of two sample quantiles of a normal sample."""

    p_i: float
    p_j: float
    n: int
    value: float


def asymptotic_cov(p_i: float, p_j: float, n: int) -> AsymptoticQuantileCov:
    """Asymptotic Cov(Z_[n p_i], Z_[n p_j]) for standard-normal samples.

    Returns p_i (1 - p_j) / (n phi(z_i) phi(z_j)) with z = normal_quantile(p);
    n * value does not depend on n.
    """
    if not (0.0 < p_i <= p_j < 1.0):
        raise ValueError(
            f"quantile levels must satisfy 0 < p_i <= p_j < 1, got ({p_i}, {p_j})"
        )
    size = _whole(n)
    if size is None or size < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    dens_i = normal_pdf(normal_quantile(p_i))
    dens_j = normal_pdf(normal_quantile(p_j))
    value = p_i * (1.0 - p_j) / (size * dens_i * dens_j)
    return AsymptoticQuantileCov(p_i=p_i, p_j=p_j, n=size, value=value)


# ---------------------------------------------------------------------------
# quadrature backend


@lru_cache(maxsize=None)
def _gl_unit(order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_grid(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    t, wt = _gl_unit()
    edges = np.linspace(a, b, panels + 1)
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * t[None, :]).ravel()
    weights = (widths[:, None] * wt[None, :]).ravel()
    return nodes, weights


def _rank_support(i: int, n: int) -> tuple[float, float]:
    """Interval holding all but ~1e-20 of the mass of Z_(i) from n."""
    lo_u = special.betaincinv(i, n - i + 1, _SUPPORT_EPS)
    hi_u = special.betaincinv(i, n - i + 1, 1.0 - _SUPPORT_EPS)
    lo = special.ndtri(max(lo_u, 1e-300))
    hi = special.ndtri(min(hi_u, 1.0 - 1e-16))
    return max(float(lo), -10.0), min(float(hi), 10.0)


def _cdf_gap(x, y):
    """Phi(y) - Phi(x) for y >= x as one erfc difference per node.

    A pair with x + y > 0 is mirrored, Phi(y) - Phi(x) = Phi(-x) - Phi(-y),
    so the difference is always taken in the tail nearer the pair. x is the
    column operand (one outer point per row, broadcast against the grid y):
    its two erfc values are taken once per row, so each node of the grid
    pays one erfc.
    """
    flip = x + y > 0.0
    erfc_x, erfc_neg_x = special.erfc(x / _SQRT2), special.erfc(-x / _SQRT2)
    erfc_y = special.erfc(np.where(flip, y, -y) / _SQRT2)
    return 0.5 * np.where(flip, erfc_x - erfc_y, erfc_y - erfc_neg_x)


def _log_density(n: int, ranks: tuple[int, ...], points):
    """Log joint density of the order statistics ``ranks`` of n at ``points``.

    log n! - sum log Gamma(g) + sum log phi(x) + sum (g - 1) log(mass), with
    the gaps and masses of the module docstring; a gap of 1 adds no term.
    """
    gaps = np.diff((0, *ranks, n + 1))
    log_f = special.gammaln(n + 1) - special.gammaln(gaps).sum()
    for x in points:
        log_f = log_f - (0.5 * x * x + math.log(_SQRT_2PI))
    bounds = (None, *points, None)
    with np.errstate(divide="ignore"):
        for gap, lo, hi in zip(gaps, bounds, bounds[1:]):
            if gap == 1:
                continue
            if lo is None:
                log_mass = special.log_ndtr(hi)
            elif hi is None:
                log_mass = special.log_ndtr(-lo)
            else:
                log_mass = np.log(_cdf_gap(lo, hi))
            log_f = log_f + (gap - 1) * log_mass
    return log_f


def _moment_once(n: int, ranks: tuple[int, ...], power: int, panels: int) -> float:
    """E[Z_(i)^power] for ranks (i,), E[(Z_(i) Z_(j))^power] for (i, j)."""
    x, w = _panel_grid(*_rank_support(ranks[0], n), panels)
    if len(ranks) == 1:
        return float(np.sum(w * x ** power * np.exp(_log_density(n, ranks, (x,)))))
    # y runs over [max(x, ay), by], never empty as Z_(i)'s support ends at or
    # below Z_(j)'s; the [0, 1] panel template is mapped onto each interval
    ay, by = _rank_support(ranks[1], n)
    t, wt = _panel_grid(0.0, 1.0, panels)
    x = x[:, None]
    lo = np.maximum(x, ay)
    span = by - lo
    y = lo + span * t
    density = np.exp(_log_density(n, ranks, (x, y)))
    inner = np.sum(span * wt * (x * y) ** power * density, axis=1)
    return float(np.sum(w * inner))


def _adaptive(evaluate) -> tuple[float, float]:
    """Refine along the panel ladder until two evaluations agree."""
    value = evaluate(_PANEL_LADDER[0])
    for panels in _PANEL_LADDER[1:]:
        refined = evaluate(panels)
        err = abs(refined - value)
        value = refined
        if err <= _PANEL_TOL:
            return value, err
    raise NumericalError(
        f"order-statistic quadrature failed to converge below {_PANEL_TOL:g} "
        f"(last panel difference {err:g})"
    )


@lru_cache(maxsize=None)
def moments_quadrature(n: int) -> OrderStatMoments:
    """Deterministic moments of the five summary order statistics.

    Supports 5 <= n <= 501 with n = 4Q + 1. Every mean and second moment is
    integrated independently (no symmetry shortcuts), so the mirror-symmetry
    identities of normal order statistics remain genuine checks on the output.
    """
    check_moment_domain((n,))
    idx = OrderIndexSet.from_size(n)
    n = idx.n

    def integrate(ranks, power):
        return _adaptive(partial(_moment_once, n, ranks, power))

    ranks = idx.indices
    means = {i: integrate((i,), 1) for i in ranks}
    second = {(i, j): integrate((i,), 2) if i == j else integrate((i, j), 1)
              for a, i in enumerate(ranks) for j in ranks[a:]}
    worst = max(err for _, err in (*means.values(), *second.values()))
    return OrderStatMoments(
        n=n,
        means={i: value for i, (value, _) in means.items()},
        second_moments={pair: value for pair, (value, _) in second.items()},
        backend="quadrature",
        std_error=max(worst, _QUAD_ERROR_FLOOR),
    )


# ---------------------------------------------------------------------------
# Monte Carlo backend


def moments_mc(n: int, replicates: int, seed: int) -> OrderStatMoments:
    """Monte Carlo moments over sorted standard-normal samples.

    Replicate ``r`` draws its ``n`` variates from a dedicated counter window
    of a Philox stream keyed by ``(seed, n)``, and the per-replicate
    products are summed over fixed 512-replicate cells before the cells are
    added, so the result is bit-identical for a given ``(n, replicates,
    seed)`` no matter how the replicates are chunked.
    """
    replicates = check_moment_domain((n,), replicates)
    idx = OrderIndexSet.from_size(n)
    n = idx.n
    ranks = idx.indices
    cols = np.array(ranks) - 1
    key = stream_key("order-stat-moments", seed, n)
    cells = []
    for _, u in replicate_chunks(key, replicates, n):
        z = special.ndtri(u)
        z.sort(axis=1)
        zsel = z[:, cols]
        # per replicate: z and z z' flattened, then the squares of both
        stats = np.hstack([zsel, (zsel[:, :, None] * zsel[:, None, :]).reshape(-1, 25)])
        cells.append(cell_sums(np.hstack([stats, stats * stats])))
    t = float(replicates)
    sums = np.concatenate(cells).sum(axis=0) / t
    mean2 = sums[5:30].reshape(5, 5)
    se = np.sqrt(np.maximum(sums[30:] - sums[:30] ** 2, 0.0) / t)
    return OrderStatMoments(
        n=n,
        means={i: float(mean) for i, mean in zip(ranks, sums[:5])},
        second_moments={(i, j): float(mean2[a, b]) for a, i in enumerate(ranks)
                        for b, j in enumerate(ranks) if i <= j},
        backend="monte_carlo",
        std_error=float(se.max()),
    )
