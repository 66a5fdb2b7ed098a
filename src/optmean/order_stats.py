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

The scalar ``normal_quantile`` serves the SD rules; bulk transforms of
drawn uniforms use ``scipy.special.ndtri``, which agrees with it to ~2e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Mapping

import numpy as np
from scipy import special

from ._rng import cell_sums, replicate_chunks, stream_key
from .errors import NumericalError, ScenarioError

__all__ = [
    "OrderIndexSet",
    "OrderStatMoments",
    "AsymptoticQuantileCov",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "moments_mc",
    "moments_quadrature",
    "asymptotic_cov",
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
# re-evaluated on nested panel ladders until two refinements agree.
_PANEL_LADDER = (24, 36, 54, 81)
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


# Rational approximation coefficients (Acklam's minimax fit for the inverse
# normal CDF, |error| < 1.2e-9 before refinement).
_ACK_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
          1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_ACK_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
          6.680131188771972e01, -1.328068155288572e01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
          -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
          3.754408661907416e00)
_ACK_SPLIT = 0.02425


def _acklam_lower(q: float) -> float:
    """Initial quantile guess for q = min(p, 1 - p) in (0, 0.5]."""
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if q >= _ACK_SPLIT:
        s = q - 0.5
        r = s * s
        num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * s
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        return num / den
    t = math.sqrt(-2.0 * math.log(q))
    num = ((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]
    den = (((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0
    return num / den


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    A rational initial guess is polished with one Halley step against the
    erfc-based CDF. The work happens on q = min(p, 1 - p), where the CDF is
    small and relatively accurate, so the achieved absolute accuracy is a
    few ulps across p in [1e-9, 1 - 1e-9] (far inside the 1e-10 target) and
    the round trip |Phi(z) - p| stays below 1e-12.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    q = 1.0 - p if p > 0.5 else p
    z = _acklam_lower(q)
    err = normal_cdf(z) - q
    u = err * _SQRT_2PI * math.exp(0.5 * z * z)
    z -= u / (1.0 + 0.5 * z * u)
    return -z if p > 0.5 else z


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class OrderIndexSet:
    """The five summary ranks {1, Q+1, 2Q+1, 3Q+1, n} for n = 4Q + 1."""

    n: int
    q: int

    @classmethod
    def from_size(cls, n: int) -> "OrderIndexSet":
        n = int(n)
        if n < 5 or n % 4 != 1:
            raise ScenarioError(
                f"sample size must satisfy n = 4Q + 1 with Q >= 1, got n={n}"
            )
        return cls(n=n, q=(n - 1) // 4)

    @property
    def indices(self) -> tuple[int, int, int, int, int]:
        q = self.q
        return (1, q + 1, 2 * q + 1, 3 * q + 1, self.n)

    @property
    def minimum(self) -> int:
        return 1

    @property
    def lower_quartile(self) -> int:
        return self.q + 1

    @property
    def median(self) -> int:
        return 2 * self.q + 1

    @property
    def upper_quartile(self) -> int:
        return 3 * self.q + 1

    @property
    def maximum(self) -> int:
        return self.n


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
_SUMMARY_PARTS = np.array([
    [0.5, 0.0, 0.0, 0.0, 0.5],
    [0.0, 0.5, 0.0, 0.5, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
])


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
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    dens_i = normal_pdf(normal_quantile(p_i))
    dens_j = normal_pdf(normal_quantile(p_j))
    value = p_i * (1.0 - p_j) / (n * dens_i * dens_j)
    return AsymptoticQuantileCov(p_i=p_i, p_j=p_j, n=int(n), value=value)


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
    so the difference is always taken in the tail nearer the pair.
    """
    flip = x + y > 0.0
    lo, hi = np.where(flip, x, -y), np.where(flip, y, -x)
    return 0.5 * (special.erfc(lo / _SQRT2) - special.erfc(hi / _SQRT2))


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
    idx = OrderIndexSet.from_size(n)
    if n > MAX_QUADRATURE_SIZE:
        raise ValueError(
            f"quadrature backend supports n <= {MAX_QUADRATURE_SIZE}, got {n}"
        )

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
    idx = OrderIndexSet.from_size(n)
    replicates = int(replicates)
    if replicates < MIN_MC_REPLICATES:
        raise ValueError(
            f"refusing to run with replicates={replicates}; at least "
            f"{MIN_MC_REPLICATES} are needed for usable standard errors"
        )
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
