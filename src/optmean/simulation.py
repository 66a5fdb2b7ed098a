"""Relative-MSE evaluation of summary-based mean estimators.

For each sample size on a grid, draw T samples from a chosen distribution,
reduce each sample to its scenario summary, estimate the mean with the
methods under comparison, and report

    rmse(method) = sum_i (estimate_i - mu)^2 / sum_i (mean_i - mu)^2

against the full-sample mean over the same draws. A ratio of 1 means
parity with the raw sample mean.

Replicate i draws its observations from a dedicated counter window of a
stream keyed by (seed, distribution, n), and every sum runs over the fixed
512-replicate cells of `_rng.cell_sums`, so reports are bit-identical
however the work is chunked or parallelised. One table holds each
distribution's parameters and their domain, its mean and its inverse CDF:

    normal, lognormal   ``scipy.special.ndtri`` (scaled, or exponentiated)
    beta                `_beta_quantile`: numpy arithmetic, no scipy
    exponential         ``-log1p(-u) / rate``
    weibull             ``scale * (-log1p(-u)) ** (1 / shape)``

so only the normal and lognormal draws import ``scipy.special``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._rng import cell_sums, replicate_chunks, replicate_uniforms, stream_key
from .estimators import DISTRIBUTION_KINDS, FIELDS_BY_SCENARIO, METHODS, \
    FiveNumberSummary, combine, lookup_method
from .order_stats import SUMMARY_FIELDS, OrderIndexSet, check_moment_domain, \
    check_replicates, check_sample_size, special, summary_parts
from .weights import Scenario

__all__ = [
    "DistributionSpec",
    "SimulationConfig",
    "RmseRow",
    "RmseReport",
    "DISTRIBUTION_KINDS",
    "CONTROL_METHOD",
    "DEFAULT_N_GRID",
    "distribution",
    "default_methods",
    "replicate_stream",
    "draw_sample",
    "summarize",
    "run_rmse",
]

CONTROL_METHOD = "sample_mean"
DEFAULT_N_GRID = tuple(range(5, 102, 4))
MIN_REPLICATES = 1_000

# Halley steps of `_beta_lower_quantile`. Against 50-digit mpmath, three leave
# errors up to 334 ulp in the tails of Beta(9, 4); four leave 1.15 ulp.
_HALLEY_STEPS = 4
# The kernel's parameter domain: whole numbers 1..64. Its cost grows with
# alpha + beta, and its binomial coefficients overflow near alpha + beta = 1030.
_BETA_MAX = 64
# `_beta_quantile` maps this many uniforms at a time, so its temporaries stay in
# cache; the result does not depend on it.
_BETA_BLOCK = 1 << 16


def _beta_lower_quantile(v: np.ndarray, a: int, b: int) -> np.ndarray:
    """Beta(a, b) quantile at v <= 1/2 for whole a, b >= 1.

    The CDF of a whole-number Beta is a binomial tail, I_x(a, b) =
    P(Bin(a+b-1, x) >= a) = x^a (1-x)^(b-1) P(x/(1-x)), where P has the
    positive coefficients C(a+b-1, a+k), k < b, so it is summed without
    cancellation. The start is Abramowitz & Stegun 26.5.22 (as in Numerical
    Recipes' ``invbetai``), raised to the lower bound (v / C(a+b-1, a))^(1/a)
    that x^a C(a+b-1, a) >= I_x(a, b) gives in the far lower tail; a fixed
    number of Halley steps then solves I_x(a, b) = v with the density
    x^(a-1) (1-x)^(b-1) / B(a, b). From that start no step leaves (0, 1) or
    needs ``invbetai``'s caps, over every (a, b) of the domain.
    """
    n = a + b - 1
    coefs = [float(math.comb(n, a + k)) for k in range(b)]
    inv_b = float(a * math.comb(n, a))  # 1 / B(a, b)
    log_v = np.log(v)
    t = np.sqrt(-2.0 * log_v)
    y = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    lam = (y * y - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = y * np.sqrt(h + lam) / h - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = np.maximum(a / (a + b * np.exp(2.0 * w)),
                   np.exp((log_v - math.log(math.comb(n, a))) / a))
    for _ in range(_HALLEY_STEPS):
        # 1 - x = c (1 + dc) to first order: c alone would leave its rounding
        # error, amplified b - 1 times, in the result
        c = 1.0 - x
        dc = (1.0 - c) - x
        dc /= c
        r = x / c
        r *= 1.0 - dc
        p = np.full_like(x, coefs[-1])
        for coef in coefs[-2::-1]:
            p *= r
            p += coef
        g = np.ones_like(x)  # x^(a-1) (1-x)^(b-1)
        for _ in range(a - 1):
            g *= x
        for _ in range(b - 1):
            g *= c
        g *= 1.0 + (b - 1) * dc
        s = x * p
        s -= v / g
        s /= inv_b  # (I_x(a, b) - v) / density
        x = x - s / (1.0 - 0.5 * s * ((a - 1) / x - (b - 1) / c))
    return x


def _beta_quantile(u: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Beta(alpha, beta) inverse CDF for whole alpha, beta in 1.._BETA_MAX.

    Below u = 1/2 it is `_beta_lower_quantile`; above, it is 1 minus the
    Beta(beta, alpha) quantile at 1 - u, which is exact in float64, so
    neither side cancels. Against 50-digit mpmath it is within 1.15 ulp for
    Beta(9, 4) (scipy's ``betaincinv`` is off by up to 53); rounding in the
    products of 1 - x grows the error with (beta - 1) / alpha, to 33 ulp at
    Beta(1, 64).
    """
    a, b = int(alpha), int(beta)
    flat = u.ravel()
    x = np.empty_like(flat)
    for i in range(0, flat.size, _BETA_BLOCK):
        ui, xi = flat[i:i + _BETA_BLOCK], x[i:i + _BETA_BLOCK]
        lower = ui <= 0.5
        xi[lower] = _beta_lower_quantile(ui[lower], a, b)
        upper = ~lower
        xi[upper] = 1.0 - _beta_lower_quantile(1.0 - ui[upper], b, a)
    return x.reshape(u.shape)


def _positive(value) -> bool:
    return 0.0 < value < math.inf


# kind -> (canonical params, true mean, inverse CDF, parameter domain, the
# domain in words), one row per `DISTRIBUTION_KINDS` entry by position; the
# inverse CDF and the domain take the params by name
_DISTRIBUTIONS = dict(zip(DISTRIBUTION_KINDS, (
    # normal
    ((("mu", 50.0), ("sigma", 17.0)), 50.0,
     lambda u, mu, sigma: mu + sigma * special.ndtri(u),
     lambda mu, sigma: math.isfinite(mu) and _positive(sigma),
     "a finite mu and a positive finite sigma"),
    # lognormal
    ((("location", 4.0), ("scale", 0.3)), math.exp(4.0 + 0.5 * 0.3 ** 2),
     lambda u, location, scale: np.exp(location + scale * special.ndtri(u)),
     lambda location, scale: math.isfinite(location) and _positive(scale),
     "a finite location and a positive finite scale"),
    # beta
    ((("alpha", 9.0), ("beta", 4.0)), 9.0 / 13.0, _beta_quantile,
     lambda alpha, beta: all(float(v).is_integer() and 1 <= v <= _BETA_MAX
                             for v in (alpha, beta)),
     f"whole numbers from 1 to {_BETA_MAX}"),
    # exponential
    ((("rate", 10.0),), 0.1,
     lambda u, rate: -np.log1p(-u) / rate,
     lambda rate: _positive(rate), "a positive finite rate"),
    # weibull
    ((("shape", 2.0), ("scale", 35.0)), 35.0 * math.gamma(1.5),
     lambda u, shape, scale: scale * (-np.log1p(-u)) ** (1.0 / shape),
     lambda shape, scale: _positive(shape) and _positive(scale),
     "a positive finite shape and scale"),
), strict=True))


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution with its closed-form mean.

    ``kind`` is one of `DISTRIBUTION_KINDS` and ``params`` a tuple of
    (name, value) pairs naming each parameter of its inverse CDF once; use
    `distribution` to get the canonical parameterizations used throughout the
    evaluation study. The parameters must lie in the kind's domain: a
    positive finite sigma, scale, rate or shape, a finite mu or location,
    and for a beta whole numbers from 1 to 64, the domain of `_beta_quantile`.
    """

    kind: str
    params: tuple[tuple[str, float], ...]
    true_mean: float

    def __post_init__(self):
        if self.kind not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        takes = sorted(name for name, _ in _DISTRIBUTIONS[self.kind][0])
        names = sorted(name for name, _ in self.params)
        if names != takes:
            raise ValueError(f"{self.kind} takes the parameters {takes}, not {names}")
        *_, inside, domain = _DISTRIBUTIONS[self.kind]
        if not inside(**dict(self.params)):
            raise ValueError(f"{self.kind} parameters must be {domain}, "
                             f"not {dict(self.params)}")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF transform of uniforms in the open interval (0, 1).

        The endpoints are outside it: at 0 and 1 the beta kernel gives NaN.
        """
        inverse_cdf = _DISTRIBUTIONS[self.kind][2]
        return inverse_cdf(np.asarray(u, dtype=np.float64), **dict(self.params))


def distribution(kind: str) -> DistributionSpec:
    """The five canonical evaluation distributions.

    normal(mu=50, sigma=17), lognormal(location=4, scale=0.3) on the log
    scale, beta(alpha=9, beta=4), exponential(rate=10), and
    weibull(shape=2, scale=35).
    """
    kind = str(kind).strip().lower()
    params, true_mean = _DISTRIBUTIONS.get(kind, ((), 0.0))[:2]
    return DistributionSpec(kind, params, true_mean)  # refuses an unknown kind


def default_methods(scenario) -> tuple[str, ...]:
    """The legacy-vs-optimal comparison pair for a scenario, plus control."""
    scenario = Scenario.parse(scenario)
    return tuple(name for name, method in METHODS.items()
                 if method.default and scenario in method.scenarios)


@dataclass(frozen=True)
class SimulationConfig:
    distribution: DistributionSpec
    scenario: Scenario
    methods: tuple[str, ...] = ()
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replicates: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario.parse(self.scenario))
        if not self.methods:
            object.__setattr__(self, "methods", default_methods(self.scenario))
        object.__setattr__(self, "n_grid", tuple(OrderIndexSet.from_size(n).n
                                                 for n in self.n_grid))
        if not self.n_grid:
            raise ValueError("n_grid must not be empty")
        for what, names in (("method", self.methods), ("sample size", self.n_grid)):
            repeated = [name for name, count in Counter(names).items() if count > 1]
            if repeated:
                raise ValueError(f"{what} {repeated[0]!r} is named more than once")
        object.__setattr__(self, "replicates", check_replicates(
            self.replicates, MIN_REPLICATES, "stable ratios"))
        for method in self.methods:
            lookup_method(method, self.scenario)
        if "optimal_exact" in self.methods:
            check_moment_domain(self.n_grid)


@dataclass(frozen=True)
class RmseRow:
    distribution: str
    scenario: str
    n: int
    method: str
    rmse: float
    mc_std_error: float
    replicates: int


@dataclass(frozen=True)
class RmseReport:
    config: SimulationConfig
    rows: tuple[RmseRow, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# sampling


def _spec_key(seed: int, spec: DistributionSpec, n: int) -> tuple[int, int]:
    flat = [p for pair in spec.params for p in pair]
    return stream_key("simulation", seed, spec.kind, *flat, n)


def replicate_stream(seed: int, spec: DistributionSpec, n: int,
                     replicate: int) -> tuple[tuple[int, int], int]:
    """``(key, replicate)``: the counter window of a replicate of a config."""
    return _spec_key(seed, spec, n), replicate


def draw_sample(spec: DistributionSpec, n: int, stream) -> np.ndarray:
    """One i.i.d. sample of size n from a `replicate_stream`, sorted ascending."""
    x = spec.quantile(replicate_uniforms(*stream, 1, check_sample_size(n))[0])
    x.sort()
    return x


def summarize(sample, scenario) -> FiveNumberSummary:
    """Reduce a sorted sample of size 4Q + 1 to its scenario summary.

    Uses the exact rank convention of `OrderIndexSet`: a = X_(1), q1 =
    X_(Q+1), m = X_(2Q+1), q3 = X_(3Q+1), b = X_(n).
    """
    scenario = Scenario.parse(scenario)
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    rank = dict(zip(SUMMARY_FIELDS, OrderIndexSet.from_size(x.size).indices))
    if np.any(np.diff(x) < 0):
        raise ValueError("sample must be sorted ascending")
    fields = {name: float(x[rank[name] - 1]) for name in FIELDS_BY_SCENARIO[scenario]}
    return FiveNumberSummary(scenario=scenario, n=x.size, **fields)


# ---------------------------------------------------------------------------
# the RMSE protocol


def run_rmse(config: SimulationConfig) -> RmseReport:
    """Run the relative-MSE protocol for every (n, method) of the config."""
    spec = config.distribution
    mu = spec.true_mean
    t = config.replicates
    rows = []
    for n in config.n_grid:
        weight_sets = {
            method: METHODS[method].weights(config.scenario, n, None)
            for method in config.methods if method != CONTROL_METHOD
        }
        key = _spec_key(config.seed, spec, n)
        # per-chunk cell sums of each method's squared errors; the control's
        # are the full-sample mean's, the ratios' common denominator
        chunk_cells = {method: [] for method in (CONTROL_METHOD, *config.methods)}
        ranks = OrderIndexSet.from_size(n).indices
        for _, u in replicate_chunks(key, t, n):
            x = spec.quantile(u)
            sample_mean = x.mean(axis=1)
            x.sort(axis=1)
            parts = summary_parts(*(x[:, i - 1] for i in ranks))
            for method, per_chunk in chunk_cells.items():
                if method == CONTROL_METHOD:
                    err = sample_mean - mu
                else:
                    err = combine(weight_sets[method], *parts) - mu
                per_chunk.append(cell_sums(err * err))
        cells = {method: np.concatenate(c) for method, c in chunk_cells.items()}
        den_cells = cells[CONTROL_METHOD]
        ncells = den_cells.size
        nbatch = min(20, ncells)
        batch_of = (np.arange(ncells) * nbatch) // ncells
        den_total = float(den_cells.sum())
        den_batches = np.bincount(batch_of, weights=den_cells, minlength=nbatch)
        if den_total <= 0.0:
            raise ArithmeticError(
                f"degenerate full-sample error sum at n={n}; the sampling "
                "distribution produced constant samples"
            )
        for method in config.methods:
            rmse = float(cells[method].sum()) / den_total
            batches = np.bincount(batch_of, weights=cells[method], minlength=nbatch)
            ratios = batches / den_batches
            se = float(np.std(ratios, ddof=1) / math.sqrt(nbatch))
            rows.append(RmseRow(
                distribution=spec.kind,
                scenario=config.scenario.value,
                n=n,
                method=method,
                rmse=rmse,
                mc_std_error=se,
                replicates=t,
            ))
    return RmseReport(config=config, rows=tuple(rows))
