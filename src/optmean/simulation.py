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
distribution's parameters, mean and inverse CDF (``scipy.special.ndtri``
for the normal ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import cell_sums, replicate_chunks, replicate_uniforms, stream_key
from .estimators import FIELDS_BY_SCENARIO, METHODS, FiveNumberSummary, combine, \
    lookup_method
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

# kind -> (canonical params, true mean, inverse CDF taking the params by name)
_DISTRIBUTIONS = {
    "normal": ((("mu", 50.0), ("sigma", 17.0)), 50.0,
               lambda u, mu, sigma: mu + sigma * special.ndtri(u)),
    "lognormal": ((("location", 4.0), ("scale", 0.3)), math.exp(4.0 + 0.5 * 0.3 ** 2),
                  lambda u, location, scale: np.exp(location + scale * special.ndtri(u))),
    "beta": ((("alpha", 9.0), ("beta", 4.0)), 9.0 / 13.0,
             lambda u, alpha, beta: special.betaincinv(alpha, beta, u)),
    "exponential": ((("rate", 10.0),), 0.1,
                    lambda u, rate: -np.log1p(-u) / rate),
    "weibull": ((("shape", 2.0), ("scale", 35.0)), 35.0 * math.gamma(1.5),
                lambda u, shape, scale: scale * (-np.log1p(-u)) ** (1.0 / shape)),
}

DISTRIBUTION_KINDS = tuple(_DISTRIBUTIONS)


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution with its closed-form mean.

    ``kind`` is one of `DISTRIBUTION_KINDS` and ``params`` a tuple of
    (name, value) pairs for its inverse CDF; use `distribution` to get the
    canonical parameterizations used throughout the evaluation study.
    """

    kind: str
    params: tuple[tuple[str, float], ...]
    true_mean: float

    def __post_init__(self):
        if self.kind not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF transform of uniforms in (0, 1)."""
        inverse_cdf = _DISTRIBUTIONS[self.kind][2]
        return inverse_cdf(np.asarray(u, dtype=np.float64), **dict(self.params))


def distribution(kind: str) -> DistributionSpec:
    """The five canonical evaluation distributions.

    normal(mu=50, sigma=17), lognormal(location=4, scale=0.3) on the log
    scale, beta(alpha=9, beta=4), exponential(rate=10), and
    weibull(shape=2, scale=35).
    """
    kind = str(kind).strip().lower()
    params, true_mean, _ = _DISTRIBUTIONS.get(kind, ((), 0.0, None))
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


@dataclass(frozen=True)
class ReplicateStream:
    """Handle on one replicate's window of a counter-based uniform stream."""

    key: tuple[int, int]
    replicate: int

    def uniforms(self, draws: int) -> np.ndarray:
        return replicate_uniforms(self.key, self.replicate, 1, draws)[0]


def _spec_key(seed: int, spec: DistributionSpec, n: int) -> tuple[int, int]:
    flat = [p for pair in spec.params for p in pair]
    return stream_key("simulation", seed, spec.kind, *flat, n)


def replicate_stream(seed: int, spec: DistributionSpec, n: int,
                     replicate: int) -> ReplicateStream:
    """The stream used for a given replicate of a simulation config."""
    return ReplicateStream(key=_spec_key(seed, spec, n), replicate=replicate)


def draw_sample(spec: DistributionSpec, n: int, stream: ReplicateStream) -> np.ndarray:
    """One i.i.d. sample of size n, sorted ascending."""
    x = spec.quantile(stream.uniforms(check_sample_size(n)))
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
