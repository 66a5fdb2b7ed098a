"""Relative-MSE evaluation of summary-based mean estimators.

For each sample size on a grid, draw T samples from a chosen distribution,
reduce each sample to its scenario summary, estimate the mean with the
methods under comparison, and report

    rmse(method) = sum_i (estimate_i - mu)^2 / sum_i (mean_i - mu)^2

against the full-sample mean over the same draws. A ratio of 1 means
parity with the raw sample mean.

Replicate i draws its observations from a dedicated counter window of a
stream keyed by (seed, distribution, n), and reductions run over fixed
512-replicate cells, so reports are bit-identical however the work is
chunked or parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ._rng import replicate_uniforms, stream_key
from .estimators import FIELDS_BY_SCENARIO, METHODS, FiveNumberSummary, combine, \
    lookup_method
from .order_stats import OrderIndexSet, _normal_quantile_array
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

# Replicates per reduction cell; partial sums are always taken over whole
# cells so accumulation order cannot depend on chunk sizes.
_SUB = 512
# Target values per drawing chunk (aligned down to whole cells).
_CHUNK_TARGET = 4_000_000


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution with its closed-form mean.

    ``params`` is a tuple of (name, value) pairs; use `distribution` to get
    the canonical parameterizations used throughout the evaluation study.
    """

    kind: str
    params: tuple[tuple[str, float], ...]
    true_mean: float

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF transform of uniforms in (0, 1)."""
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "normal":
            return self.param("mu") + self.param("sigma") * _normal_quantile_array(u)
        if self.kind == "lognormal":
            z = _normal_quantile_array(u)
            return np.exp(self.param("location") + self.param("scale") * z)
        if self.kind == "beta":
            return special.betaincinv(self.param("alpha"), self.param("beta"), u)
        if self.kind == "exponential":
            return -np.log1p(-u) / self.param("rate")
        if self.kind == "weibull":
            return self.param("scale") * (-np.log1p(-u)) ** (1.0 / self.param("shape"))
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def distribution(kind: str) -> DistributionSpec:
    """The five canonical evaluation distributions.

    normal(mu=50, sigma=17), lognormal(location=4, scale=0.3) on the log
    scale, beta(alpha=9, beta=4), exponential(rate=10), and
    weibull(shape=2, scale=35).
    """
    kind = str(kind).strip().lower()
    if kind == "normal":
        return DistributionSpec("normal", (("mu", 50.0), ("sigma", 17.0)), 50.0)
    if kind == "lognormal":
        return DistributionSpec(
            "lognormal", (("location", 4.0), ("scale", 0.3)),
            math.exp(4.0 + 0.5 * 0.3 ** 2))
    if kind == "beta":
        return DistributionSpec("beta", (("alpha", 9.0), ("beta", 4.0)), 9.0 / 13.0)
    if kind == "exponential":
        return DistributionSpec("exponential", (("rate", 10.0),), 0.1)
    if kind == "weibull":
        return DistributionSpec(
            "weibull", (("shape", 2.0), ("scale", 35.0)),
            35.0 * math.gamma(1.5))
    raise ValueError(f"unknown distribution kind {kind!r}")


DISTRIBUTION_KINDS = ("normal", "lognormal", "beta", "exponential", "weibull")


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
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not self.n_grid:
            raise ValueError("n_grid must not be empty")
        for n in self.n_grid:
            OrderIndexSet.from_size(n)
        if self.replicates < MIN_REPLICATES:
            raise ValueError(
                f"replicates={self.replicates} is below the minimum of "
                f"{MIN_REPLICATES} needed for stable ratios"
            )
        for method in self.methods:
            lookup_method(method, self.scenario)


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
    if n < 5:
        raise ValueError(f"samples must have n >= 5, got {n}")
    x = spec.quantile(stream.uniforms(n))
    x.sort()
    return x


def summarize(sample, scenario) -> FiveNumberSummary:
    """Reduce a sorted sample of size 4Q + 1 to its scenario summary.

    Uses the exact rank convention a = X_(1), q1 = X_(Q+1), m = X_(2Q+1),
    q3 = X_(3Q+1), b = X_(n).
    """
    scenario = Scenario.parse(scenario)
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    idx = OrderIndexSet.from_size(x.size)
    if np.any(np.diff(x) < 0):
        raise ValueError("sample must be sorted ascending")
    q = idx.q
    rank = {"minimum": 0, "q1": q, "median": 2 * q, "q3": 3 * q, "maximum": -1}
    fields = {name: float(x[rank[name]]) for name in FIELDS_BY_SCENARIO[scenario]}
    return FiveNumberSummary(scenario=scenario, n=int(x.size), **fields)


# ---------------------------------------------------------------------------
# the RMSE protocol


def _cell_sums(dest: np.ndarray, first_rep: int, values: np.ndarray):
    """Fill per-cell sums of `values` for replicates starting at first_rep.

    `first_rep` is always a multiple of the cell size, so cell boundaries
    are identical for every possible chunking.
    """
    cell0 = first_rep // _SUB
    nfull = values.size // _SUB
    if nfull:
        dest[cell0:cell0 + nfull] = values[:nfull * _SUB].reshape(nfull, _SUB).sum(axis=1)
    tail = values[nfull * _SUB:]
    if tail.size:
        dest[cell0 + nfull] = tail.sum()


def _squared_errors(weights, mid_range, mid_quart, median, mu: float) -> np.ndarray:
    # kept out of run_rmse's loop: inlined, the same allocations in another
    # order fragmented the heap and raised peak RSS by up to 10 MB per run
    err = combine(weights, mid_range, mid_quart, median) - mu
    return err * err


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
        ncells = -(-t // _SUB)
        den_cells = np.zeros(ncells)
        num_cells = {method: np.zeros(ncells) for method in config.methods}
        chunk = max(_SUB, (_CHUNK_TARGET // n) // _SUB * _SUB)
        q = (n - 1) // 4
        start = 0
        while start < t:
            count = min(chunk, t - start)
            u = replicate_uniforms(key, start, count, n)
            x = spec.quantile(u)
            sample_mean = x.mean(axis=1)
            x.sort(axis=1)
            mid_range = 0.5 * (x[:, 0] + x[:, -1])
            mid_quart = 0.5 * (x[:, q] + x[:, 3 * q])
            median = x[:, 2 * q]
            den_err = (sample_mean - mu) ** 2
            _cell_sums(den_cells, start, den_err)
            for method in config.methods:
                if method == CONTROL_METHOD:
                    errors = den_err
                else:
                    errors = _squared_errors(weight_sets[method], mid_range,
                                             mid_quart, median, mu)
                _cell_sums(num_cells[method], start, errors)
            start += count
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
            cells = num_cells[method]
            rmse = float(cells.sum()) / den_total
            batches = np.bincount(batch_of, weights=cells, minlength=nbatch)
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
