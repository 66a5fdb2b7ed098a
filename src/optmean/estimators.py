"""Sample-mean and standard-deviation estimators from summary fragments.

All mean estimators are convex combinations of the mid-range, the
mid-quartile range, and the median, so each is a row of the method table
`METHODS` (its scenarios and weight rule; legacy rules are fixed weights)
and all are evaluated through the same arithmetic, `combine`. The companion
standard deviation rules (the quantile-based rule and Hozo's range rules)
are the rows of `SD_METHODS`, because the meta-analysis pipeline needs both.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

from .errors import ScenarioError
from .order_stats import SUMMARY_FIELDS, OrderStatMoments, _SUMMARY_PARTS, \
    check_sample_size, moments_quadrature, normal_quantile, summary_parts
from .weights import Scenario, WeightSet, approx_weight, optimal_weights

__all__ = [
    "FiveNumberSummary",
    "Estimate",
    "Method",
    "METHODS",
    "SUMMARY_METHODS",
    "lookup_method",
    "combine",
    "estimate_mean",
    "mean_hozo",
    "mean_wan_s2",
    "mean_bland",
    "mean_weighted",
    "mean_optimal",
    "SdMethod",
    "SD_METHODS",
    "sd_estimate",
    "wan_sd_from_extremes",
    "wan_sd_from_quartiles",
    "hozo_sd_from_range",
]

# the summary fields whose values feed each scenario's parts
FIELDS_BY_SCENARIO = {
    scenario: tuple(name for name, used in zip(
        SUMMARY_FIELDS, _SUMMARY_PARTS[scenario.parts].any(axis=0)) if used)
    for scenario in Scenario
}


@dataclass(frozen=True)
class FiveNumberSummary:
    """A study's reported summary fragment, in data units.

    Exactly the scenario's `FIELDS_BY_SCENARIO` are present, in order.
    """

    scenario: Scenario
    n: int
    median: float
    minimum: Optional[float] = None
    q1: Optional[float] = None
    q3: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario.parse(self.scenario))
        object.__setattr__(self, "n", check_sample_size(self.n))
        wanted = FIELDS_BY_SCENARIO[self.scenario]
        for name, value in zip(SUMMARY_FIELDS, self.values()):
            if name in wanted and value is None:
                raise ScenarioError(
                    f"scenario {self.scenario.value} requires field {name!r}"
                )
            if name not in wanted and value is not None:
                raise ScenarioError(
                    f"scenario {self.scenario.value} does not take field {name!r}"
                )
        values = self.present_values()
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"summary values must be finite, got {values}")
        if any(lo > hi for lo, hi in zip(values, values[1:])):
            raise ValueError(f"summary values must be ordered, got {values}")

    def values(self) -> tuple[Optional[float], ...]:
        """The five values in `SUMMARY_FIELDS` order, None where absent."""
        return tuple(getattr(self, name) for name in SUMMARY_FIELDS)

    def present_values(self) -> tuple[float, ...]:
        """The reported values in their natural order."""
        return tuple(v for v in self.values() if v is not None)


@dataclass(frozen=True)
class Estimate:
    """A mean or SD estimate with the method and weights that produced it."""

    value: float
    method: str
    weight_set: Optional[WeightSet] = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"{self.method} estimate overflows to {self.value!r}")


@dataclass(frozen=True)
class Method:
    """One mean estimator: the scenarios it applies to and its weight rule.

    ``weights(scenario, n, moments)`` gives the `WeightSet`; only the exact
    rule reads ``moments`` (None: quadrature). No rule means the full-sample
    mean, the simulation's control. ``label`` names the estimates, and
    ``default`` marks the methods a simulation compares when none are named.
    """

    scenarios: frozenset
    weights: Optional[Callable[[Scenario, int, Optional[OrderStatMoments]], WeightSet]]
    label: str
    default: bool = False


def _legacy(w1, w2=None):
    return lambda scenario, n, moments: WeightSet(scenario, n, w1, w2, source="legacy")


def _optimal_exact(scenario, n, moments):
    return optimal_weights(moments_quadrature(n) if moments is None else moments,
                           scenario)


_ALL = frozenset(Scenario)

METHODS = {
    "sample_mean": Method(_ALL, None, "sample_mean", default=True),
    # Hozo: (a + 2m + b)/4 for n <= 25, the bare median above
    "hozo": Method(
        frozenset({Scenario.S1}),
        lambda scenario, n, moments: WeightSet(
            scenario, n, 0.5 if n <= 25 else 0.0, source="legacy"),
        "hozo", default=True),
    # (a + 2m + b)/4 at every n, as published pooled analyses apply Hozo
    "hozo_as_applied": Method(frozenset({Scenario.S1}), _legacy(0.5), "hozo_as_applied"),
    # Wan: (q1 + m + q3)/3
    "wan": Method(frozenset({Scenario.S2}), _legacy(2.0 / 3.0), "wan_mean", default=True),
    # Bland: (a + 2 q1 + 2m + 2 q3 + b)/8
    "bland": Method(frozenset({Scenario.S3}), _legacy(0.25, 0.5), "bland", default=True),
    "optimal_approx": Method(
        _ALL, lambda scenario, n, moments: approx_weight(scenario, n),
        "optimal_approx", default=True),
    "optimal_exact": Method(_ALL, _optimal_exact, "optimal_exact"),
}

# The methods that estimate a mean from a summary alone.
SUMMARY_METHODS = tuple(name for name, m in METHODS.items() if m.weights is not None)

# The sampling distributions a simulation compares the methods on, in the order
# of `simulation`'s rows for them. It and `PROFILES` are stated here, beside the
# method tables, so a parser can offer them without importing `simulation` or
# `meta`; each of those exports its table.
DISTRIBUTION_KINDS = ("normal", "lognormal", "beta", "exponential", "weibull")


def lookup_method(name: str, scenario, table=METHODS):
    """The ``table`` (`METHODS` or `SD_METHODS`) row for ``name``: ValueError
    if there is none, ScenarioError if it does not apply to ``scenario``."""
    scenario = Scenario.parse(scenario)
    method = table.get(name)
    if method is None:
        raise ValueError(f"unknown method {name!r}")
    if scenario not in method.scenarios:
        raise ScenarioError(
            f"method {name!r} does not apply to scenario {scenario.value}"
        )
    return method


def combine(weights: WeightSet, mid_range, mid_quartile, median):
    """The weighted estimate from its parts, for floats and arrays alike.

    The weighted parts of the scenario are added left to right, median last.
    A part the weights' scenario does not use is ignored and may be None.
    """
    parts = (mid_range, mid_quartile, median)
    return reduce(operator.add, (w * parts[k] for w, k in
                                 zip(weights.part_weights, weights.scenario.parts)))


def mean_weighted(summary: FiveNumberSummary, weights: WeightSet,
                  method: str = "custom_weight") -> Estimate:
    """Weighted mean estimate; ``method`` labels the result."""
    if weights.scenario is not summary.scenario:
        raise ScenarioError(
            f"weight set is for scenario {weights.scenario.value} but the summary "
            f"is {summary.scenario.value}"
        )
    if weights.n != summary.n:
        raise ValueError(
            f"weight set is for n={weights.n} but the summary has n={summary.n}"
        )
    value = combine(weights, *summary_parts(*summary.values()))
    return Estimate(value, method, weights)


def estimate_mean(summary: FiveNumberSummary, method: str,
                  moments: Optional[OrderStatMoments] = None) -> Estimate:
    """Mean estimate of ``summary`` by the `METHODS` estimator ``method``.

    ``moments`` feed ``optimal_exact`` only; without them it integrates the
    moments at the summary's n by quadrature.
    """
    row = lookup_method(method, summary.scenario)
    if row.weights is None:
        raise ValueError(f"method {method!r} needs the full sample, not a summary")
    return mean_weighted(summary, row.weights(summary.scenario, summary.n, moments),
                         row.label)


_HOZO_MODES = {"thresholded": "hozo", "unconditional": "hozo_as_applied"}


def mean_hozo(summary: FiveNumberSummary, mode: str = "thresholded") -> Estimate:
    """Hozo's S1 estimator.

    ``thresholded`` applies (a + 2m + b)/4 for n <= 25 and the bare median
    above; ``unconditional`` applies (a + 2m + b)/4 at every n, which is how
    the rule is commonly applied in published pooled analyses.
    """
    if mode not in _HOZO_MODES:
        raise ValueError(f"unknown hozo mode {mode!r}")
    return estimate_mean(summary, _HOZO_MODES[mode])


def mean_wan_s2(summary: FiveNumberSummary) -> Estimate:
    """The equal-weight S2 estimator (q1 + m + q3)/3, i.e. w = 2/3."""
    return estimate_mean(summary, "wan")


def mean_bland(summary: FiveNumberSummary) -> Estimate:
    """The fixed-weight S3 estimator (a + 2 q1 + 2m + 2 q3 + b)/8."""
    return estimate_mean(summary, "bland")


def mean_optimal(summary: FiveNumberSummary, source: str = "approx",
                 moments: Optional[OrderStatMoments] = None) -> Estimate:
    """Size-adaptive optimally weighted mean estimate.

    ``source='approx'`` uses the closed-form weights and works for any
    n >= 5. ``source='exact'`` needs order-statistic ``moments`` for the
    summary's n (which restricts n to the 4Q + 1 sizes).
    """
    if source not in ("approx", "exact"):
        raise ValueError(f"unknown weight source {source!r}")
    if source == "exact" and moments is None:
        raise ValueError("source='exact' requires order-statistic moments")
    return estimate_mean(summary, f"optimal_{source}", moments)


# ---------------------------------------------------------------------------
# standard deviation estimators


def wan_sd_from_extremes(minimum: float, maximum: float, n: int) -> float:
    """Quantile-based SD estimate from the range: (b - a) / (2 z_n).

    z_n is the expected standardized position of the extremes,
    normal_quantile((n - 0.375) / (n + 0.25)), taken in the complement form
    -normal_quantile(0.625 / (n + 0.25)): the upper-tail argument rounds
    away its digits as n grows and reaches 1.0 from n ~ 1.6e16.
    """
    _check_sd_inputs(minimum, maximum, n)
    return (maximum - minimum) / (-2.0 * normal_quantile(0.625 / (n + 0.25)))


def wan_sd_from_quartiles(q1: float, q3: float, n: int) -> float:
    """Quantile-based SD estimate from the interquartile range."""
    _check_sd_inputs(q1, q3, n)
    return (q3 - q1) / (2.0 * normal_quantile((0.75 * n - 0.125) / (n + 0.25)))


def hozo_sd_from_range(minimum: float, maximum: float, n: int,
                       median: Optional[float] = None) -> float:
    """Hozo's stepwise SD rules from the range.

    n <= 15 uses sqrt(((a - 2m + b)^2 / 4 + (b - a)^2) / 12) and therefore
    needs the median; 15 < n <= 70 uses range/4; larger n uses range/6.
    """
    _check_sd_inputs(minimum, maximum, n)
    width = maximum - minimum
    if n <= 15:
        if median is None:
            raise ValueError("hozo SD needs the median when n <= 15")
        spread = minimum - 2.0 * median + maximum
        return ((spread * spread / 4.0 + width * width) / 12.0) ** 0.5
    return width / 4.0 if n <= 70 else width / 6.0


def _wan_sd(summary: FiveNumberSummary) -> float:
    # the range for S1, the interquartile range for S2, their average for S3
    if summary.scenario is Scenario.S1:
        return wan_sd_from_extremes(summary.minimum, summary.maximum, summary.n)
    if summary.scenario is Scenario.S2:
        return wan_sd_from_quartiles(summary.q1, summary.q3, summary.n)
    return 0.5 * (wan_sd_from_extremes(summary.minimum, summary.maximum, summary.n)
                  + wan_sd_from_quartiles(summary.q1, summary.q3, summary.n))


@dataclass(frozen=True)
class SdMethod:
    """One SD rule: the scenarios it applies to, its value on a summary,
    its value from ``(minimum, maximum, n)`` alone, and its output label."""

    scenarios: frozenset
    on_summary: Callable[[FiveNumberSummary], float]
    from_range: Callable[[float, float, int], float]
    label: str


SD_METHODS = {
    # Wan et al. 2014 (BMC Med Res Methodol 14:135); `sd_estimate`'s default
    "wan": SdMethod(_ALL, _wan_sd, wan_sd_from_extremes, "wan_sd"),
    # Hozo et al. 2005 (BMC Med Res Methodol 5:13): stepwise range rules
    "hozo": SdMethod(
        frozenset({Scenario.S1}),
        lambda s: hozo_sd_from_range(s.minimum, s.maximum, s.n, median=s.median),
        hozo_sd_from_range, "hozo_sd"),
}

# (mean method, SD method) pairs for the two published conversion styles of a
# meta-analysis: table2 reproduces the stepwise legacy conversion, table3 the
# size-adaptive one.
PROFILES = {
    "table2": ("hozo_as_applied", "hozo"),
    "table3": ("optimal_approx", "wan"),
}


def sd_estimate(summary: FiveNumberSummary,
                method: str = next(iter(SD_METHODS))) -> Estimate:
    """Standard deviation estimate of ``summary`` by the `SD_METHODS` rule
    ``method``."""
    row = lookup_method(method, summary.scenario, SD_METHODS)
    return Estimate(row.on_summary(summary), row.label)


def _check_sd_inputs(lower: float, upper: float, n: int):
    check_sample_size(n)
    if upper < lower:
        raise ValueError(f"summary values out of order: {lower} > {upper}")
