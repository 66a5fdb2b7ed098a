"""Optimal and approximate weights for summary-based mean estimators.

For a normal sample reported only through parts of its five-number summary,
the sample mean is estimated as a convex combination of the mid-range
(a + b)/2, the mid-quartile range (q1 + q3)/2, and the median. The weights
minimising the estimator's mean squared error depend only on the sample
size and are computed here from standardized order-statistic moments,
together with the closed-form power-law approximations that track them,
which `approx_weight` and `fit_power_law` read from one table.

Scenarios name which fragment a study reports:

* S1: minimum, median, maximum (plus n)
* S2: first quartile, median, third quartile (plus n)
* S3: the full five-number summary (plus n)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import FitConvergenceError, NumericalError, ScenarioError
from .order_stats import OrderStatMoments, check_sample_size

__all__ = [
    "Scenario",
    "WeightSet",
    "FitCoefficients",
    "optimal_weight_s1",
    "optimal_weight_s2",
    "optimal_weights_s3",
    "optimal_weights",
    "approx_weight",
    "weighted_mse",
    "fit_power_law",
]


class Scenario(str, Enum):
    """Which part of the five-number summary a study reports."""

    S1 = "s1"
    S2 = "s2"
    S3 = "s3"

    @classmethod
    def parse(cls, value) -> "Scenario":
        if isinstance(value, Scenario):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ScenarioError(f"unknown scenario {value!r}; expected s1, s2 or s3")

    @property
    def parts(self) -> list[int]:
        """Positions in `order_stats.summary_parts` of the parts this
        scenario reports; the last one is always the median."""
        return _PARTS[self]


_PARTS = {
    Scenario.S1: [0, 2],
    Scenario.S2: [1, 2],
    Scenario.S3: [0, 1, 2],
}


@dataclass(frozen=True)
class WeightSet:
    """Scenario weights for the weighted mean estimators.

    ``w1`` is the weight on the mid-range for S1 and S3 and on the
    mid-quartile range for S2; ``w2`` (S3 only) is the weight on the
    mid-quartile range. The remaining weight 1 - w1 - w2 falls on the
    median. ``n`` passes `check_sample_size`.
    """

    scenario: Scenario
    n: int
    w1: float
    w2: Optional[float] = None
    source: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario.parse(self.scenario))
        object.__setattr__(self, "n", check_sample_size(self.n))
        if self.source not in ("exact", "approx", "legacy", "custom"):
            raise ValueError(f"unknown weight source {self.source!r}")
        if self.scenario is Scenario.S3:
            if self.w2 is None:
                raise ScenarioError("scenario s3 requires both w1 and w2")
        elif self.w2 is not None:
            raise ScenarioError(f"scenario {self.scenario.value} takes a single weight")
        *weights, median_weight = self.part_weights
        for value in weights:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"weights must lie in [0, 1], got {value!r}")
        # tiny slack for rounding at the simplex boundary w1 + w2 = 1
        if median_weight < -1e-12:
            raise ValueError("weights must leave a nonnegative share for the median")

    @property
    def w(self) -> float:
        """The single weight of an S1/S2 weight set."""
        if self.scenario is Scenario.S3:
            raise ScenarioError("scenario s3 carries two weights; use w1 and w2")
        return self.w1

    @property
    def median_weight(self) -> float:
        return 1.0 - self.w1 - (self.w2 or 0.0)

    @property
    def part_weights(self) -> tuple[float, ...]:
        """The weights on ``scenario.parts``, in that order, median last."""
        return (*(w for w in (self.w1, self.w2) if w is not None), self.median_weight)


def _parts_covariance(moments: OrderStatMoments, scenario: Scenario) -> np.ndarray:
    return moments.summary_covariance()[np.ix_(scenario.parts, scenario.parts)]


def optimal_weights(moments: OrderStatMoments, scenario) -> WeightSet:
    """MSE-minimising weights on the parts a scenario reports.

    For parts with covariance C, c = C^-1 1 / (1' C^-1 1) minimises
    Var(c' parts) subject to sum(c) = 1 (Lloyd 1952, Biometrika 39). A C
    that is not positive definite (Cholesky fails) or a weight outside
    (0, 1) means the moments are inconsistent: `NumericalError`.
    """
    scenario = Scenario.parse(scenario)
    cov = _parts_covariance(moments, scenario)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"covariance of the {scenario.value} summary parts at n={moments.n} "
            "is not positive definite; the input moments are inconsistent"
        ) from None
    c = np.linalg.solve(cov, np.ones(len(cov)))
    c /= c.sum()
    if not np.all((c > 0.0) & (c < 1.0)):
        raise NumericalError(
            f"optimal weights {c.tolist()} for {scenario.value} at n={moments.n} "
            "fall outside (0, 1); the input moments are inconsistent"
        )
    return WeightSet(scenario, moments.n, *(float(v) for v in c[:-1]),
                     source="exact")


def optimal_weight_s1(moments: OrderStatMoments) -> WeightSet:
    """MSE-minimising weight on the mid-range for scenario S1."""
    return optimal_weights(moments, Scenario.S1)


def optimal_weight_s2(moments: OrderStatMoments) -> WeightSet:
    """MSE-minimising weight on the mid-quartile range for scenario S2."""
    return optimal_weights(moments, Scenario.S2)


def optimal_weights_s3(moments: OrderStatMoments) -> WeightSet:
    """MSE-minimising weight pair (mid-range, mid-quartile range) for S3."""
    return optimal_weights(moments, Scenario.S3)


# Per scenario: the printed model form and, per weight series, the model
# w(n, a, b) with its published (a, b), at which it gives the closed form
# of `approx_weight` bit for bit; `fit_power_law` starts from them.
_POWER_LAWS = {
    Scenario.S1: ("w(n) = c1*n^c2 / (1 + c1*n^c2)",
                  [(lambda n, c1, c2: c1 / (c1 + n ** -c2), (4.0, -0.75))]),
    Scenario.S2: ("w(n) = 0.7 + c1*n^c2",
                  [(lambda n, c1, c2: 0.7 + c1 / n ** -c2, (0.39, -1.0))]),
    Scenario.S3: ("w1(n) = c1 / (c1 + n^c2);  w2(n) = 0.7 - c3 / n^c4",
                  [(lambda n, c1, c2: c1 / (c1 + n ** c2), (2.2, 0.75)),
                   (lambda n, c3, c4: 0.7 - c3 / n ** c4, (0.72, 0.55))]),
}


def approx_weight(scenario, n: int) -> WeightSet:
    """Closed-form power-law approximations to the optimal weights.

    S1: 4 / (4 + n^0.75)
    S2: 0.7 + 0.39 / n
    S3: (2.2 / (2.2 + n^0.75), 0.7 - 0.72 / n^0.55)

    These are the `_POWER_LAWS` models at their published coefficients.
    Unlike the exact weights they accept any n of `check_sample_size`; below
    the fitted range they are undefined and refused.
    """
    scenario = Scenario.parse(scenario)
    n = check_sample_size(n)
    return WeightSet(scenario, n, *(model(n, *coeffs)
                                    for model, coeffs in _POWER_LAWS[scenario][1]),
                     source="approx")


def weighted_mse(weights: WeightSet, moments: OrderStatMoments) -> float:
    """MSE of the weighted estimator, in units of sigma^2: w' C w.

    w holds the weights on the scenario's parts, median last, and C is
    their covariance.
    """
    if weights.n != moments.n:
        raise ValueError(
            f"weight set is for n={weights.n} but moments are for n={moments.n}"
        )
    w = np.array(weights.part_weights)
    return float(w @ _parts_covariance(moments, weights.scenario) @ w)


# ---------------------------------------------------------------------------
# power-law fitting

_GN_MAX_ITER, _GN_STEP_TOL = 200, 1e-12


@dataclass(frozen=True)
class FitCoefficients:
    """Fitted coefficients of the per-scenario weight approximations.

    ``model`` spells out the functional form the coefficients plug into;
    ``residual`` is the total sum of squared weight errors over the fit
    grid (both weight series for S3).
    """

    scenario: Scenario
    model: str
    c1: float
    c2: float
    c3: Optional[float] = None
    c4: Optional[float] = None
    residual: float = 0.0


def _gauss_newton(model, n, y, theta0):
    """Damped Gauss-Newton on weight residuals; returns (theta, sse, converged).

    Central-difference Jacobian, step 1e-6 * max(1, |theta_k|); a candidate
    that overflows has a non-finite SSE and is rejected like a worse one.
    """
    theta = np.asarray(theta0, dtype=float)
    resid = model(n, *theta) - y
    sse = float(resid @ resid)
    for _ in range(_GN_MAX_ITER):
        dt = 1e-6 * np.maximum(1.0, np.abs(theta))
        j = np.column_stack([(model(n, *(theta + dk * e)) - model(n, *(theta - dk * e)))
                             / (2.0 * dk) for dk, e in zip(dt, np.eye(len(theta)))])
        g = j.T @ resid
        h = j.T @ j
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, g, rcond=None)[0]
        scale = 1.0
        for _ in range(30):
            cand = theta - scale * step
            with np.errstate(over="ignore", invalid="ignore"):
                cand_resid = model(n, *cand) - y
                cand_sse = float(cand_resid @ cand_resid)
            if cand_sse <= sse:
                break
            scale *= 0.5
        else:
            return theta, sse, False
        moved = np.max(np.abs(scale * step) / (1.0 + np.abs(theta)))
        theta, resid, sse = cand, cand_resid, cand_sse
        if moved < _GN_STEP_TOL:
            return theta, sse, True
    return theta, sse, False


def fit_power_law(grid: Sequence[tuple], scenario) -> FitCoefficients:
    """Refit the weight approximations to a table of true weights.

    ``grid`` holds ``(n, w)`` rows for S1/S2 and ``(n, w1, w2)`` rows for
    S3. The criterion is unweighted least squares on the weights, solved by
    damped Gauss-Newton from the published coefficients. Fewer than four
    rows leave the two-parameter models underdetermined and are refused;
    a fit that stalls raises ``FitConvergenceError`` carrying the best
    coefficients found so far.
    """
    scenario = Scenario.parse(scenario)
    rows = list(grid)
    if len(rows) < 4:
        raise ValueError(
            f"need at least 4 grid points to fit, got {len(rows)}"
        )
    form, series = _POWER_LAWS[scenario]
    want = 1 + len(series)
    for row in rows:
        if len(row) != want:
            raise ValueError(
                f"scenario {scenario.value} expects rows of length {want}, got {row!r}"
            )
    n = np.array([float(check_sample_size(r[0])) for r in rows])
    ys = [np.array([float(r[k]) for r in rows]) for k in range(1, want)]
    for y in ys:
        if not np.all((y >= 0.0) & (y <= 1.0)):
            raise ValueError("grid weights must be finite and lie in [0, 1]")

    coeffs, residual, converged = [], 0.0, True
    for y, (model, start) in zip(ys, series):
        theta, sse, ok = _gauss_newton(model, n, y, start)
        coeffs.extend(theta)
        residual += sse
        converged = converged and ok
    coeff = FitCoefficients(scenario, form, *coeffs, residual=residual)
    if not converged:
        raise FitConvergenceError(
            f"power-law fit for {scenario.value} did not converge; "
            f"best residual {coeff.residual:g}", best=coeff)
    if not math.isfinite(coeff.residual):
        raise FitConvergenceError(
            f"power-law fit for {scenario.value} diverged", best=coeff)
    return coeff
