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
import operator
from enum import Enum
from functools import reduce
from typing import Optional, Sequence

from ._value import Value
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


class WeightSet(Value):
    """Scenario weights for the weighted mean estimators.

    ``w1`` is the weight on the mid-range for S1 and S3 and on the
    mid-quartile range for S2; ``w2`` (S3 only) is the weight on the
    mid-quartile range. The remaining weight 1 - w1 - w2 falls on the
    median. ``n`` passes `check_sample_size`.
    """

    _fields = ("scenario", "n", "w1", "w2", "source")

    def __init__(self, scenario: Scenario, n: int, w1: float, w2: Optional[float] = None,
                 source: str = "exact"):
        self.__dict__.update(scenario=Scenario.parse(scenario), n=check_sample_size(n),
                             w1=w1, w2=w2, source=source)
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


def optimal_weights(moments: OrderStatMoments, scenario) -> WeightSet:
    """MSE-minimising weights on the parts a scenario reports.

    For parts with covariance C, c = C^-1 1 / (1' C^-1 1) minimises
    Var(c' parts) subject to sum(c) = 1 (Lloyd 1952, Biometrika 39). A C
    whose Cholesky factorisation meets a pivot that is not positive (or is
    NaN), or a weight outside (0, 1), means the moments are inconsistent:
    `NumericalError`. The weights are solved once per scenario of a moments
    instance, so a batch over cached moments solves each (scenario, n) once;
    a refusal is not kept.
    """
    scenario = Scenario.parse(scenario)
    if scenario not in moments._solved:
        moments._solved[scenario] = _solve(moments, scenario)
    return moments._solved[scenario]


def _solve(moments: OrderStatMoments, scenario: Scenario) -> WeightSet:
    parts, cov = scenario.parts, moments.parts_covariance
    cov = [[cov[i][j] for j in parts] for i in parts]
    if not _positive_definite(cov):
        raise NumericalError(
            f"covariance of the {scenario.value} summary parts at n={moments.n} "
            "is not positive definite; the input moments are inconsistent"
        )
    c = _lu_solve(cov, [1.0] * len(cov))
    total = reduce(operator.add, c)  # numpy's order here; `sum` compensates from 3.12
    c = [v / total for v in c]
    if not all(0.0 < v < 1.0 for v in c):
        raise NumericalError(
            f"optimal weights {c} for {scenario.value} at n={moments.n} "
            "fall outside (0, 1); the input moments are inconsistent"
        )
    return WeightSet(scenario, moments.n, *c[:-1], source="exact")


# ---------------------------------------------------------------------------
# the 2x2 and 3x3 solves in Python floats, in the operation order of the
# OpenBLAS dpotrf/dgesv kernels that numpy calls at these sizes, so that they
# give numpy's bits without loading it (`tests/test_exact_solve.py`)


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c with one rounding, as a hardware fma gives it (`math.fma` is
    new in Python 3.13).

    A zero ``c`` leaves the rounded product. Otherwise the sum is taken from
    the operands' exact integer ratios, whose integer true division rounds
    correctly. Zeros carry IEEE's signs: a zero product plus a zero ``c`` is
    left to float addition, and an exact cancellation is +0.0 as in
    hardware, so no zero that reaches a weight differs from numpy's. A
    non-finite operand follows IEEE arithmetic.
    """
    if not c:
        product = a * b
        return product if a and b else product + c
    try:
        (an, ad), (bn, bd), (cn, cd) = (a.as_integer_ratio(), b.as_integer_ratio(),
                                        c.as_integer_ratio())
    except (OverflowError, ValueError):  # an infinity or a NaN
        # the exact product of finite a and b leaves c, even where a * b overflows
        return c if math.isfinite(a) and math.isfinite(b) else a * b + c
    numerator = an * bn * cd + cn * ad * bd
    try:
        return numerator / (ad * bd * cd)
    except OverflowError:  # past the float range, so rounded to an infinity
        return math.inf if numerator > 0 else -math.inf


def _dot(xs, ys) -> float:
    """sum x * y as a chain of `_fma` from +0.0."""
    total = 0.0
    for x, y in zip(xs, ys):
        total = _fma(x, y, total)
    return total


def _positive_definite(a) -> bool:
    """Whether the lower Cholesky factorisation of the symmetric ``a`` runs:
    column by column, each pivot a[j][j] less the dot of its factor row with
    itself must be > 0 (a NaN pivot is refused too), and the column below it
    is (a[i][j] - dot of factor rows i and j) * (1 / sqrt(pivot))."""
    low = [[0.0] * len(a) for _ in a]
    for j, row in enumerate(a):
        pivot = row[j] - _dot(low[j][:j], low[j][:j])
        if not pivot > 0.0:
            return False
        low[j][j] = math.sqrt(pivot)
        scale = 1.0 / low[j][j]
        for i in range(j + 1, len(a)):
            low[i][j] = (a[i][j] - _dot(low[i][:j], low[j][:j])) * scale
    return True


def _lu_solve(a, b) -> list:
    """x with a x = b, by LU with partial pivoting as OpenBLAS dgesv runs it.

    Left-looking: column j first takes, for 1 <= i < j, the dot of row i of L
    with column j of U off a[i][j], then the same for i >= j. Its pivot is
    the first row of largest |a[i][j]|, swapped whole with its right-hand
    side, and the multipliers below it are scaled by 1 / pivot. The two
    triangular solves run column by column, each update one `_fma`.
    """
    a, x, size = [list(row) for row in a], list(b), len(a)
    for j in range(size):
        for i in range(1, size):
            a[i][j] -= _dot(a[i][:min(i, j)], [row[j] for row in a[:i]])
        pivot = max(range(j, size), key=lambda i: abs(a[i][j]))
        a[j], a[pivot], x[j], x[pivot] = a[pivot], a[j], x[pivot], x[j]
        scale = 1.0 / a[j][j]
        for i in range(j + 1, size):
            a[i][j] *= scale
    for i in range(size):
        for k in range(i + 1, size):
            x[k] = _fma(-x[i], a[k][i], x[k])
    for i in reversed(range(size)):
        x[i] /= a[i][i]
        for k in range(i):
            x[k] = _fma(-x[i], a[k][i], x[k])
    return x


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
    their covariance; (w'C) w is summed left to right.
    """
    if weights.n != moments.n:
        raise ValueError(f"weight set is for n={weights.n} but moments are for "
                         f"n={moments.n}")
    parts, w, cov = weights.scenario.parts, weights.part_weights, moments.parts_covariance
    return _dot_plain([_dot_plain(w, [cov[i][j] for i in parts]) for j in parts], w)


# ---------------------------------------------------------------------------
# power-law fitting in Python floats, as the solves above, so that the fit's
# bits follow no host's SIMD or BLAS kernels (`tests/test_corpus.py`)

_GN_MAX_ITER, _GN_STEP_TOL = 200, 1e-12


class FitCoefficients(Value):
    """Fitted coefficients of the per-scenario weight approximations.

    ``model`` spells out the functional form the coefficients plug into;
    ``residual`` is the total sum of squared weight errors over the fit
    grid (both weight series for S3).
    """

    _fields = ("scenario", "model", "c1", "c2", "c3", "c4", "residual")
    _defaults = {"c3": None, "c4": None, "residual": 0.0}


def _dot_plain(xs, ys) -> float:
    """sum x * y from 0.0, added left to right (`sum` compensates from 3.12)."""
    return reduce(operator.add, map(operator.mul, xs, ys), 0.0)


def _gauss_newton(model, n, y, theta0):
    """Damped Gauss-Newton on weight residuals; returns (theta, sse, converged).

    The Jacobian is central differences, step 1e-6 * max(1, |theta_k|), and
    J'J step = J'r is solved by `_lu_solve`; the SSE, J'r and J'J are each
    summed left to right by `_dot_plain`. A candidate whose model overflows
    or divides by zero has SSE inf and is rejected like a worse one. A
    singular J'J (a zero pivot), or an overflow at the start or in the
    Jacobian, stops the fit unconverged at the best theta so far.
    """
    theta, sse = [float(t) for t in theta0], math.inf
    try:
        resid = [model(x, *theta) - v for x, v in zip(n, y)]
        sse = _dot_plain(resid, resid)
        for _ in range(_GN_MAX_ITER):
            j = []
            for k, t in enumerate(theta):
                dk, up, down = 1e-6 * max(1.0, abs(t)), theta.copy(), theta.copy()
                up[k], down[k] = t + dk, t - dk
                j.append([(model(x, *up) - model(x, *down)) / (2.0 * dk) for x in n])
            step = _lu_solve([[_dot_plain(a, b) for b in j] for a in j],
                             [_dot_plain(a, resid) for a in j])
            for scale in (0.5 ** k for k in range(30)):
                cand = [t - scale * s for t, s in zip(theta, step)]
                try:
                    cand_resid = [model(x, *cand) - v for x, v in zip(n, y)]
                except (OverflowError, ZeroDivisionError):  # SSE inf: worse
                    continue
                if (cand_sse := _dot_plain(cand_resid, cand_resid)) <= sse:
                    break
            else:
                return theta, sse, False
            moved = max(abs(scale * s) / (1.0 + abs(t)) for t, s in zip(theta, step))
            theta, resid, sse = cand, cand_resid, cand_sse
            if moved < _GN_STEP_TOL:
                return theta, sse, True
    except (OverflowError, ZeroDivisionError):  # at the start, in J, or J'J singular
        pass
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
        raise ValueError(f"need at least 4 grid points to fit, got {len(rows)}")
    form, series = _POWER_LAWS[scenario]
    want = 1 + len(series)
    for row in rows:
        if len(row) != want:
            raise ValueError(f"scenario {scenario.value} expects rows of length "
                             f"{want}, got {row!r}")
    n = [float(check_sample_size(r[0])) for r in rows]
    ys = [[float(r[k]) for r in rows] for k in range(1, want)]
    if not all(0.0 <= v <= 1.0 for y in ys for v in y):
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
    return coeff
