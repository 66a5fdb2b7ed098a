"""Optimal weights, approximations, and the power-law refits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optmean.errors import FitConvergenceError, NumericalError, ScenarioError
from optmean.order_stats import OrderStatMoments, moments_quadrature
from optmean.weights import (
    FitCoefficients,
    Scenario,
    WeightSet,
    approx_weight,
    fit_power_law,
    optimal_weight_s1,
    optimal_weight_s2,
    optimal_weights_s3,
    weighted_mse,
)

# Direct evaluations of the closed-form approximations, frozen.
APPROX_S1_N25 = 0.2634987114678513
APPROX_S2_N5 = 0.778
APPROX_S3_N5 = (0.3968467620642301, 0.40290250225396557)


def _affine_moments(m: OrderStatMoments, mu: float, sigma: float) -> OrderStatMoments:
    """Moments of mu + sigma * Z built from the standardized moments."""
    means = {i: mu + sigma * v for i, v in m.means.items()}
    second = {
        pair: mu * mu + mu * sigma * (m.means[pair[0]] + m.means[pair[1]])
        + sigma * sigma * v
        for pair, v in m.second_moments.items()
    }
    return OrderStatMoments(n=m.n, means=means, second_moments=second,
                            backend=m.backend, std_error=m.std_error)


class TestWeightSet:
    def test_single_weight_scenarios(self):
        ws = WeightSet(Scenario.S1, 25, 0.3)
        assert ws.w == 0.3
        assert ws.median_weight == 0.7

    def test_s3_needs_two_weights(self):
        with pytest.raises(ScenarioError):
            WeightSet(Scenario.S3, 25, 0.3)
        with pytest.raises(ScenarioError):
            WeightSet(Scenario.S1, 25, 0.3, 0.4)

    def test_unknown_scenario_refused(self):
        with pytest.raises(ScenarioError,
                           match="unknown scenario 's4'; expected s1, s2 or s3"):
            Scenario.parse("s4")

    def test_w_accessor_rejected_for_s3(self):
        ws = WeightSet(Scenario.S3, 25, 0.3, 0.4)
        with pytest.raises(ScenarioError):
            ws.w

    @pytest.mark.parametrize("w1,w2", [(-0.1, None), (1.2, None), (0.6, 0.6)])
    def test_invalid_weights(self, w1, w2):
        scenario = Scenario.S3 if w2 is not None else Scenario.S1
        with pytest.raises(ValueError):
            WeightSet(scenario, 25, w1, w2)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            WeightSet(Scenario.S1, 25, 0.3, source="guessed")


class TestApproxWeight:
    def test_s1_frozen_value(self):
        assert approx_weight("s1", 25).w == pytest.approx(APPROX_S1_N25, abs=1e-12)

    def test_s2_frozen_value(self):
        assert approx_weight("s2", 5).w == pytest.approx(APPROX_S2_N5, abs=1e-12)

    def test_s3_frozen_values(self):
        ws = approx_weight("s3", 5)
        assert ws.w1 == pytest.approx(APPROX_S3_N5[0], abs=1e-12)
        assert ws.w2 == pytest.approx(APPROX_S3_N5[1], abs=1e-12)

    def test_accepts_sizes_off_the_4q1_grid(self):
        ws = approx_weight("s1", 40)
        assert 0 < ws.w < 1
        assert ws.source == "approx"

    @pytest.mark.parametrize("n", [4, 3, 0, -5, pytest.param(10**400, id="1e400")])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            approx_weight("s1", n)

    def test_equals_written_out_closed_forms_bitwise(self):
        for n in range(5, 20001):
            assert approx_weight("s1", n).w == 4.0 / (4.0 + n ** 0.75)
            assert approx_weight("s2", n).w == 0.7 + 0.39 / n
            ws = approx_weight("s3", n)
            assert ws.w1 == 2.2 / (2.2 + n ** 0.75)
            assert ws.w2 == 0.7 - 0.72 / n ** 0.55


class TestOptimalWeights:
    @pytest.mark.parametrize("n,gold", [(5, 0.5514), (25, 0.2642)])
    def test_s1_matches_published(self, n, gold):
        assert optimal_weight_s1(moments_quadrature(n)).w == pytest.approx(
            gold, abs=0.002)

    @pytest.mark.parametrize("n,gold", [(5, 0.7786), (25, 0.7150)])
    def test_s2_matches_published(self, n, gold):
        assert optimal_weight_s2(moments_quadrature(n)).w == pytest.approx(
            gold, abs=0.002)

    def test_s3_equal_split_at_n5(self):
        # with the whole sample reported, the best estimator is the sample
        # mean, i.e. weight 0.2 per observation
        ws = optimal_weights_s3(moments_quadrature(5))
        assert ws.w1 == pytest.approx(0.4, abs=0.002)
        assert ws.w2 == pytest.approx(0.4, abs=0.002)

    @pytest.mark.parametrize("n", [5, 25, 101])
    def test_minimizer_beats_weight_grid_s1_s2(self, n):
        m = moments_quadrature(n)
        for compute, scenario in [(optimal_weight_s1, Scenario.S1),
                                  (optimal_weight_s2, Scenario.S2)]:
            best = weighted_mse(compute(m), m)
            for k in range(101):
                candidate = WeightSet(scenario, n, k / 100.0)
                assert best <= weighted_mse(candidate, m) + 1e-15

    @pytest.mark.parametrize("n", [5, 25, 101])
    def test_minimizer_beats_weight_grid_s3(self, n):
        m = moments_quadrature(n)
        best = weighted_mse(optimal_weights_s3(m), m)
        for i in range(101):
            for j in range(101 - i):
                candidate = WeightSet(Scenario.S3, n, i / 100.0, j / 100.0)
                assert best <= weighted_mse(candidate, m) + 1e-15

    def test_inconsistent_moments_rejected(self):
        m = moments_quadrature(5)
        # inflate the cross moments until the MSE curvature turns negative
        second = dict(m.second_moments)
        second[(1, 3)] = 5.0
        second[(3, 5)] = 5.0
        broken = OrderStatMoments(n=5, means=m.means, second_moments=second,
                                  backend=m.backend, std_error=m.std_error)
        with pytest.raises(NumericalError):
            optimal_weight_s1(broken)
        with pytest.raises(NumericalError):
            optimal_weights_s3(broken)

    def test_mse_of_moments_for_another_size_refused(self):
        with pytest.raises(ValueError,
                           match="weight set is for n=9 but moments are for n=5"):
            weighted_mse(WeightSet(Scenario.S1, 9, 0.3), moments_quadrature(5))

    @given(mu=st.floats(min_value=-50, max_value=50),
           log2_sigma=st.integers(min_value=-3, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, mu, log2_sigma):
        m = moments_quadrature(25)
        scaled = _affine_moments(m, mu, 2.0 ** log2_sigma)
        base_s1 = optimal_weight_s1(m)
        base_s3 = optimal_weights_s3(m)
        got_s1 = optimal_weight_s1(scaled)
        got_s3 = optimal_weights_s3(scaled)
        if mu == 0.0:
            # power-of-two scale: every aggregate is scaled exactly, so the
            # weight ratios are identical to the last bit
            assert got_s1.w == base_s1.w
            assert (got_s3.w1, got_s3.w2) == (base_s3.w1, base_s3.w2)
        else:
            assert got_s1.w == pytest.approx(base_s1.w, rel=1e-9)
            assert got_s3.w1 == pytest.approx(base_s3.w1, rel=1e-9, abs=1e-9)
            assert got_s3.w2 == pytest.approx(base_s3.w2, rel=1e-9)


def _hand_expanded(m: OrderStatMoments):
    """S1, S2 and S3 weights and MSE forms written out in the six aggregate
    moments of (a + b, q1 + q3, m): the closed forms the solver replaces."""
    lo, q1, md, q3, hi = m.index_set.indices
    a = m.var(lo) + m.var(hi) + 2.0 * m.cov(lo, hi)
    b = m.var(q1) + m.var(q3) + 2.0 * m.cov(q1, q3)
    c = m.var(md)
    d = m.cov(lo, q1) + m.cov(lo, q3) + m.cov(hi, q1) + m.cov(hi, q3)
    e = m.cov(lo, md) + m.cov(hi, md)
    f = m.cov(q1, md) + m.cov(q3, md)
    s1 = (4.0 * c - 2.0 * e) / (a + 4.0 * c - 4.0 * e)
    s2 = (4.0 * c - 2.0 * f) / (b + 4.0 * c - 4.0 * f)
    m11 = a + 4.0 * c - 4.0 * e
    m22 = b + 4.0 * c - 4.0 * f
    m12 = 4.0 * c + d - 2.0 * e - 2.0 * f
    det = m11 * m22 - m12 * m12
    r1 = 4.0 * c - 2.0 * e
    r2 = 4.0 * c - 2.0 * f
    w1 = (m22 * r1 - m12 * r2) / det
    w2 = (m11 * r2 - m12 * r1) / det
    rest = 1.0 - w1 - w2
    mse = (0.25 * s1 * s1 * a + (1 - s1) ** 2 * c + s1 * (1 - s1) * e,
           0.25 * s2 * s2 * b + (1 - s2) ** 2 * c + s2 * (1 - s2) * f,
           0.25 * w1 * w1 * a + 0.25 * w2 * w2 * b + rest * rest * c
           + 0.5 * w1 * w2 * d + w1 * rest * e + w2 * rest * f)
    return (s1, s2, w1, w2), mse


class TestSolver:
    def test_matches_hand_expanded_formulas(self, quad_grid_501):
        for n, m in quad_grid_501.items():
            (s1, s2, w1, w2), mse = _hand_expanded(m)
            got = (optimal_weight_s1(m), optimal_weight_s2(m), optimal_weights_s3(m))
            assert abs(got[0].w - s1) <= 1e-14, n
            assert abs(got[1].w - s2) <= 1e-14, n
            assert abs(got[2].w1 - w1) <= 1e-14, n
            assert abs(got[2].w2 - w2) <= 1e-14, n
            for ws, want in zip(got, mse):
                assert abs(weighted_mse(ws, m) - want) <= 1e-14, n

    def test_weight_outside_unit_interval_rejected(self):
        # positive definite, but the S3 optimum puts a negative weight on
        # the median
        m = moments_quadrature(9)
        second = dict(m.second_moments)
        second[(1, 5)] = second[(5, 9)] = 0.16
        skewed = OrderStatMoments(n=9, means=m.means, second_moments=second,
                                  backend=m.backend, std_error=m.std_error)
        assert 0.0 < optimal_weight_s1(skewed).w < 1.0
        with pytest.raises(NumericalError, match="outside"):
            optimal_weights_s3(skewed)


class TestGridBehaviour:
    def test_s1_weight_strictly_decreases(self, quad_grid_501):
        ws = [optimal_weight_s1(m).w for _, m in sorted(quad_grid_501.items())]
        assert all(b < a for a, b in zip(ws, ws[1:]))

    def test_s3_weights_move_to_their_bounds(self, quad_grid_501):
        pairs = [optimal_weights_s3(m) for _, m in sorted(quad_grid_501.items())]
        w1s = [p.w1 for p in pairs]
        w2s = [p.w2 for p in pairs]
        assert all(b < a for a, b in zip(w1s, w1s[1:]))
        assert w1s[-1] < 0.025
        assert all(b > a for a, b in zip(w2s, w2s[1:]))
        assert 0.66 <= w2s[-1] <= 0.70

    def test_approximations_track_exact_weights(self, quad_grid_101):
        errs1, errs2, errs3a, errs3b = [], [], [], []
        for n, m in sorted(quad_grid_101.items()):
            errs1.append(abs(approx_weight("s1", n).w - optimal_weight_s1(m).w))
            errs2.append(abs(approx_weight("s2", n).w - optimal_weight_s2(m).w))
            exact3 = optimal_weights_s3(m)
            approx3 = approx_weight("s3", n)
            errs3a.append(abs(approx3.w1 - exact3.w1))
            errs3b.append(abs(approx3.w2 - exact3.w2))
        assert max(errs1) <= 0.02
        assert max(errs2) <= 0.02
        assert max(errs3a) <= 0.03
        assert max(errs3b) <= 0.03

    def test_mirror_symmetry_quadrature_full_grid(self, quad_grid_501):
        for n, m in quad_grid_501.items():
            idx = m.index_set
            bound = 3 * m.std_error
            assert abs(m.mean(idx.minimum) + m.mean(idx.maximum)) <= bound
            assert abs(m.mean(idx.lower_quartile) + m.mean(idx.upper_quartile)) \
                <= bound
            assert abs(m.mean(idx.median)) <= bound
            assert abs(m.second_moment(idx.minimum, idx.lower_quartile)
                       - m.second_moment(idx.upper_quartile, idx.maximum)) <= 2 * bound
            assert abs(m.second_moment(idx.minimum, idx.median)
                       - m.second_moment(idx.median, idx.maximum)) <= 2 * bound


class TestFitPowerLaw:
    def test_s1_recovers_published_coefficients(self, quad_grid_101):
        grid = [(n, optimal_weight_s1(m).w) for n, m in sorted(quad_grid_101.items())]
        fit = fit_power_law(grid, "s1")
        assert fit.c1 == pytest.approx(4.0, abs=0.5)
        assert fit.c2 == pytest.approx(-0.75, abs=0.05)
        assert fit.residual < 1e-3

    def test_s2_recovers_published_coefficients(self, quad_grid_101):
        grid = [(n, optimal_weight_s2(m).w) for n, m in sorted(quad_grid_101.items())]
        fit = fit_power_law(grid, "s2")
        assert fit.c1 == pytest.approx(0.39, abs=0.05)
        assert fit.c2 == pytest.approx(-1.0, abs=0.1)

    def test_s3_recovers_published_coefficients(self, quad_grid_101):
        grid = []
        for n, m in sorted(quad_grid_101.items()):
            ws = optimal_weights_s3(m)
            grid.append((n, ws.w1, ws.w2))
        fit = fit_power_law(grid, "s3")
        for got, want in [(fit.c1, 2.2), (fit.c2, 0.75), (fit.c3, 0.72),
                          (fit.c4, 0.55)]:
            assert got == pytest.approx(want, rel=0.15)

    def test_underdetermined_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_power_law([(5, 0.55), (9, 0.43), (13, 0.37)], "s1")

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(5, 0.55), (9, 0.43), (13, 0.37), (17, 1.4)], "s1")
        with pytest.raises(ValueError):
            fit_power_law([(5, 0.4, 0.4)] * 5, "s1")
        with pytest.raises(ValueError):
            fit_power_law([(2, 0.5), (9, 0.4), (13, 0.37), (17, 0.32)], "s1")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        grid = [(5, 0.55), (9, 0.43), (13, bad), (17, 0.32)]
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(grid, "s1")
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([(n, 0.3, w) for n, w in grid], "s3")

    def test_fit_on_exact_model_is_tight(self):
        ns = np.arange(5, 102, 4)
        grid = [(int(n), 0.7 + 0.39 * float(n) ** -1.0) for n in ns]
        fit = fit_power_law(grid, "s2")
        assert fit.c1 == pytest.approx(0.39, abs=1e-6)
        assert fit.c2 == pytest.approx(-1.0, abs=1e-6)
        assert fit.residual < 1e-16
        assert isinstance(fit, FitCoefficients)

    @pytest.mark.parametrize("scenario,published", [
        ("s1", (4.0, -0.75)), ("s3", (2.2, 0.75, 0.72, 0.55))])
    def test_fit_on_approx_table_recovers_published(self, scenario, published):
        grid = []
        for n in range(5, 102, 4):
            ws = approx_weight(scenario, n)
            grid.append((n, ws.w1) if ws.w2 is None else (n, ws.w1, ws.w2))
        fit = fit_power_law(grid, scenario)
        coeffs = [c for c in (fit.c1, fit.c2, fit.c3, fit.c4) if c is not None]
        assert coeffs == pytest.approx(published, abs=1e-6)
        assert fit.residual < 1e-16

    def test_nonconvergence_reports_best_effort(self):
        # weights that no monotone power law can chase: alternate extremes
        grid = [(n, 0.9 if k % 2 else 0.05) for k, n in enumerate(range(5, 42, 4))]
        try:
            fit = fit_power_law(grid, "s2")
        except FitConvergenceError as exc:
            assert exc.best is not None
            assert math.isfinite(exc.best.residual)
        else:
            # a converged least-squares answer is also acceptable; it just
            # has to report an honest (large) residual
            assert fit.residual > 0.1
