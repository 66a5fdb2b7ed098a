"""Mean and SD estimators from summary fragments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optmean.errors import ScenarioError
from optmean.estimators import (
    SD_METHODS,
    FiveNumberSummary,
    combine,
    estimate_mean,
    hozo_sd_from_range,
    mean_bland,
    mean_hozo,
    mean_optimal,
    mean_wan_s2,
    mean_weighted,
    sd_estimate,
    wan_sd_from_extremes,
    wan_sd_from_quartiles,
)
from optmean.order_stats import moments_quadrature
from optmean.weights import Scenario, WeightSet, approx_weight

# Frozen direct evaluations (the two arms of the first bundled study).
OPTIMAL_S1_N40_CASES = 20.471145258650072
OPTIMAL_S1_N40_CONTROLS = 35.991340168596764
WAN_SD_N40_CASES = 16.694833748125745
HOZO_SD_N15_CASES = 21.275597328081453


def s1(n, a, m, b):
    return FiveNumberSummary(Scenario.S1, n, median=m, minimum=a, maximum=b)


def s2(n, q1, m, q3):
    return FiveNumberSummary(Scenario.S2, n, median=m, q1=q1, q3=q3)


def s3(n, a, q1, m, q3, b):
    return FiveNumberSummary(Scenario.S3, n, median=m, minimum=a, q1=q1,
                             q3=q3, maximum=b)


class TestFiveNumberSummary:
    def test_scenario_field_presence(self):
        with pytest.raises(ScenarioError):
            FiveNumberSummary(Scenario.S1, 9, median=2.0, minimum=1.0)
        with pytest.raises(ScenarioError):
            FiveNumberSummary(Scenario.S1, 9, median=2.0, minimum=1.0,
                              maximum=3.0, q1=1.5)
        with pytest.raises(ScenarioError):
            FiveNumberSummary(Scenario.S2, 9, median=2.0, q1=1.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            s1(9, 5.0, 2.0, 7.0)
        with pytest.raises(ValueError):
            s3(9, 0.0, 2.0, 1.0, 3.0, 4.0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            s1(4, 1.0, 2.0, 3.0)

    @pytest.mark.parametrize("a,m,b", [(1.0, math.nan, 3.0), (1.0, 2.0, math.inf),
                                       (-math.inf, 2.0, 3.0), (math.nan, 2.0, 3.0)])
    def test_non_finite_values_rejected(self, a, m, b):
        with pytest.raises(ValueError, match="finite"):
            s1(9, a, m, b)

    def test_present_values(self):
        assert s3(9, 0.0, 1.0, 2.0, 3.0, 4.0).present_values() == (0, 1, 2, 3, 4)
        assert s1(9, 0.0, 2.0, 4.0).present_values() == (0, 2, 4)


class TestHozo:
    def test_threshold_branches(self):
        summary = s1(40, 2.25, 16.0, 74.25)
        assert mean_hozo(summary, "thresholded").value == 16.0
        assert mean_hozo(summary, "unconditional").value == 27.125
        small = s1(25, 2.25, 16.0, 74.25)
        assert mean_hozo(small, "thresholded").value == 27.125

    def test_method_labels(self):
        summary = s1(40, 2.25, 16.0, 74.25)
        assert mean_hozo(summary).method == "hozo"
        assert mean_hozo(summary, "unconditional").method == "hozo_as_applied"

    def test_degenerate_summary(self):
        assert mean_hozo(s1(9, 3.0, 3.0, 3.0)).value == 3.0

    def test_reduces_to_weighted_form_bitwise(self):
        summary = s1(25, 1.37, 8.25, 93.5)
        via_weights = mean_weighted(
            summary, WeightSet(Scenario.S1, 25, 0.5, source="legacy"))
        assert mean_hozo(summary).value == via_weights.value
        large = s1(29, 1.37, 8.25, 93.5)
        assert mean_hozo(large).value == large.median

    def test_wrong_scenario(self):
        with pytest.raises(ScenarioError):
            mean_hozo(s2(9, 1.0, 2.0, 3.0))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            mean_hozo(s1(9, 1.0, 2.0, 3.0), "sometimes")


class TestWan:
    def test_symmetric_summary(self):
        assert mean_wan_s2(s2(40, 1.0, 2.0, 3.0)).value == 2.0

    def test_asymmetric_summary(self):
        assert mean_wan_s2(s2(40, 0.0, 0.0, 3.0)).value == pytest.approx(1.0)

    def test_equals_two_thirds_weight_bitwise(self):
        summary = s2(17, 0.31, 2.9, 17.25)
        via_weights = mean_weighted(
            summary, WeightSet(Scenario.S2, 17, 2.0 / 3.0, source="legacy"))
        assert mean_wan_s2(summary).value == via_weights.value

    @pytest.mark.parametrize("n", [40, 10**9, 10**12, 10**17])
    def test_range_rule_against_mpmath(self, n):
        # 1 / (2 z), z = Phi^-1((n - 0.375) / (n + 0.25)) in exact arithmetic;
        # from n ~ 1.6e16 that argument rounds to 1.0 as a float
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            p = (mp.mpf(n) - mp.mpf(3) / 8) / (mp.mpf(n) + mp.mpf(1) / 4)
            want = float(1 / (2 * mp.sqrt(2) * mp.erfinv(2 * p - 1)))
        assert wan_sd_from_extremes(0.0, 1.0, n) == pytest.approx(want, rel=1e-14,
                                                                  abs=0)


class TestBland:
    def test_symmetric_summary(self):
        assert mean_bland(s3(9, 0.0, 1.0, 2.0, 3.0, 4.0)).value == 2.0

    def test_skewed_summary(self):
        assert mean_bland(s3(9, 0.0, 0.0, 0.0, 0.0, 8.0)).value == 1.0

    def test_equals_quarter_half_weights_bitwise(self):
        summary = s3(21, 0.5, 1.25, 2.0, 3.5, 9.0)
        via_weights = mean_weighted(
            summary, WeightSet(Scenario.S3, 21, 0.25, 0.5, source="legacy"))
        assert mean_bland(summary).value == via_weights.value


class TestMeanWeighted:
    def test_pure_median_limit(self):
        summary = s1(9, 1.0, 4.0, 9.0)
        ws = WeightSet(Scenario.S1, 9, 0.0)
        assert mean_weighted(summary, ws).value == 4.0

    def test_equal_fifths_is_sample_mean_of_summary(self):
        summary = s3(5, 0.0, 1.0, 2.0, 3.0, 4.0)
        ws = WeightSet(Scenario.S3, 5, 0.4, 0.4)
        assert mean_weighted(summary, ws).value == pytest.approx(2.0)

    def test_scenario_and_size_must_match(self):
        summary = s1(9, 1.0, 4.0, 9.0)
        with pytest.raises(ScenarioError):
            mean_weighted(summary, WeightSet(Scenario.S2, 9, 0.5))
        with pytest.raises(ValueError):
            mean_weighted(summary, WeightSet(Scenario.S1, 13, 0.5))

    def test_sample_mean_of_a_summary_refused(self):
        with pytest.raises(ValueError, match="needs the full sample, not a summary"):
            estimate_mean(s1(9, 1.0, 4.0, 9.0), "sample_mean")


class TestMeanOptimal:
    def test_approx_frozen_values(self):
        cases = s1(40, 2.25, 16.0, 74.25)
        controls = s1(40, 9.0, 27.25, 132.5)
        assert mean_optimal(cases).value == pytest.approx(
            OPTIMAL_S1_N40_CASES, abs=1e-12)
        assert mean_optimal(controls).value == pytest.approx(
            OPTIMAL_S1_N40_CONTROLS, abs=1e-12)

    def test_symmetric_s2_summary(self):
        assert mean_optimal(s2(40, 1.0, 2.0, 3.0)).value == pytest.approx(2.0)

    def test_exact_needs_moments(self):
        summary = s1(25, 0.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            mean_optimal(summary, "exact")
        with pytest.raises(ValueError):
            mean_optimal(summary, "exact", moments=moments_quadrature(9))
        est = mean_optimal(summary, "exact", moments=moments_quadrature(25))
        assert est.method == "optimal_exact"
        assert est.weight_set.w == pytest.approx(0.2642, abs=0.002)

    def test_exact_vs_approx_are_close(self):
        summary = s3(25, 0.0, 1.0, 2.0, 3.0, 40.0)
        exact = mean_optimal(summary, "exact", moments=moments_quadrature(25))
        approx = mean_optimal(summary, "approx")
        assert exact.value == pytest.approx(approx.value, abs=0.2)

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            mean_optimal(s1(9, 0.0, 1.0, 2.0), "guess")


class TestSdEstimate:
    def test_wan_s1_frozen(self):
        assert sd_estimate(s1(40, 2.25, 16.0, 74.25), "wan").value == pytest.approx(
            WAN_SD_N40_CASES, abs=1e-12)

    def test_hozo_branches(self):
        assert sd_estimate(s1(40, 2.25, 16.0, 74.25), "hozo").value == 18.0
        assert sd_estimate(s1(15, 16.75, 39.75, 89.25), "hozo").value == \
            pytest.approx(HOZO_SD_N15_CASES, abs=1e-12)
        assert sd_estimate(s1(71, 0.0, 30.0, 60.0), "hozo").value == 10.0
        assert sd_estimate(s1(69, 0.0, 30.0, 60.0), "hozo").value == 15.0

    def test_wan_s3_averages_both_spreads(self):
        summary = s3(41, 0.0, 10.0, 15.0, 20.0, 30.0)
        expected = 0.5 * (wan_sd_from_extremes(0.0, 30.0, 41)
                          + wan_sd_from_quartiles(10.0, 20.0, 41))
        assert sd_estimate(summary, "wan").value == pytest.approx(expected)

    def test_hozo_requires_s1(self):
        with pytest.raises(ScenarioError):
            sd_estimate(s2(41, 1.0, 2.0, 3.0), "hozo")

    def test_hozo_small_n_needs_median(self):
        with pytest.raises(ValueError):
            hozo_sd_from_range(0.0, 10.0, 12)
        assert hozo_sd_from_range(0.0, 10.0, 12, median=5.0) > 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sd_estimate(s1(9, 0.0, 1.0, 2.0), "range")

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            wan_sd_from_extremes(0.0, 1.0, 4)

    @pytest.mark.parametrize("name", tuple(SD_METHODS))
    def test_range_rule_is_the_s1_rule_above_n15(self, name):
        # above n = 15 neither s1 rule reads the median
        row = SD_METHODS[name]
        for n in (16, 40, 70, 71, 200):
            assert row.from_range(2.25, 74.25, n) == \
                row.on_summary(s1(n, 2.25, 16.0, 74.25))


class TestNonFiniteEstimates:
    def test_overflowing_mean_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            mean_hozo(s1(25, 1e308, 1.6e308, 1.7e308), "unconditional")

    def test_overflowing_sd_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            sd_estimate(s1(25, -1.7e308, 0.0, 1.7e308), "wan")

    def test_squared_range_overflows_to_inf(self):
        # a finite range whose square overflows gives inf, not OverflowError
        assert hozo_sd_from_range(-1e200, 1e200, 9, median=0.0) == math.inf
        with pytest.raises(ValueError, match="overflows"):
            sd_estimate(s1(9, -1e200, 0.0, 1e200), "hozo")


ordered5 = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=5,
    max_size=5).map(sorted)


def _all_mean_estimates(summary):
    out = [mean_optimal(summary, "approx")]
    if summary.scenario is Scenario.S1:
        out += [mean_hozo(summary, "thresholded"), mean_hozo(summary, "unconditional")]
    elif summary.scenario is Scenario.S2:
        out.append(mean_wan_s2(summary))
    else:
        out.append(mean_bland(summary))
    return out


class TestProperties:
    @given(values=ordered5, shift=st.floats(min_value=-50, max_value=50),
           scale=st.floats(min_value=0.01, max_value=50),
           scenario=st.sampled_from(list(Scenario)),
           n=st.sampled_from([5, 17, 40, 73]))
    @settings(max_examples=120, deadline=None)
    def test_location_scale_equivariance(self, values, shift, scale, scenario, n):
        a, q1, m, q3, b = values
        base = _make(scenario, n, a, q1, m, q3, b)
        moved = _make(scenario, n, *(shift + scale * v for v in (a, q1, m, q3, b)))
        for before, after in zip(_all_mean_estimates(base), _all_mean_estimates(moved)):
            want = shift + scale * before.value
            assert after.value == pytest.approx(want, rel=1e-9, abs=1e-9)
        sd_before = sd_estimate(base, "wan").value
        sd_after = sd_estimate(moved, "wan").value
        assert sd_after == pytest.approx(scale * sd_before, rel=1e-9, abs=1e-12)

    @given(values=ordered5, w1=st.floats(min_value=0, max_value=1),
           w2=st.floats(min_value=0, max_value=1),
           scenario=st.sampled_from(list(Scenario)))
    @settings(max_examples=120, deadline=None)
    def test_convexity_bounds(self, values, w1, w2, scenario):
        summary = _make(scenario, 9, *values)
        if scenario is Scenario.S3:
            total = w1 + w2
            if total > 1:
                w1, w2 = w1 / total, w2 / total
                w2 = min(w2, 1.0 - w1)
            weights = WeightSet(scenario, 9, w1, w2, source="custom")
        else:
            weights = WeightSet(scenario, 9, w1, source="custom")
        value = mean_weighted(summary, weights).value
        lo, hi = min(summary.present_values()), max(summary.present_values())
        slack = 1e-9 * (1 + abs(lo) + abs(hi))
        assert lo - slack <= value <= hi + slack

    def test_unbiased_under_normality(self):
        # 1e5 sorted normal samples (mu=50, sigma=17, n=41) through every
        # weighted estimator; each average must sit within 4 MC standard
        # errors of the true mean
        rng = np.random.default_rng(2024)
        t, n = 100_000, 41
        x = np.sort(rng.normal(50.0, 17.0, size=(t, n)), axis=1)
        q = (n - 1) // 4
        mid_range = 0.5 * (x[:, 0] + x[:, -1])
        mid_quart = 0.5 * (x[:, q] + x[:, 3 * q])
        median = x[:, 2 * q]
        m41 = moments_quadrature(41)
        from optmean.weights import (optimal_weight_s1, optimal_weight_s2,
                                     optimal_weights_s3)
        candidates = {
            "s1_exact": (optimal_weight_s1(m41).w, None, Scenario.S1),
            "s2_exact": (optimal_weight_s2(m41).w, None, Scenario.S2),
            "s3_exact": (optimal_weights_s3(m41).w1, optimal_weights_s3(m41).w2,
                         Scenario.S3),
            "s1_approx": (approx_weight("s1", n).w, None, Scenario.S1),
            "s2_approx": (approx_weight("s2", n).w, None, Scenario.S2),
            "s3_approx": (approx_weight("s3", n).w1, approx_weight("s3", n).w2,
                          Scenario.S3),
        }
        for label, (w1, w2, scenario) in candidates.items():
            if scenario is Scenario.S1:
                est = w1 * mid_range + (1 - w1) * median
            elif scenario is Scenario.S2:
                est = w1 * mid_quart + (1 - w1) * median
            else:
                est = w1 * mid_range + w2 * mid_quart + (1 - w1 - w2) * median
            se = est.std(ddof=1) / math.sqrt(t)
            assert abs(est.mean() - 50.0) <= 4 * se, label


def _make(scenario, n, a, q1, m, q3, b):
    if scenario is Scenario.S1:
        return FiveNumberSummary(scenario, n, median=m, minimum=a, maximum=b)
    if scenario is Scenario.S2:
        return FiveNumberSummary(scenario, n, median=m, q1=q1, q3=q3)
    return FiveNumberSummary(scenario, n, median=m, minimum=a, q1=q1, q3=q3,
                             maximum=b)


# Finite extremes, signed zeros, subnormals and infinities for the
# bit-level layout checks.
EDGE_VALUES = (-math.inf, -1.7e308, -2.5, -5e-324, -0.0, 0.0, 1e-310, 3.0,
               1.7e308, math.inf)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestSummaryLayout:
    """`order_stats.SUMMARY_FIELDS`, `summary_parts` and `Scenario.parts` are
    the one statement of the five-number layout; these checks hold its
    derived tables and the `combine` fold to the forms written out."""

    def test_summary_parts_matrix(self):
        from optmean.order_stats import _SUMMARY_PARTS
        assert _SUMMARY_PARTS.dtype == np.float64
        assert _SUMMARY_PARTS.tolist() == [[0.5, 0.0, 0.0, 0.0, 0.5],
                                           [0.0, 0.5, 0.0, 0.5, 0.0],
                                           [0.0, 0.0, 1.0, 0.0, 0.0]]

    def test_fields_by_scenario(self):
        from optmean.estimators import FIELDS_BY_SCENARIO
        assert FIELDS_BY_SCENARIO == {
            Scenario.S1: ("minimum", "median", "maximum"),
            Scenario.S2: ("q1", "median", "q3"),
            Scenario.S3: ("minimum", "q1", "median", "q3", "maximum"),
        }
        assert all(type(name) is str
                   for names in FIELDS_BY_SCENARIO.values() for name in names)

    def test_summary_parts_written_out(self):
        from optmean.order_stats import summary_parts
        a, q1, m, q3, b = (np.array(v) for v in np.meshgrid(
            EDGE_VALUES, EDGE_VALUES, 0.0, EDGE_VALUES, EDGE_VALUES))
        with np.errstate(invalid="ignore", over="ignore"):
            mid_range, mid_quart, median = summary_parts(a, q1, m, q3, b)
            assert np.array_equal(_bits(mid_range), _bits(0.5 * (a + b)))
            assert np.array_equal(_bits(mid_quart), _bits(0.5 * (q1 + q3)))
        assert median is m
        assert summary_parts(None, 1.0, 2.0, 3.0, None) == (None, 2.0, 2.0)
        assert summary_parts(1.0, None, 2.0, None, 3.0) == (2.0, None, 2.0)

    @pytest.mark.parametrize("weights", [
        WeightSet(Scenario.S1, 9, 0.0), WeightSet(Scenario.S1, 9, 0.5),
        WeightSet(Scenario.S1, 9, 1.0), approx_weight("s1", 41),
        WeightSet(Scenario.S2, 9, 2.0 / 3.0), WeightSet(Scenario.S2, 9, 1e-320),
        approx_weight("s2", 41),
        WeightSet(Scenario.S3, 9, 0.25, 0.5), WeightSet(Scenario.S3, 9, 0.0, 1.0),
        WeightSet(Scenario.S3, 9, 0.5, -0.0), approx_weight("s3", 41),
    ], ids=lambda ws: f"{ws.scenario.value}-{ws.w1!r}-{ws.w2!r}")
    def test_combine_written_out(self, weights):
        w1, w2 = weights.w1, weights.w2
        written_out = {
            Scenario.S1: lambda r, q, m: w1 * r + (1.0 - w1) * m,
            Scenario.S2: lambda r, q, m: w1 * q + (1.0 - w1) * m,
            Scenario.S3: lambda r, q, m: w1 * r + w2 * q + (1.0 - w1 - w2) * m,
        }[weights.scenario]
        grid = [np.array(v) for v in np.meshgrid(EDGE_VALUES, EDGE_VALUES, EDGE_VALUES)]
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = combine(weights, *grid), written_out(*grid)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for r, q, m in zip(*(v.ravel()[::7].tolist() for v in grid)):
            got, want = combine(weights, r, q, m), written_out(r, q, m)
            assert type(got) is float
            assert _bits(got) == _bits(want) and np.signbit(got) == np.signbit(want)

    def test_combine_ignores_unreported_parts(self):
        assert combine(WeightSet(Scenario.S1, 9, 0.5), 2.0, None, 4.0) == 3.0
        assert combine(WeightSet(Scenario.S2, 9, 0.5), None, 2.0, 4.0) == 3.0
