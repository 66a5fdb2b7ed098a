"""Sampling, summarisation, and the relative-MSE protocol."""

import math

import numpy as np
import pytest

from optmean import _rng
from optmean.errors import ScenarioError
from optmean.simulation import (
    CONTROL_METHOD,
    DEFAULT_N_GRID,
    DistributionSpec,
    SimulationConfig,
    default_methods,
    distribution,
    draw_sample,
    replicate_stream,
    run_rmse,
    summarize,
)


class TestDistributionSpecs:
    def test_true_means_match_closed_forms(self):
        assert distribution("normal").true_mean == 50.0
        assert distribution("lognormal").true_mean == pytest.approx(
            math.exp(4.0 + 0.5 * 0.09), rel=1e-15)
        assert distribution("beta").true_mean == pytest.approx(9 / 13, rel=1e-15)
        assert distribution("exponential").true_mean == pytest.approx(0.1)
        assert distribution("weibull").true_mean == pytest.approx(
            35 * math.gamma(1.5), rel=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            distribution("cauchy")

    def test_spec_refuses_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            DistributionSpec("cauchy", (("scale", 1.0),), 0.0)

    def test_quantile_reads_params_by_name(self):
        spec = distribution("weibull")
        swapped = DistributionSpec("weibull", spec.params[::-1], spec.true_mean)
        u = np.linspace(0.01, 0.99, 7)
        assert np.array_equal(swapped.quantile(u), spec.quantile(u))

    @pytest.mark.parametrize("kind", ["normal", "lognormal", "beta",
                                      "exponential", "weibull"])
    def test_quantile_transform_is_monotone(self, kind):
        spec = distribution(kind)
        u = np.linspace(0.01, 0.99, 200)
        x = spec.quantile(u)
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("kind,se_slack", [
        ("normal", 4), ("beta", 4), ("weibull", 4)])
    def test_pooled_draws_match_true_mean(self, kind, se_slack):
        spec = distribution(kind)
        pooled = []
        for rep in range(300):
            pooled.append(draw_sample(spec, 501, replicate_stream(7, spec, 501, rep)))
        pooled = np.concatenate(pooled)
        se = pooled.std(ddof=1) / math.sqrt(pooled.size)
        assert abs(pooled.mean() - spec.true_mean) <= se_slack * se


class TestSummarize:
    def test_five_point_sample_s3(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0], "s3")
        assert (summary.minimum, summary.q1, summary.median,
                summary.q3, summary.maximum) == (1, 2, 3, 4, 5)

    def test_five_point_sample_s1(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0], "s1")
        assert (summary.minimum, summary.median, summary.maximum) == (1, 3, 5)
        assert summary.q1 is None and summary.q3 is None

    def test_nine_point_quartile_ranks(self):
        x = np.arange(10.0, 19.0)
        summary = summarize(x, "s2")
        assert summary.q1 == x[2]
        assert summary.median == x[4]
        assert summary.q3 == x[6]

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            summarize([3.0, 1.0, 2.0, 4.0, 5.0], "s1")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ScenarioError):
            summarize(np.arange(8.0), "s1")


class TestConfigValidation:
    def test_default_methods(self):
        assert default_methods("s1") == (CONTROL_METHOD, "hozo", "optimal_approx")
        assert default_methods("s2") == (CONTROL_METHOD, "wan", "optimal_approx")
        assert default_methods("s3") == (CONTROL_METHOD, "bland", "optimal_approx")

    def test_grid_must_be_scenario_shaped(self):
        with pytest.raises(ScenarioError):
            SimulationConfig(distribution=distribution("normal"), scenario="s1",
                             n_grid=(5, 12), replicates=2000)

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            SimulationConfig(distribution=distribution("normal"), scenario="s1",
                             replicates=500)

    def test_incompatible_method(self):
        with pytest.raises(ScenarioError):
            SimulationConfig(distribution=distribution("normal"), scenario="s1",
                             methods=("wan",), replicates=2000)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SimulationConfig(distribution=distribution("normal"), scenario="s1",
                             methods=("trimmed",), replicates=2000)

    def test_exact_weights_need_quadrature_sizes(self):
        with pytest.raises(ValueError, match="n <= 501"):
            SimulationConfig(distribution=distribution("normal"), scenario="s1",
                             methods=("optimal_exact",), n_grid=(5, 505),
                             replicates=2000)
        # other methods have no such limit
        SimulationConfig(distribution=distribution("normal"), scenario="s1",
                         methods=("optimal_approx",), n_grid=(505,),
                         replicates=2000)

    def test_default_grid(self):
        assert DEFAULT_N_GRID[0] == 5
        assert DEFAULT_N_GRID[-1] == 101
        assert all(n % 4 == 1 for n in DEFAULT_N_GRID)


def _tiny_config(**kwargs):
    defaults = dict(distribution=distribution("normal"), scenario="s1",
                    n_grid=(5, 25), replicates=4_000, seed=99)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestRunRmse:
    def test_control_method_is_exactly_one(self):
        report = run_rmse(_tiny_config())
        control = [r for r in report.rows if r.method == CONTROL_METHOD]
        assert control and all(r.rmse == 1.0 for r in control)
        assert all(r.mc_std_error == 0.0 for r in control)

    def test_deterministic_reports(self):
        a = run_rmse(_tiny_config())
        b = run_rmse(_tiny_config())
        assert a.rows == b.rows

    def test_chunking_does_not_change_results(self, monkeypatch):
        base = run_rmse(_tiny_config())
        monkeypatch.setattr(_rng, "CHUNK", 3 * _rng.CELL)
        small_chunks = run_rmse(_tiny_config())
        assert base.rows == small_chunks.rows

    def test_seed_changes_results(self):
        a = run_rmse(_tiny_config())
        b = run_rmse(_tiny_config(seed=100))
        assert a.rows != b.rows

    def test_replicate_rows_match_draw_sample(self):
        # the vectorised path must reproduce the per-replicate stream draws
        spec = distribution("lognormal")
        from optmean._rng import replicate_uniforms
        from optmean.simulation import _spec_key
        key = _spec_key(31, spec, 9)
        block = spec.quantile(replicate_uniforms(key, 0, 40, 9))
        lone = draw_sample(spec, 9, replicate_stream(31, spec, 9, 17))
        assert np.array_equal(np.sort(block[17]), lone)

    def test_rmse_positive_and_errorbars_finite(self):
        report = run_rmse(_tiny_config())
        for row in report.rows:
            assert row.rmse > 0
            assert math.isfinite(row.mc_std_error)
            assert row.replicates == 4_000

    def test_optimal_beats_hozo_on_normal_data(self):
        config = _tiny_config(n_grid=(5, 25, 101), replicates=20_000)
        report = run_rmse(config)
        by_key = {(r.n, r.method): r.rmse for r in report.rows}
        for n in (5, 25, 101):
            assert by_key[(n, "optimal_approx")] < by_key[(n, "hozo")]

    def test_hozo_change_point_on_skewed_data(self):
        for kind in ("lognormal", "exponential"):
            config = SimulationConfig(
                distribution=distribution(kind), scenario="s1",
                n_grid=(25, 29), replicates=20_000, seed=13)
            report = run_rmse(config)
            by_key = {(r.n, r.method): r.rmse for r in report.rows}
            hozo_jump = abs(by_key[(25, "hozo")] - by_key[(29, "hozo")])
            opt_jump = abs(by_key[(25, "optimal_approx")]
                           - by_key[(29, "optimal_approx")])
            assert hozo_jump > opt_jump, kind

    def test_optimal_exact_runs(self):
        config = _tiny_config(methods=(CONTROL_METHOD, "optimal_exact"),
                              n_grid=(9,))
        report = run_rmse(config)
        assert {r.method for r in report.rows} == {CONTROL_METHOD, "optimal_exact"}
