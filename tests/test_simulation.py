"""Sampling, summarisation, and the relative-MSE protocol."""

import functools
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

    @pytest.mark.parametrize("params", [
        (("mu", 1.0),),
        (("mu", 1.0), ("sigma", 2.0), ("shape", 3.0)),
        (("mu", 1.0), ("mu", 2.0)),
        (("location", 1.0), ("scale", 2.0)),
    ])
    def test_spec_refuses_parameters_its_inverse_cdf_does_not_take(self, params):
        with pytest.raises(ValueError, match="normal takes the parameters"):
            DistributionSpec("normal", params, 0.8)

    @pytest.mark.parametrize("alpha,beta", [
        (9.5, 4.0), (9.0, 0.0), (0.5, 1.0), (65.0, 4.0), (-1.0, 4.0),
        (math.nan, 4.0), (9.0, math.inf)])
    def test_beta_refuses_parameters_off_its_kernel_domain(self, alpha, beta):
        with pytest.raises(ValueError, match="whole numbers from 1 to 64"):
            DistributionSpec("beta", (("alpha", alpha), ("beta", beta)), 0.5)

    @pytest.mark.parametrize("kind,params", [
        ("normal", (("mu", 50.0), ("sigma", math.nan))),
        ("normal", (("mu", 50.0), ("sigma", 0.0))),
        ("normal", (("mu", 50.0), ("sigma", -17.0))),
        ("normal", (("mu", 50.0), ("sigma", math.inf))),
        ("normal", (("mu", math.nan), ("sigma", 17.0))),
        ("normal", (("mu", math.inf), ("sigma", 17.0))),
        ("lognormal", (("location", -math.inf), ("scale", 0.3))),
        ("lognormal", (("location", math.nan), ("scale", 0.3))),
        ("lognormal", (("location", 4.0), ("scale", 0.0))),
        ("lognormal", (("location", 4.0), ("scale", math.nan))),
        ("exponential", (("rate", -1.0),)),
        ("exponential", (("rate", 0.0),)),
        ("exponential", (("rate", math.nan),)),
        ("weibull", (("shape", 0.0), ("scale", 35.0))),
        ("weibull", (("shape", math.nan), ("scale", 35.0))),
        ("weibull", (("shape", 2.0), ("scale", -35.0))),
        ("weibull", (("shape", 2.0), ("scale", math.nan))),
    ])
    def test_refuses_parameters_off_the_kind_domain(self, kind, params):
        # such specs used to run: NaN sigma gave NaN rmse rows, a negative
        # rate drew negative values
        with pytest.raises(ValueError, match=f"{kind} parameters must be"):
            DistributionSpec(kind, params, 1.0)

    @pytest.mark.parametrize("kind", ["normal", "lognormal", "beta",
                                      "exponential", "weibull"])
    def test_canonical_specs_lie_in_their_domains(self, kind):
        spec = distribution(kind)
        assert DistributionSpec(spec.kind, spec.params, spec.true_mean) == spec

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


def _beta(alpha, beta):
    return DistributionSpec("beta", (("alpha", alpha), ("beta", beta)),
                            alpha / (alpha + beta))


class TestBetaQuantile:
    """The numpy Beta inverse CDF against 50-digit mpmath and closed forms."""

    # 600 log-spaced points in each tail, out to the extreme uniforms 2^-54 and
    # 1 - 2^-53 of `_rng`, 600 random points, then 0.5 and its neighbours
    U = np.concatenate([
        np.logspace(-54, -1, 600, base=2.0),
        1.0 - np.logspace(-53, -1, 600, base=2.0),
        np.random.default_rng(2026).random(600),
        [2.0 ** -54, 1.0 - 2.0 ** -53, np.nextafter(0.5, 0.0), 0.5,
         np.nextafter(0.5, 1.0)],
    ])

    @staticmethod
    def _ulps_from_mpmath(spec, u):
        """x = spec.quantile(u), and |x - the 50-digit quantile| in ulp of x
        wherever x < 1."""
        mp = pytest.importorskip("mpmath")
        a, b = (int(value) for _, value in sorted(spec.params))
        x = spec.quantile(u)
        keep = x < 1.0  # the top uniforms of Beta(a >= 3, 1) round to 1
        with mp.workdps(50):
            inv_beta = 1 / mp.beta(a, b)
            # the Newton distance from x to the root of I_x(a, b) = u
            return x, np.array([
                abs(float((mp.betainc(a, b, 0, xi, regularized=True) - ui)
                          / (inv_beta * mp.mpf(xi) ** (a - 1) * (1 - mp.mpf(xi)) ** (b - 1))))
                / math.ulp(xi) for ui, xi in zip(u[keep].tolist(), x[keep].tolist())])

    def test_within_two_ulp_of_mpmath(self):
        x, ulps = self._ulps_from_mpmath(distribution("beta"), self.U)
        assert np.all(np.isfinite(x)) and np.all((x > 0) & (x < 1))
        order = np.argsort(self.U, kind="stable")
        assert np.all(np.diff(x[order]) >= 0)
        worst = int(np.argmax(ulps))
        assert ulps[worst] <= 2.0, (self.U[worst], ulps[worst])

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (1, 64), (64, 1), (2, 64), (64, 64)])
    def test_converges_across_the_domain(self, alpha, beta):
        # rounding in the beta - 1 products grows the error with (beta - 1) / alpha,
        # to 32 ulp at Beta(1, 64) on these points; a Halley run that has not
        # converged is off by 1e6 ulp or more
        _, ulps = self._ulps_from_mpmath(_beta(float(alpha), float(beta)), self.U[::3])
        assert ulps.max() <= 48.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0, 16.0, 64.0])
    def test_beta_a_1_is_the_root_u_to_the_one_over_a(self, alpha):
        # exact exponents 1/a, so numpy's power is the reference within 1 ulp
        x = _beta(alpha, 1.0).quantile(self.U)
        want = self.U ** (1.0 / alpha)
        assert np.all(np.abs(x - want) <= 3 * np.spacing(want))

    def test_blocks_and_shape_do_not_change_bits(self, monkeypatch):
        from optmean import simulation
        u = np.linspace(1e-3, 1 - 1e-3, 7 * 13).reshape(7, 13)
        whole = distribution("beta").quantile(u)
        monkeypatch.setattr(simulation, "_BETA_BLOCK", 5)
        assert whole.shape == (7, 13)
        assert np.array_equal(distribution("beta").quantile(u), whole)


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

    def test_rejects_two_dimensional_sample(self):
        with pytest.raises(ValueError, match="sample must be one-dimensional"):
            summarize(np.zeros((5, 5)), "s1")


class TestConfigValidation:
    def test_default_methods(self):
        assert default_methods("s1") == (CONTROL_METHOD, "hozo", "optimal_approx")
        assert default_methods("s2") == (CONTROL_METHOD, "wan", "optimal_approx")
        assert default_methods("s3") == (CONTROL_METHOD, "bland", "optimal_approx")

    def test_grid_must_be_scenario_shaped(self):
        with pytest.raises(ScenarioError):
            SimulationConfig(distribution=distribution("normal"), scenario="s1",
                             n_grid=(5, 12), replicates=2000)

    def test_empty_grid_refused(self):
        with pytest.raises(ValueError, match="n_grid must not be empty"):
            SimulationConfig(distribution("normal"), "s1", n_grid=())

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

    @pytest.mark.parametrize("repeat", [
        {"methods": ("hozo", "hozo")},
        {"methods": ("sample_mean", "hozo", "sample_mean")},
        {"n_grid": (5, 9, 5)},
        {"n_grid": (5, 5.0)},
    ])
    def test_repeated_method_or_size_is_refused(self, repeat):
        config = {"distribution": distribution("normal"), "scenario": "s1",
                  "methods": ("hozo",), "n_grid": (5, 9), "replicates": 1000, **repeat}
        with pytest.raises(ValueError, match="named more than once"):
            SimulationConfig(**config)

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


# An oracle for `run_rmse` that shares no code with the package: PCG64 draws
# from numpy's own samplers (not Philox windows through an inverse CDF),
# `np.sort`, and each estimator written out from its published formula on the
# summary (a, q1, m, q3, b) of a sample of size n = 4Q + 1.
_ORACLE_SAMPLERS = {
    "normal": (50.0, lambda rng, size: rng.normal(50.0, 17.0, size)),
    "exponential": (0.1, lambda rng, size: rng.exponential(0.1, size)),
}


def _s3_approx(a, q1, m, q3, b, n):
    w1, w2 = 2.2 / (2.2 + n ** 0.75), 0.7 - 0.72 / n ** 0.55
    return w1 * (a + b) / 2 + w2 * (q1 + q3) / 2 + (1 - w1 - w2) * m


_ORACLE_ESTIMATORS = {
    "s1": {
        # Hozo et al. 2005: (a + 2m + b)/4 up to n = 25, the median above
        "hozo": lambda a, q1, m, q3, b, n: (a + 2 * m + b) / 4 if n <= 25 else m,
        "optimal_approx": lambda a, q1, m, q3, b, n: (
            4 / (4 + n ** 0.75) * (a + b) / 2 + n ** 0.75 / (4 + n ** 0.75) * m),
    },
    "s2": {
        # Wan et al. 2014: (q1 + m + q3)/3
        "wan": lambda a, q1, m, q3, b, n: (q1 + m + q3) / 3,
        "optimal_approx": lambda a, q1, m, q3, b, n: (
            (0.7 + 0.39 / n) * (q1 + q3) / 2 + (0.3 - 0.39 / n) * m),
    },
    "s3": {
        # Bland 2015: (a + 2 q1 + 2m + 2 q3 + b)/8
        "bland": lambda a, q1, m, q3, b, n: (a + 2 * q1 + 2 * m + 2 * q3 + b) / 8,
        "optimal_approx": _s3_approx,
    },
}


@functools.lru_cache(maxsize=None)
def _oracle_rmse(kind, n, replicates, seed):
    """{(scenario, method): (relative MSE, its delta-method standard error)}."""
    mu, sampler = _ORACLE_SAMPLERS[kind]
    x = np.sort(sampler(np.random.default_rng(seed), (replicates, n)), axis=1)
    q = (n - 1) // 4
    summary = (x[:, 0], x[:, q], x[:, 2 * q], x[:, 3 * q], x[:, n - 1], n)
    control = (x.mean(axis=1) - mu) ** 2
    out = {}
    for scenario, methods in _ORACLE_ESTIMATORS.items():
        for method, estimator in methods.items():
            err = (estimator(*summary) - mu) ** 2
            ratio = err.sum() / control.sum()
            resid = err - ratio * control
            se = math.sqrt(resid.var(ddof=1) / replicates) / control.mean()
            out[scenario, method] = (float(ratio), se)
    return out


class TestIndependentOracle:
    """`run_rmse` agrees with the oracle within 4 combined standard errors
    on every default method; a miss is a finding, not a tolerance to widen."""

    @pytest.mark.parametrize("kind", sorted(_ORACLE_SAMPLERS))
    @pytest.mark.parametrize("scenario", sorted(_ORACLE_ESTIMATORS))
    def test_relative_mse_matches_oracle(self, kind, scenario):
        replicates, seed = 20_000, 1505
        report = run_rmse(SimulationConfig(
            distribution=distribution(kind), scenario=scenario, n_grid=(25, 101),
            replicates=replicates, seed=seed))
        rows = [r for r in report.rows if r.method != CONTROL_METHOD]
        assert {r.method for r in rows} == set(_ORACLE_ESTIMATORS[scenario])
        z = {}
        for row in rows:
            rmse, se = _oracle_rmse(kind, row.n, replicates, seed)[scenario, row.method]
            z[row.n, row.method] = (row.rmse - rmse) / math.hypot(row.mc_std_error, se)
        assert max(abs(v) for v in z.values()) <= 4.0, z
