"""Normal primitives and order-statistic moments."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special, stats

from optmean import _rng
from optmean._rng import _words_to_uniforms, cell_sums, replicate_chunks, \
    replicate_uniforms, stream_key
from optmean.errors import ScenarioError
from optmean import order_stats
from optmean.estimators import FiveNumberSummary, wan_sd_from_extremes
from optmean.order_stats import (
    AsymptoticQuantileCov,
    OrderIndexSet,
    OrderStatMoments,
    asymptotic_cov,
    moments_mc,
    moments_quadrature,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from optmean.simulation import SimulationConfig, distribution, draw_sample, \
    replicate_stream, run_rmse
from optmean.weights import WeightSet, approx_weight

# Frozen from a 40-digit inverse-erf evaluation (mpmath, dps=40).
QUANTILE_ORACLE = {
    0.975: 1.9599639845400542,
    0.6: 0.2533471031357998,
    0.01: -2.3263478740408411,
    1e-9: -5.9978070150076869,
    0.984472: 2.1563544315131606,
}
# Same oracle at p = (40 - 0.375) / (40 + 0.25); this is the denominator
# quantile of the range-based SD rule at n = 40.
WAN_P40 = (40 - 0.375) / (40 + 0.25)
WAN_Z40 = 2.1563557051898703

# E(Z_(5:5)), frozen from adaptive Gauss-Kronrod integration of
# x * 5 phi(x) Phi(x)^4 (scipy.integrate.quad, abs err < 1e-12).
EXPECTED_MAX_OF_5 = 1.1629644736405196


class TestNormalQuantile:
    def test_median_is_exactly_zero(self):
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p,z", sorted(QUANTILE_ORACLE.items()))
    def test_frozen_oracle_values(self, p, z):
        assert normal_quantile(p) == pytest.approx(z, abs=1e-10)

    def test_wan_denominator_quantile(self):
        assert normal_quantile(WAN_P40) == pytest.approx(WAN_Z40, abs=1e-10)

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    def test_round_trip_against_implemented_cdf(self, p):
        z = normal_quantile(p)
        assert abs(normal_cdf(z) - p) <= 1e-12

    @given(st.floats(min_value=0.5, max_value=1 - 1e-9))
    def test_symmetry(self, p):
        # 1 - p is exact for p >= 0.5, so the mirror must match bitwise
        assert normal_quantile(1 - p) == -normal_quantile(p)

    @pytest.mark.parametrize("p", [1e-9, 1e-6, 0.004, 0.02425, 0.3, 0.5,
                                   0.77, 1 - 0.02425, 0.999, 1 - 1e-6,
                                   1 - 1e-9, WAN_P40])
    def test_against_bisection_oracle(self, p):
        # independent oracle: plain bisection on a 40-digit CDF
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def cdf(z):
            return 0.5 * mp.erfc(-z / mp.sqrt(2))

        lo, hi = mp.mpf(-10), mp.mpf(10)
        target = mp.mpf(p)  # exact binary value of the double under test
        while hi - lo > mp.mpf("1e-25"):
            mid = (lo + hi) / 2
            if cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        assert normal_quantile(p) == pytest.approx(float((lo + hi) / 2),
                                                   abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, 2.0])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)

    def test_is_scipy_ndtri_bitwise(self):
        # normal_quantile, the scalar port of cephes ndtri, and the ufunc
        # scipy.special.ndtri, which transforms the MC draws in bulk, must agree
        # bit for bit. Points: the SD rules' arguments (range, its complement,
        # quartile) for n = 5..10^5; 10^4 p log-spaced in [1e-300, 0.5) and
        # their complements below 1; and the ends of the open interval
        ns = np.arange(5, 10**5 + 1)
        logs = np.geomspace(1e-300, 0.5, 10**4, endpoint=False)
        p = np.concatenate([(ns - 0.375) / (ns + 0.25), 0.625 / (ns + 0.25),
                            (0.75 * ns - 0.125) / (ns + 0.25), logs,
                            (1.0 - logs)[1.0 - logs < 1.0],
                            [5e-324, 1e-300, 0.5, 1 - 2.0**-53]])
        z = special.ndtri(p).tolist()
        mismatched = [pi for pi, zi in zip(p.tolist(), z) if normal_quantile(pi) != zi]
        assert mismatched == []

    def test_vectorized_matches_scalar(self):
        p = np.concatenate([
            np.geomspace(1e-9, 0.4, 50), 1 - np.geomspace(1e-9, 0.4, 50), [0.5]])
        z = special.ndtri(p)
        for pi, zi in zip(p, z):
            assert zi == pytest.approx(normal_quantile(float(pi)), abs=1e-14)


class TestNormalCdfPdf:
    def test_pdf_peak(self):
        assert normal_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_cdf_tails(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(-40.0) == 0.0
        assert normal_cdf(8.0) == pytest.approx(1.0, abs=1e-15)


class TestDomainTypes:
    def test_index_set_ranks(self):
        idx = OrderIndexSet.from_size(9)
        assert idx.indices == (1, 3, 5, 7, 9)
        assert idx.q == 2

    @pytest.mark.parametrize("n", [4, 6, 7, 8, 12, 3, 1, 5.5])
    def test_index_set_rejects_non_4q1(self, n):
        with pytest.raises(ScenarioError):
            OrderIndexSet.from_size(n)


class TestMomentChecks:
    """`OrderStatMoments` refuses moments that are not keyed by the five
    summary ranks of n and their pairs i <= j, or whose E(Z_(i)^2) is not
    positive."""

    @staticmethod
    def remake(means=None, second_moments=None):
        m = moments_quadrature(9)
        return OrderStatMoments(n=m.n, means=m.means if means is None else means,
                                second_moments=second_moments or m.second_moments,
                                backend=m.backend, std_error=m.std_error)

    def test_quadrature_moments_pass(self):
        assert self.remake().means == moments_quadrature(9).means

    @pytest.mark.parametrize("ranks", [(1, 3, 5, 7), (1, 3, 5, 7, 8), (1, 2, 5, 7, 9)])
    def test_means_keyed_by_other_ranks(self, ranks):
        with pytest.raises(ValueError, match="five summary ranks"):
            self.remake(means=dict.fromkeys(ranks, 0.0))

    @pytest.mark.parametrize("change", ["missing", "extra", "mirrored"])
    def test_pairs_missing_or_extra(self, change):
        second = dict(moments_quadrature(9).second_moments)
        if change == "missing":
            del second[(3, 7)]
        elif change == "extra":
            second[(7, 3)] = second[(3, 7)]
        else:
            second[(7, 3)] = second.pop((3, 7))
        with pytest.raises(ValueError, match="all rank pairs"):
            self.remake(second_moments=second)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("rank", [1, 5, 9])
    def test_non_positive_square(self, rank, value):
        second = {**moments_quadrature(9).second_moments, (rank, rank): value}
        with pytest.raises(ValueError, match=rf"E\(Z_\({rank}\)\^2\) must be positive"):
            self.remake(second_moments=second)


NORMAL = distribution("normal")


class TestCountRules:
    """A sample size or replicate count is whole or refused with a ValueError,
    never truncated or passed on; an integral float counts as its int."""

    @pytest.mark.parametrize("call", [
        lambda: approx_weight("s1", 5.7),
        lambda: WeightSet("s1", 5.5, 0.3),
        lambda: FiveNumberSummary("s1", 9.5, median=2.0, minimum=1.0, maximum=3.0),
        lambda: wan_sd_from_extremes(1.0, 3.0, 9.5),
        lambda: asymptotic_cov(0.5, 0.5, 5.5),
        lambda: moments_mc(5, 10_000.9, 1),
        lambda: SimulationConfig(NORMAL, "s1", n_grid=(5.5,)),
        lambda: run_rmse(SimulationConfig(NORMAL, "s1", n_grid=(5,), replicates=2000.5)),
        lambda: draw_sample(NORMAL, 5.5, replicate_stream(0, NORMAL, 5, 0)),
    ], ids=["approx_weight", "weight_set", "summary", "sd_rule", "asymptotic_cov",
            "mc_replicates", "simulation_grid", "simulation_replicates", "draw_sample"])
    def test_refuses_fractional_count(self, call):
        with pytest.raises(ValueError):
            call()

    # each result as a repr, so an n of 9.0 where 9 is due also shows
    @pytest.mark.parametrize("make", [
        lambda k: OrderIndexSet.from_size(k(9)),
        lambda k: moments_quadrature.__wrapped__(k(9)),
        lambda k: moments_mc(k(9), k(20_000), 1),
        lambda k: approx_weight("s3", k(9)),
        lambda k: FiveNumberSummary("s1", k(9), median=2.0, minimum=1.0, maximum=3.0),
        lambda k: run_rmse(SimulationConfig(NORMAL, "s1", n_grid=(k(9),),
                                            replicates=k(2_000))).rows,
        lambda k: draw_sample(NORMAL, k(9), replicate_stream(0, NORMAL, 9, 0)).tolist(),
    ], ids=["index_set", "quadrature", "mc", "approx_weight", "summary", "rmse",
            "draw_sample"])
    def test_integral_float_counts_as_its_int(self, make):
        assert repr(make(float)) == repr(make(int))


class TestAsymptoticCov:
    def test_median_variance_constant(self):
        c = asymptotic_cov(0.5, 0.5, 100)
        assert 100 * c.value == pytest.approx(math.pi / 2, abs=1e-12)

    def test_quartile_variance_constant(self):
        c = asymptotic_cov(0.25, 0.25, 17)
        assert 17 * c.value == pytest.approx(1.8568, abs=1e-4)

    def test_cross_quartile_constant(self):
        c = asymptotic_cov(0.25, 0.75, 33)
        assert 33 * c.value == pytest.approx(0.6189, abs=1e-4)

    def test_quartile_median_constant(self):
        c = asymptotic_cov(0.25, 0.5, 50)
        assert 50 * c.value == pytest.approx(0.9860, abs=1e-4)

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.integers(min_value=1, max_value=10**6))
    def test_n_scaling(self, p, n):
        base = asymptotic_cov(p, p, 1)
        scaled = asymptotic_cov(p, p, n)
        assert n * scaled.value == pytest.approx(base.value, rel=1e-12)
        assert scaled.value > 0
        assert isinstance(scaled, AsymptoticQuantileCov)

    @pytest.mark.parametrize("pi,pj,n", [(0.7, 0.3, 10), (0.0, 0.5, 10),
                                         (0.5, 1.0, 10), (0.2, 0.4, 0)])
    def test_domain_errors(self, pi, pj, n):
        with pytest.raises(ValueError):
            asymptotic_cov(pi, pj, n)


class TestMomentsMc:
    def test_expected_maximum_of_five(self):
        ours = moments_mc(5, 2_000_000, seed=7081)
        # independent brute-force oracle: raw max over rows of a plain
        # Generator, nothing shared with the package's sampling path
        rng = np.random.default_rng(12345)
        draws = rng.standard_normal((400_000, 5)).max(axis=1)
        oracle = draws.mean()
        oracle_se = draws.std(ddof=1) / math.sqrt(draws.size)
        combined = math.hypot(oracle_se, ours.std_error)
        assert abs(ours.mean(5) - oracle) <= 4 * combined
        assert abs(ours.mean(5) - EXPECTED_MAX_OF_5) <= 4 * ours.std_error

    @pytest.mark.parametrize("n", [5, 25, 101])
    def test_mirror_symmetry_within_error(self, n):
        m = moments_mc(n, 100_000, seed=11)
        idx = m.index_set
        bound = 3 * m.std_error
        assert abs(m.mean(idx.minimum) + m.mean(idx.maximum)) <= bound
        assert abs(m.mean(idx.lower_quartile) + m.mean(idx.upper_quartile)) <= bound
        assert abs(m.mean(idx.median)) <= bound
        assert abs(m.second_moment(idx.minimum, idx.median)
                   - m.second_moment(idx.median, idx.maximum)) <= 3 * bound

    def test_refuses_tiny_replicate_counts(self):
        with pytest.raises(ValueError, match="refus"):
            moments_mc(5, 5_000, seed=0)

    @pytest.mark.parametrize("n", [6, 8, 23, 5.5])
    def test_rejects_non_scenario_sizes(self, n):
        with pytest.raises(ScenarioError):
            moments_mc(n, 10_000, seed=0)

    def test_deterministic_for_fixed_seed(self):
        a = moments_mc(9, 10_000, seed=3)
        b = moments_mc(9, 10_000, seed=3)
        assert a.means == b.means
        assert a.second_moments == b.second_moments
        assert a.std_error == b.std_error
        c = moments_mc(9, 10_000, seed=4)
        assert c.means != a.means

    def test_chunking_does_not_change_results(self, monkeypatch):
        # 10,000 replicates end in a short cell under either chunk size
        base = moments_mc(9, 10_000, seed=3)
        monkeypatch.setattr(_rng, "CHUNK", 3 * _rng.CELL)
        small_chunks = moments_mc(9, 10_000, seed=3)
        assert small_chunks.means == base.means
        assert small_chunks.second_moments == base.second_moments
        assert small_chunks.std_error == base.std_error

    # 10,000 and 20,000 replicates end in a short chunk whose last cell is
    # short; 16,384 is two whole chunks
    @pytest.mark.parametrize("n,replicates,seed", [
        (5, 10_000, 1), (5, 20_000, 7081), (37, 10_000, 2), (69, 20_000, 1),
        (101, 10_000, 7081), (101, 16_384, 2), (501, 10_000, 1), (501, 20_000, 2)])
    def test_matches_transform_then_sort(self, n, replicates, seed):
        # moments_mc sorts the uniforms and maps five ranks through ndtri;
        # this maps every draw, sorts, then selects
        ranks = OrderIndexSet.from_size(n).indices
        cols = np.array(ranks) - 1
        cells = []
        for _, u in replicate_chunks(stream_key("order-stat-moments", seed, n),
                                     replicates, n):
            z = np.sort(special.ndtri(u), axis=1)[:, cols]
            per_rep = np.hstack([z, (z[:, :, None] * z[:, None, :]).reshape(-1, 25)])
            cells.append(cell_sums(np.hstack([per_rep, per_rep * per_rep])))
        t = float(replicates)
        sums = np.concatenate(cells).sum(axis=0) / t
        mean2 = sums[5:30].reshape(5, 5)
        se = np.sqrt(np.maximum(sums[30:] - sums[:30] ** 2, 0.0) / t)
        m = moments_mc(n, replicates, seed)
        assert m.means == dict(zip(ranks, sums[:5].tolist()))
        assert m.second_moments == {(i, j): float(mean2[a, b])
                                    for a, i in enumerate(ranks)
                                    for b, j in enumerate(ranks) if i <= j}
        assert m.std_error == float(se.max())

    def test_positive_second_moments_and_psd(self):
        m = moments_mc(25, 50_000, seed=5)
        for i in m.index_set.indices:
            assert m.second_moment(i, i) > 0
        eigvals = np.linalg.eigvalsh(m.summary_covariance())
        assert eigvals.min() >= -1e-10


class TestMomentsQuadrature:
    def test_median_mean_is_zero(self):
        m = moments_quadrature(5)
        assert abs(m.mean(3)) <= 1e-6

    def test_expected_maximum_frozen(self):
        m = moments_quadrature(5)
        assert m.mean(5) == pytest.approx(EXPECTED_MAX_OF_5, abs=1e-8)

    def test_means_match_independent_quadrature(self):
        # cross-check against scipy's general-purpose adaptive integrator
        m = moments_quadrature(9)
        for rank in (1, 3, 5, 7, 9):
            val, _ = integrate.quad(
                lambda x, r=rank: x * stats.norm.pdf(x)
                * math.exp(math.lgamma(10) - math.lgamma(r) - math.lgamma(10 - r))
                * stats.norm.cdf(x) ** (r - 1) * stats.norm.sf(x) ** (9 - r),
                -12, 12)
            assert m.mean(rank) == pytest.approx(val, abs=1e-8)

    @pytest.mark.parametrize("n,reps", [(5, 10_000_000), (25, 400_000),
                                        (101, 200_000)])
    def test_agrees_with_mc(self, n, reps):
        quad = moments_quadrature(n)
        mc = moments_mc(n, reps, seed=90)
        bound = 4 * math.hypot(quad.std_error, mc.std_error)
        for i in quad.index_set.indices:
            assert abs(quad.mean(i) - mc.mean(i)) <= bound
        for pair, value in quad.second_moments.items():
            assert abs(value - mc.second_moments[pair]) <= bound

    @pytest.mark.parametrize("n", [7, 12, 4, 5.5])
    def test_rejects_non_scenario_sizes(self, n):
        with pytest.raises(ScenarioError):
            moments_quadrature(n)

    def test_rejects_oversized_n(self):
        with pytest.raises(ValueError, match="<= 501"):
            moments_quadrature(505)

    def test_large_sample_matches_asymptotics(self):
        m = moments_quadrature(501)
        idx = m.index_set
        med_var = asymptotic_cov(0.5, 0.5, 501).value
        quart_cov = asymptotic_cov(0.25, 0.75, 501).value
        assert m.var(idx.median) == pytest.approx(med_var, rel=0.05)
        assert m.cov(idx.lower_quartile, idx.upper_quartile) == pytest.approx(
            quart_cov, rel=0.05)

    def test_summary_covariance_is_built_once_and_read_only(self):
        m = moments_quadrature(9)
        cov = m.summary_covariance()
        assert m.summary_covariance() is cov
        with pytest.raises(ValueError):
            cov[0, 0] = 0.0
        ranks = m.index_set.indices
        sigma = np.array([[m.cov(i, j) for j in ranks] for i in ranks])
        parts = np.array([[0.5, 0, 0, 0, 0.5], [0, 0.5, 0, 0.5, 0], [0, 0, 1, 0, 0]])
        assert np.array_equal(cov, parts @ sigma @ parts.T)

    def test_positive_second_moments_and_psd(self):
        for n in (5, 101):
            m = moments_quadrature(n)
            for i in m.index_set.indices:
                assert m.second_moment(i, i) > 0
            eigvals = np.linalg.eigvalsh(m.summary_covariance())
            assert eigvals.min() >= -1e-10

    @pytest.mark.parametrize("n", [5, 389, 477, 501])
    def test_ladder_matches_finest_rung(self, n):
        # the accepted rung must agree with a fixed 81-panel evaluation
        m = moments_quadrature(n)
        finest = 81
        for i in m.index_set.indices:
            ref = order_stats._moment_once(n, (i,), 1, finest)
            assert abs(m.mean(i) - ref) <= 1e-10
        for (i, j), value in m.second_moments.items():
            ranks, power = ((i,), 2) if i == j else ((i, j), 1)
            ref = order_stats._moment_once(n, ranks, power, finest)
            assert abs(value - ref) <= 1e-10

    def test_every_integral_accepted_at_second_rung(self, monkeypatch):
        # counts, not times: a kernel change that climbs the ladder fails here
        calls = {}
        moment_once = order_stats._moment_once

        def counting(n, ranks, power, panels):
            calls.setdefault((n, ranks, power), []).append(panels)
            return moment_once(n, ranks, power, panels)

        monkeypatch.setattr(order_stats, "_moment_once", counting)
        sizes = (5, 129, 253, 377, 501)
        for n in sizes:
            order_stats.moments_quadrature.__wrapped__(n)
        assert len(calls) == 20 * len(sizes)
        for panels in calls.values():
            assert panels == list(order_stats._PANEL_LADDER[:2])


class TestRankSupport:
    """``_rank_support(i, n)`` leaves 1e-20 of Z_(i)'s mass in each tail,
    checked with the Beta form of the order-statistic CDF, P(Z_(i) <= x) =
    I_Phi(x)(i, n + 1 - i), and its mirror for the upper tail."""

    EPS = 1e-20

    @pytest.mark.parametrize("n", [5, 129, 501])
    def test_each_tail_holds_its_share(self, n):
        for i in OrderIndexSet.from_size(n).indices:
            lo, hi = order_stats._rank_support(i, n)
            below = special.betainc(i, n + 1 - i, special.ndtr(lo))
            above = special.betainc(n + 1 - i, i, special.ndtr(-hi))
            for end, mass, clamp in ((lo, below, -10.0), (hi, above, 10.0)):
                assert mass <= self.EPS * (1 + 1e-6)
                if end != clamp:
                    assert mass >= self.EPS * (1 - 1e-6)

    def test_minimum_ends_below_zero_at_largest_size(self):
        # P(Z_(1) > 0) = 2**-501, far below the 1e-20 tail
        assert order_stats._rank_support(1, 501)[1] < 0.0


class TestCdfGap:
    """``_cdf_gap(x, y)`` is Phi(y) - Phi(x), the mass between neighbours."""

    @pytest.mark.parametrize("x,y", [
        (-1.0, 0.5), (0.3, 2.0), (-2.0, -0.1), (-0.7, 0.7), (-3.0, 3.0),
        (-9.0, -8.9), (8.9, 9.0), (-5.0, 5.0), (1.2, 1.3), (-1.3, -1.2)])
    def test_against_mpmath(self, x, y):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        want = mp.ncdf(mp.mpf(y)) - mp.ncdf(mp.mpf(x))
        got = order_stats._cdf_gap(np.array([[x]]), np.array([[y]]))[0, 0]
        assert abs(got - float(want)) <= 1e-13 * float(want)

    @staticmethod
    def grid():
        x = np.linspace(-9.0, 9.0, 61)[:, None]
        y = x + np.linspace(0.0, 6.0, 43)[None, :]
        return x, y

    def test_bit_equal_to_two_erfc_form(self):
        x, y = self.grid()
        flip = x + y > 0.0
        lo, hi = np.where(flip, x, -y), np.where(flip, y, -x)
        want = 0.5 * (special.erfc(lo / math.sqrt(2.0))
                      - special.erfc(hi / math.sqrt(2.0)))
        assert np.array_equal(order_stats._cdf_gap(x, y), want)

    def test_mirror_is_bitwise(self):
        x, y = self.grid()
        assert np.array_equal(order_stats._cdf_gap(x, y), order_stats._cdf_gap(-y, -x))


class TestOrderStatisticIdentities:
    """Exact identities of normal order statistics (David & Nagaraja,
    *Order Statistics*, 3rd ed.): for every rank i, sum_j E(Z_(i) Z_(j)) = 1;
    sum_i E(Z_(i)^2) = n; sum_i E(Z_(i)) = 0. Every entry is integrated on
    its own, so the sums check the quadrature kernel rank by rank."""

    @staticmethod
    def check(n, mean, product):
        ranks = range(1, n + 1)
        assert abs(sum(mean(i) for i in ranks)) <= 1e-10
        assert abs(sum(product(i, i) for i in ranks) - n) <= 1e-10
        for i in ranks:
            assert abs(sum(product(i, j) for j in ranks) - 1.0) <= 1e-10

    def test_all_ranks_of_five_through_moments_quadrature(self):
        m = moments_quadrature(5)
        assert m.index_set.indices == (1, 2, 3, 4, 5)
        self.check(5, m.mean, m.second_moment)

    @pytest.mark.parametrize("n", [9, 13])
    def test_all_ranks_through_the_kernel(self, n):
        def integrate(ranks, power):
            return order_stats._adaptive(
                lambda panels: order_stats._moment_once(n, ranks, power, panels))[0]

        def product(i, j):
            i, j = min(i, j), max(i, j)
            return integrate((i,), 2) if i == j else integrate((i, j), 1)

        self.check(n, lambda i: integrate((i,), 1), product)


class TestUniformStreams:
    def test_windows_do_not_depend_on_chunking(self):
        key = stream_key("unit", 42, 17)
        whole = replicate_uniforms(key, 0, 12, 7)
        part = replicate_uniforms(key, 4, 3, 7)
        assert np.array_equal(whole[4:7], part)
        single = replicate_uniforms(key, 9, 1, 7)
        assert np.array_equal(whole[9], single[0])

    def test_values_strictly_inside_unit_interval(self):
        u = replicate_uniforms(stream_key("unit", 0), 0, 100, 64)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_extreme_words_map_inside_unit_interval(self):
        u = _words_to_uniforms(np.array([0, 2**64 - 1, 2**64 - 2**11 - 1],
                                        dtype=np.uint64))
        assert u[0] == 2.0 ** -54
        assert u[1] == 1.0 - 2.0 ** -53
        # the next word down is untouched by the clamp: (2^53 - 3/2) 2^-53
        # rounds to even, 1 - 2^-52
        assert u[2] == 1.0 - 2.0 ** -52

    def test_chunks_cover_replicates_in_whole_cells(self, monkeypatch):
        monkeypatch.setattr(_rng, "CHUNK", 2 * _rng.CELL)
        key = stream_key("unit", 3)
        total = 5 * _rng.CELL + 7
        chunks = list(replicate_chunks(key, total, 3))
        assert [first for first, _ in chunks] == [0, 1024, 2048]
        assert np.array_equal(np.vstack([u for _, u in chunks]),
                              replicate_uniforms(key, 0, total, 3))

    def test_cell_sums_end_in_a_short_cell(self):
        values = np.arange(2 * _rng.CELL + 3, dtype=np.float64).reshape(-1, 1) * [1.0, 2.0]
        sums = cell_sums(values)
        assert sums.shape == (3, 2)
        assert np.array_equal(sums[:, 0], [values[:512, 0].sum(),
                                           values[512:1024, 0].sum(),
                                           values[1024:, 0].sum()])
        assert np.array_equal(sums[:, 1], 2 * sums[:, 0])

    # 7 draws fill 2 counters, so 2**62 replicates span exactly 2**63
    EDGE = 2 ** 62

    def test_counter_bound_edge_is_drawn(self):
        key = stream_key("unit", 5)
        last = replicate_uniforms(key, self.EDGE - 1, 1, 7)
        assert last.shape == (1, 7)
        assert not np.array_equal(last, replicate_uniforms(key, 0, 1, 7))
        first, u = next(replicate_chunks(key, self.EDGE, 7))
        assert first == 0 and u.shape == (_rng.CHUNK, 7)

    def test_past_counter_bound_is_refused_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew past the counter bound")

        monkeypatch.setattr(_rng, "Philox", no_draws)
        key = stream_key("unit", 5)
        with pytest.raises(ValueError, match="2\\*\\*63 Philox counters"):
            replicate_uniforms(key, self.EDGE, 1, 7)
        with pytest.raises(ValueError, match="2\\*\\*63 Philox counters"):
            next(replicate_chunks(key, self.EDGE + 1, 7))
        with pytest.raises(ValueError, match="2\\*\\*63 Philox counters"):
            next(replicate_chunks(key, 10**400, 1))

    @pytest.mark.parametrize("count,draws", [(0, 7), (-1, 7), (1, 0), (1, -3)])
    def test_empty_or_negative_request_is_refused(self, count, draws):
        with pytest.raises(ValueError, match="count and draws must be positive"):
            replicate_uniforms(stream_key("unit", 6), 0, count, draws)

    def test_distinct_keys_give_distinct_streams(self):
        a = replicate_uniforms(stream_key("a", 1), 0, 2, 8)
        b = replicate_uniforms(stream_key("b", 1), 0, 2, 8)
        assert not np.array_equal(a, b)
