"""Effect sizes, heterogeneity, pooling, and the seven-study case study."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from optmean.meta import (
    FiveNumberPayload,
    MeanRangePayload,
    MeanSdPayload,
    OddsRatioPayload,
    StudyConversionError,
    StudyEffect,
    StudyRecord,
    cohens_d,
    heterogeneity,
    load_bundled_studies,
    odds_ratio_to_d,
    pool_random_effects,
    read_study_csv,
    run_case_study,
)

# Published per-study columns for the two conversion styles; effects carry
# (d, var) with the variance printed in the source's "(SE)" column.
PUBLISHED_LEGACY = [
    (0.8656, 0.0562), (0.0824, 0.0527), (0.9190, 0.1590), (0.9637, 0.0447),
    (0.3353, 0.0944), (0.5882, 0.0352), (0.9584, 0.1045)]
PUBLISHED_ADAPTIVE = [
    (0.6622, 0.0542), (0.1588, 0.0528), (0.9852, 0.1614), (0.9637, 0.0447),
    (0.3353, 0.0944), (0.5882, 0.0352), (0.9084, 0.1036)]
PUBLISHED_LEGACY_WEIGHTS = (17.79, 18.97, 6.29, 22.35, 10.59, 28.40, 9.57)

LEGACY_FOOTER = dict(q=11.6594, i2=48.539, p=0.07, pooled=0.6732)
ADAPTIVE_FOOTER = dict(q=9.2091, i2=34.847, p=0.162, pooled=0.6257)

LEGACY_D = (0.8656, 0.0824, 0.9190, 0.9637, 0.3353, 0.5882, 0.9584)
ADAPTIVE_D = (0.6622, 0.1588, 0.9852, 0.9637, 0.3353, 0.5882, 0.9084)


class TestCohensD:
    def test_mean_sd_study(self):
        effect = cohens_d(69.5, 24.5, 51, 95.5, 29.25, 51)
        assert effect.d == pytest.approx(0.9637, abs=1e-4)

    def test_small_arms_study(self):
        effect = cohens_d(46.5, 18.5, 22, 52.25, 15.75, 23)
        assert effect.d == pytest.approx(0.3353, abs=1e-4)

    def test_equal_means_give_zero(self):
        assert cohens_d(10.0, 2.0, 30, 10.0, 3.0, 25).d == 0.0

    def test_weight_is_reciprocal_variance(self):
        effect = cohens_d(1.0, 2.0, 30, 2.0, 2.0, 25)
        assert effect.weight * effect.var_d == pytest.approx(1.0, rel=1e-15)

    def test_ci_definition(self):
        effect = cohens_d(1.0, 2.0, 30, 2.0, 2.0, 25)
        lo, hi = effect.ci95
        assert lo == pytest.approx(effect.d - 1.96 * math.sqrt(effect.var_d))
        assert hi == pytest.approx(effect.d + 1.96 * math.sqrt(effect.var_d))

    @pytest.mark.parametrize("sd_c,sd_t,n_c,n_t", [
        (0.0, 1.0, 10, 10), (1.0, -2.0, 10, 10), (1.0, 1.0, 1, 10)])
    def test_input_validation(self, sd_c, sd_t, n_c, n_t):
        with pytest.raises(ValueError):
            cohens_d(0.0, sd_c, n_c, 1.0, sd_t, n_t)

    def test_non_finite_effect_refused(self):
        with pytest.raises(ValueError, match="finite"):
            StudyEffect(d=-math.inf, var_d=math.inf)
        with pytest.raises(ValueError, match="finite"):
            cohens_d(1e308, 1.0, 20, -1e308, 1.0, 20)

    def test_non_finite_sd_refused(self):
        with pytest.raises(ValueError, match="finite"):
            cohens_d(10.0, math.inf, 20, 12.0, 8.0, 20)

    @given(scale=st.floats(min_value=0.01, max_value=1000))
    @settings(max_examples=60)
    def test_scale_invariance(self, scale):
        base = cohens_d(46.5, 18.5, 22, 52.25, 15.75, 23)
        scaled = cohens_d(46.5 * scale, 18.5 * scale, 22,
                          52.25 * scale, 15.75 * scale, 23)
        assert scaled.d == pytest.approx(base.d, rel=1e-12)


class TestOddsRatioToD:
    def test_published_conversion(self):
        effect = odds_ratio_to_d(2.9, (1.3, 6.5), 103, 42)
        assert effect.d == pytest.approx(math.log(2.9) * math.sqrt(3) / math.pi,
                                         rel=1e-15)
        assert abs(effect.d - 0.5882) < 0.002
        assert effect.var_d == pytest.approx(0.0352, abs=1e-4)

    def test_unit_odds_ratio(self):
        assert odds_ratio_to_d(1.0, (0.5, 2.0), 30, 30).d == 0.0

    def test_inverse_point(self):
        val = math.exp(math.pi / math.sqrt(3))
        assert odds_ratio_to_d(val, (1.0, 20.0), 30, 30).d == \
            pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("or_,ci", [(-1.0, (0.5, 2.0)), (0.0, (0.5, 2.0)),
                                        (2.0, (0.0, 2.0)), (2.0, (3.0, 2.0))])
    def test_input_validation(self, or_, ci):
        with pytest.raises(ValueError):
            odds_ratio_to_d(or_, ci, 30, 30)


class TestHeterogeneity:
    @pytest.mark.parametrize("rows,footer", [
        (PUBLISHED_LEGACY, LEGACY_FOOTER),
        (PUBLISHED_ADAPTIVE, ADAPTIVE_FOOTER),
    ])
    def test_published_footers(self, rows, footer):
        effects = [StudyEffect(d=d, var_d=v) for d, v in rows]
        het = heterogeneity(effects)
        assert het.q == pytest.approx(footer["q"], abs=0.05)
        assert het.df == 6
        assert het.i_squared == pytest.approx(footer["i2"], abs=0.5)
        assert het.p_value == pytest.approx(footer["p"], abs=0.005)

    def test_identical_effects_have_no_heterogeneity(self):
        effects = [StudyEffect(d=0.4, var_d=0.05)] * 4
        het = heterogeneity(effects)
        assert het.q == pytest.approx(0.0, abs=1e-12)
        assert het.i_squared == 0.0
        assert het.df == 3

    def test_needs_two_studies(self):
        with pytest.raises(ValueError):
            heterogeneity([StudyEffect(d=0.4, var_d=0.05)])

    def test_i_squared_identity(self):
        effects = [StudyEffect(d=d, var_d=v) for d, v in PUBLISHED_LEGACY]
        het = heterogeneity(effects)
        assert het.i_squared == pytest.approx(
            100.0 * (het.q - het.df) / het.q, rel=1e-15)


class TestPooling:
    def test_homogeneous_studies_pool_to_common_effect(self):
        effects = [StudyEffect(d=0.4, var_d=0.05)] * 5
        result = pool_random_effects(effects)
        assert result.tau_squared == 0.0
        assert result.pooled_d == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("rows,footer", [
        (PUBLISHED_LEGACY, LEGACY_FOOTER),
        (PUBLISHED_ADAPTIVE, ADAPTIVE_FOOTER),
    ])
    def test_published_pooled_effects(self, rows, footer):
        effects = [StudyEffect(d=d, var_d=v) for d, v in rows]
        result = pool_random_effects(effects)
        assert result.pooled_d == pytest.approx(footer["pooled"], abs=0.05)
        lo, hi = result.pooled_ci95
        assert lo < result.pooled_d < hi

    def test_serialization_round_trip(self):
        effects = [StudyEffect(d=d, var_d=v) for d, v in PUBLISHED_LEGACY]
        doc = pool_random_effects(effects).to_dict()
        assert len(doc["effects"]) == 7
        assert doc["df"] == 6
        assert doc["effects"][0]["weight"] == pytest.approx(1 / 0.0562)


class TestCaseStudy:
    def test_adaptive_profile_reproduces_published_rows(self):
        result = run_case_study(load_bundled_studies(), "optimal_approx", "wan")
        for effect, want in zip(result.effects, ADAPTIVE_D):
            assert effect.d == pytest.approx(want, abs=0.01)
        assert result.q == pytest.approx(ADAPTIVE_FOOTER["q"], abs=0.05)
        assert result.i_squared == pytest.approx(ADAPTIVE_FOOTER["i2"], abs=0.5)
        assert result.p_value == pytest.approx(ADAPTIVE_FOOTER["p"], abs=0.005)
        assert result.pooled_d == pytest.approx(ADAPTIVE_FOOTER["pooled"], abs=0.05)

    def test_legacy_profile_reproduces_published_rows(self):
        result = run_case_study(load_bundled_studies(), "hozo_as_applied", "hozo")
        for effect, want in zip(result.effects, LEGACY_D):
            assert effect.d == pytest.approx(want, abs=0.01)
        assert result.q == pytest.approx(LEGACY_FOOTER["q"], abs=0.05)
        assert result.i_squared == pytest.approx(LEGACY_FOOTER["i2"], abs=0.5)
        assert result.p_value == pytest.approx(LEGACY_FOOTER["p"], abs=0.005)
        assert result.pooled_d == pytest.approx(LEGACY_FOOTER["pooled"], abs=0.05)

    def test_legacy_weight_column_regenerates(self):
        # the tightest margin is study 4 at ~0.0499 of the 0.05 allowance;
        # the computation is deterministic, so this is a stable check
        result = run_case_study(load_bundled_studies(), "hozo_as_applied", "hozo")
        for effect, want in zip(result.effects, PUBLISHED_LEGACY_WEIGHTS):
            assert effect.weight == pytest.approx(want, abs=0.05)

    def test_sign_convention_flip(self):
        records = load_bundled_studies()
        flipped = [_flip(record) for record in records]
        base = run_case_study(records, "optimal_approx", "wan")
        mirror = run_case_study(flipped, "optimal_approx", "wan")
        for a, b in zip(base.effects, mirror.effects):
            assert b.d == pytest.approx(-a.d, rel=1e-9, abs=1e-12)
        assert mirror.pooled_d == pytest.approx(-base.pooled_d, rel=1e-9)
        assert mirror.q == pytest.approx(base.q, rel=1e-9)
        assert mirror.i_squared == pytest.approx(base.i_squared, rel=1e-6, abs=1e-6)

    def test_empty_record_list_rejected(self):
        with pytest.raises(ValueError):
            run_case_study([], "optimal_approx", "wan")

    def test_incompatible_study_aborts_with_diagnostics(self):
        records = load_bundled_studies()[:2]
        # the stepwise SD rule needs a median below n = 16, which a
        # mean-with-range payload cannot supply
        bad = StudyRecord(
            index=99, label="tiny arms", n_cases=10, n_controls=12,
            payload=MeanRangePayload(5.0, 1.0, 9.0, 6.0, 2.0, 11.0))
        with pytest.raises(StudyConversionError) as excinfo:
            run_case_study(records + [bad], "hozo_as_applied", "hozo")
        assert "study 99" in str(excinfo.value)
        assert "tiny arms" in str(excinfo.value)

    def test_unknown_methods_rejected(self):
        records = load_bundled_studies()
        with pytest.raises(StudyConversionError):
            run_case_study(records, "midmean", "wan")
        with pytest.raises(StudyConversionError):
            run_case_study(records, "optimal_approx", "mad")


class TestStudyCsv:
    def test_bundled_fixture_shape(self):
        records = load_bundled_studies()
        assert [r.index for r in records] == [1, 2, 3, 4, 5, 6, 7]
        assert sum(r.n_cases for r in records) == 306
        assert sum(r.n_controls for r in records) == 225
        assert isinstance(records[0].payload, FiveNumberPayload)
        assert isinstance(records[3].payload, MeanSdPayload)
        assert isinstance(records[5].payload, OddsRatioPayload)
        assert isinstance(records[6].payload, MeanRangePayload)
        assert records[4].note != ""

    def test_malformed_rows_are_located(self, tmp_path):
        header = ("index,label,n_cases,n_controls,payload_type,"
                  "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n")
        bad_type = header + "1,x,10,10,histogram,1,2,3,,,,,,,,,\n"
        path = tmp_path / "bad.csv"
        path.write_text(bad_type)
        with pytest.raises(ValueError, match="line 2"):
            read_study_csv(path)
        missing = header + "1,x,10,10,meansd,1.0,2.0,3.0,,,,,,,,,\n"
        path.write_text(missing)
        with pytest.raises(ValueError, match="sd_controls"):
            read_study_csv(path)
        disordered = header + "1,x,10,10,fivenum,s1,9.0,,2.0,,1.0,1,,2,,3,\n"
        path.write_text(disordered)
        with pytest.raises(ValueError, match="ordered"):
            read_study_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            read_study_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,label,n_cases,n_controls,payload_type,"
                        "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_study_csv(path)


def _flip(record: StudyRecord) -> StudyRecord:
    payload = record.payload
    if isinstance(payload, FiveNumberPayload):
        flipped = FiveNumberPayload(cases=payload.controls, controls=payload.cases)
    elif isinstance(payload, MeanSdPayload):
        flipped = MeanSdPayload(payload.mean_controls, payload.sd_controls,
                                payload.mean_cases, payload.sd_cases)
    elif isinstance(payload, OddsRatioPayload):
        flipped = OddsRatioPayload(1.0 / payload.odds_ratio,
                                   1.0 / payload.ci_high, 1.0 / payload.ci_low)
    else:
        flipped = MeanRangePayload(payload.mean_controls, payload.min_controls,
                                   payload.max_controls, payload.mean_cases,
                                   payload.min_cases, payload.max_cases)
    return StudyRecord(index=record.index, label=record.label,
                       n_cases=record.n_controls, n_controls=record.n_cases,
                       payload=flipped, note=record.note)
