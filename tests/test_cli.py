"""Command-line surface: flags, formats, exit codes, reproducibility."""

import csv
import io
import json
import time

import pytest

from optmean import _rng, cli, estimators, order_stats
from optmean.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, \
    main
from optmean.estimators import METHODS, SD_METHODS, SUMMARY_METHODS, \
    FiveNumberSummary, estimate_mean, sd_estimate
from optmean.errors import ScenarioError
from optmean.meta import bundled_table1, cohens_d, load_bundled_studies, \
    read_study_csv, run_case_study
from optmean.weights import Scenario


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def footer_stats(text):
    stats = {}
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            stats[key] = value
    return stats


class TestEstimate:
    def test_optimal_approx_value(self, capsys):
        code, out, _ = run_cli([
            "estimate", "--scenario", "s1", "--n", "40", "--min", "2.25",
            "--median", "16", "--max", "74.25", "--method", "optimal-approx"],
            capsys)
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["value"]) == pytest.approx(20.471, abs=1e-3)
        assert row["method"] == "optimal_approx"

    def test_hozo_threshold_value(self, capsys):
        code, out, _ = run_cli([
            "estimate", "--scenario", "s1", "--n", "40", "--min", "2.25",
            "--median", "16", "--max", "74.25", "--method", "hozo"], capsys)
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["value"]) == 16.0

    def test_missing_median_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--scenario", "s1", "--n", "40", "--min", "2.25",
                  "--max", "74.25"])
        assert excinfo.value.code == EXIT_USAGE

    def test_json_format(self, capsys):
        code, out, _ = run_cli([
            "estimate", "--scenario", "s2", "--n", "40", "--q1", "1",
            "--median", "2", "--q3", "3", "--method", "wan", "--format", "json"],
            capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["value"] == pytest.approx(2.0)
        assert doc["config"]["seed"] is not None

    def test_custom_weight(self, capsys):
        code, out, _ = run_cli([
            "estimate", "--scenario", "s1", "--n", "40", "--min", "0",
            "--median", "10", "--max", "20", "--method", "weighted",
            "--weight", "0.25"], capsys)
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["value"]) == pytest.approx(0.25 * 10 + 0.75 * 10)
        assert row["method"] == "custom_weight"

    def test_sd_method(self, capsys):
        code, out, _ = run_cli([
            "estimate", "--scenario", "s1", "--n", "40", "--min", "2.25",
            "--median", "16", "--max", "74.25", "--method", "wan-sd"], capsys)
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(16.695, abs=1e-3)

    def test_batch_mode(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text(
            "scenario,n,min,q1,median,q3,max\n"
            "s1,40,2.25,,16,,74.25\n"
            "s2,40,,1,2,3,\n")
        code, out, _ = run_cli([
            "estimate", "--input", str(src), "--method", "optimal-approx"], capsys)
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["value"]) == pytest.approx(20.471, abs=1e-3)
        assert float(rows[1]["value"]) == pytest.approx(2.0)

    def test_batch_mc_moments_drawn_once_per_size(self, tmp_path, capsys,
                                                  monkeypatch):
        import optmean.cli
        header = "scenario,n,min,q1,median,q3,max\n"
        lines = ["s1,5,1,,3,,9", "s2,9,,2,3,5,", "s3,5,1,2,3,5,9",
                 "s1,9,0,,4,,10", "s2,5,,1,2,4,", "s3,9,0,1,3,4,8"]
        argv = ["--method", "optimal-exact", "--backend", "mc",
                "--reps", "10000", "--seed", "3"]
        calls = []
        real = optmean.cli.moments_mc

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(optmean.cli, "moments_mc", counted)
        src = tmp_path / "summaries.csv"
        src.write_text(header + "\n".join(lines) + "\n")
        code, out, _ = run_cli(["estimate", "--input", str(src), *argv], capsys)
        assert code == EXIT_OK
        assert sorted(calls) == [(5, 10000, 3), (9, 10000, 3)]
        # each row on its own, so no run can share moments across rows
        per_row = []
        for line in lines:
            src.write_text(header + line + "\n")
            code, row_out, _ = run_cli(["estimate", "--input", str(src), *argv],
                                       capsys)
            assert code == EXIT_OK
            per_row.append(row_out.splitlines()[-1])
        # same input path, so the same comment and column header lines
        assert out.splitlines() == row_out.splitlines()[:-1] + per_row
        assert len(calls) == 2 + len(lines)

    def test_batch_mode_bad_row_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,40,9,,2,,74\n")
        code, _, err = run_cli([
            "estimate", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert "line 2" in err

    def test_missing_input_file_is_data_error(self, capsys):
        code, _, err = run_cli(["estimate", "--input", "no-such-file.csv"], capsys)
        assert code == EXIT_DATA

    @pytest.mark.parametrize("flag,value", [("--median", "nan"), ("--max", "inf"),
                                            ("--min", "-inf"),
                                            pytest.param("--n", str(10**400),
                                                         id="--n-10**400")])
    def test_non_finite_value_is_usage_error(self, flag, value, capsys):
        values = {"--min": "1", "--median": "2", "--max": "3", flag: value}
        argv = ["estimate", "--scenario", "s1", "--n", "25"]
        for key, text in values.items():
            argv += [key, text]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE

    def test_batch_non_finite_value_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,25,1,,nan,,3\n")
        code, _, err = run_cli(["estimate", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert "finite" in err

    @pytest.mark.parametrize("method,lo,mid,hi", [
        ("hozo-as-applied", "1e308", "1.6e308", "1.7e308"),
        ("wan-sd", "-1.7e308", "0", "1.7e308")])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_estimate_is_usage_error(self, method, lo, mid, hi, fmt,
                                                 capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--scenario", "s1", "--n", "25", f"--min={lo}",
                  "--median", mid, "--max", hi, "--method", method,
                  "--format", fmt])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err

    def test_overflowing_hozo_sd_is_usage_error(self, capsys):
        # n <= 15 squares the range, which overflows for a finite range
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--scenario", "s1", "--n", "9", "--min=-1e200",
                  "--median", "0", "--max", "1e200", "--method", "hozo-sd"])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err

    def test_batch_overflowing_estimate_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\n"
                       "s1,25,1e308,,1.6e308,,1.7e308\n")
        code, out, err = run_cli(["estimate", "--input", str(src), "--method",
                                  "hozo-as-applied", "--format", "json"], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "line 2" in err and "overflows" in err

    def test_batch_sample_size_past_float_range_is_data_error(self, tmp_path,
                                                              capsys):
        src = tmp_path / "summaries.csv"
        src.write_text(f"scenario,n,min,q1,median,q3,max\ns1,{10**400},1,,2,,3\n")
        code, out, err = run_cli(["estimate", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "line 2" in err and "finite as a float" in err

    def test_negative_exponent_values_after_a_space(self, capsys):
        code, out, _ = run_cli([
            "estimate", "--scenario", "s1", "--n", "9", "--min", "-1e+300",
            "--median", "-.5e2", "--max", "1e300", "--method", "wan-sd"], capsys)
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert (row["min"], row["median"]) == ("-1e+300", "-50")
        # read as a value, so refused by the weight check, not by argparse
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--scenario", "s1", "--n", "9", "--min", "0",
                  "--median", "1", "--max", "2", "--method", "weighted",
                  "--weight", "-5e-324"])
        assert excinfo.value.code == EXIT_USAGE
        assert "weights must lie in [0, 1], got -5e-324" in capsys.readouterr().err

    def test_option_like_value_is_still_refused(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--scenario", "s1", "--n", "9", "--min", "-x",
                  "--median", "0", "--max", "1"])
        assert excinfo.value.code == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err

    def test_range_sd_where_its_quantile_argument_rounds_to_one(self, capsys):
        # (n - 0.375) / (n + 0.25) is 1.0 as a float from n ~ 1.6e16
        code, out, _ = run_cli([
            "estimate", "--scenario", "s1", "--n", str(10**17), "--min", "0",
            "--median", "1", "--max", "2", "--method", "wan-sd"], capsys)
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(0.1169834026,
                                                                  abs=1e-10)

    def test_value_near_float_max_reads_back_finite(self, capsys):
        # ten digits of 1.7976931345e308 round to 1.797693135e308 > max
        code, out, _ = run_cli([
            "estimate", "--scenario", "s1", "--n", "41", "--min", "0",
            "--median", "0", "--max", "1.7976931345e308", "--method", "hozo"], capsys)
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["max"]) == 1.7976931345e308
        assert row["min"] == "0" and row["value"] == "0"

    def test_batch_reps_past_counter_space_is_data_error(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(_rng, "Philox", _no_draws)
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,9,1,,2,,5\n")
        code, out, err = run_cli([
            "estimate", "--input", str(src), "--method", "optimal-exact",
            "--backend", "mc", "--reps", str(10**400)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("optmean estimate: input error: line 2: ")
        assert err.endswith(" Philox counters of one stream\n")

    def test_batch_reads_its_own_output(self, tmp_path, capsys):
        # an optmean CSV starts with '#' lines; its leading columns match
        src, written = tmp_path / "summaries.csv", tmp_path / "estimates.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\n"
                       "s1,40,2.25,,16,,74.25\ns2,40,,1,2,3,\ns3,41,1,2,3,4,5\n")
        code, first, _ = run_cli(["estimate", "--input", str(src),
                                  "--output", str(written)], capsys)
        assert code == EXIT_OK and first == ""
        assert written.read_text().startswith("# optmean ")
        code, again, _ = run_cli(["estimate", "--input", str(written)], capsys)
        assert code == EXIT_OK
        assert parse_csv(again) == parse_csv(written.read_text())

    def test_refused_row_after_comment_header_names_its_line(self, tmp_path,
                                                             capsys):
        src = tmp_path / "summaries.csv"
        run_cli(["estimate", "--scenario", "s1", "--n", "9", "--min", "1",
                 "--median", "2", "--max", "3", "--output", str(src)], capsys)
        lines = src.read_text().splitlines()
        src.write_text("\n".join(lines + ["s1,9,5,,2,,3"]) + "\n")
        code, out, err = run_cli(["estimate", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"optmean estimate: input error: line {len(lines) + 1}: "
                       "summary values must be ordered, got (5.0, 2.0, 3.0)\n")

    def test_batch_short_row_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,9,1,,2,,3\ns1\n")
        code, out, err = run_cli(["estimate", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("optmean estimate: input error: line 3: ")

    def test_batch_json_format(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text(
            "scenario,n,min,q1,median,q3,max\n"
            "s1,40,2.25,,16,,74.25\n"
            "s2,40,,1,2,3,\n")
        code, out, _ = run_cli([
            "estimate", "--input", str(src), "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["input"] == str(src)
        assert [r["scenario"] for r in doc["rows"]] == ["s1", "s2"]
        assert doc["rows"][0]["value"] == pytest.approx(20.471, abs=1e-3)

    def test_mc_reps_below_floor_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--scenario", "s1", "--n", "25", "--min", "1",
                  "--median", "2", "--max", "3", "--method", "optimal-exact",
                  "--backend", "mc", "--reps", "100"])
        assert excinfo.value.code == EXIT_USAGE

    def test_output_into_missing_directory_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli([
            "estimate", "--scenario", "s1", "--n", "25", "--min", "1",
            "--median", "2", "--max", "3",
            "--output", str(tmp_path / "no-such-dir" / "out.csv")], capsys)
        assert code == EXIT_DATA
        assert "output error" in err


class TestWeights:
    def test_s3_exact_pair_at_n5(self, capsys):
        code, out, _ = run_cli([
            "weights", "--scenario", "s3", "--n", "5"], capsys)
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["exact_w1"]) == pytest.approx(0.4, abs=0.002)
        assert float(row["exact_w2"]) == pytest.approx(0.4, abs=0.002)

    def test_s2_approx_column(self, capsys):
        code, out, _ = run_cli(["weights", "--scenario", "s2", "--n", "5"], capsys)
        row = parse_csv(out)[0]
        assert float(row["approx_w1"]) == pytest.approx(0.778, abs=1e-9)

    def test_grid_matches_published_start(self, capsys):
        code, out, _ = run_cli([
            "weights", "--scenario", "s1", "--grid", "5:29:4"], capsys)
        assert code == EXIT_OK
        got = [float(r["exact_w1"]) for r in parse_csv(out)]
        published = [0.5514, 0.4346, 0.3682, 0.3232, 0.2903, 0.2642, 0.2435]
        assert got == pytest.approx(published, abs=0.002)

    def test_bad_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["weights", "--scenario", "s1", "--grid", "6:20:2"])
        assert excinfo.value.code == EXIT_USAGE

    def test_n_and_grid_together_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["weights", "--scenario", "s1", "--n", "5", "--grid", "5:9:4"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["--n", "505"],
        ["--grid", "497:505:4"],
        ["--n", "5", "--backend", "mc", "--reps", "100"],
    ])
    def test_backend_limits_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["weights", "--scenario", "s1"] + argv)
        assert excinfo.value.code == EXIT_USAGE

    def test_mc_backend_small(self, capsys):
        code, out, _ = run_cli([
            "weights", "--scenario", "s1", "--n", "5", "--backend", "mc",
            "--reps", "50000", "--seed", "3"], capsys)
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["exact_w1"]) == pytest.approx(0.5514, abs=0.03)
        assert row["backend"] == "mc"
        assert float(row["std_error"]) > 0


class TestFit:
    def test_regenerated_fit_json(self, capsys):
        code, out, _ = run_cli([
            "fit", "--scenario", "s2", "--grid", "5:61:4"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        fit = doc["fit"]
        assert fit["model"].startswith("w(n) = 0.7")
        assert fit["c2"] < 0
        assert fit["residual"] < 1e-3
        assert fit["n_points"] == 15

    def test_fit_from_weight_table_file(self, tmp_path, capsys):
        table = tmp_path / "weights.csv"
        code, out, _ = run_cli([
            "weights", "--scenario", "s1", "--grid", "5:41:4",
            "--output", str(table)], capsys)
        assert code == EXIT_OK
        code, out, _ = run_cli([
            "fit", "--scenario", "s1", "--input", str(table)], capsys)
        assert code == EXIT_OK
        fit = json.loads(out)["fit"]
        assert fit["c1"] == pytest.approx(4.0, abs=1.0)
        assert fit["c2"] == pytest.approx(-0.75, abs=0.1)

    @pytest.mark.parametrize("argv", [
        ["--grid", "5:505:100"],
        ["--grid", "5:17:4", "--backend", "mc", "--reps", "100"],
    ])
    def test_backend_limits_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--scenario", "s1"] + argv)
        assert excinfo.value.code == EXIT_USAGE

    def test_json_weight_table_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "weights.json"
        run_cli(["weights", "--scenario", "s1", "--grid", "5:21:4",
                 "--format", "json", "--output", str(table)], capsys)
        code, _, err = run_cli([
            "fit", "--scenario", "s1", "--input", str(table)], capsys)
        assert code == EXIT_DATA
        assert "not a weight-table CSV" in err

    def test_short_row_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "weights.csv"
        table.write_text("n,scenario,exact_w1\n5,s1,0.55\n9,s1\n"
                         "13,s1,0.37\n17,s1,0.32\n")
        code, _, _ = run_cli([
            "fit", "--scenario", "s1", "--input", str(table)], capsys)
        assert code == EXIT_DATA

    def test_nan_weight_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "weights.csv"
        table.write_text("n,scenario,exact_w1\n5,s1,0.55\n9,s1,0.43\n"
                         "13,s1,nan\n17,s1,0.32\n")
        code, _, err = run_cli([
            "fit", "--scenario", "s1", "--input", str(table)], capsys)
        assert code == EXIT_DATA
        assert "finite" in err

    def test_short_regenerated_grid_is_usage_error(self, capsys):
        # the two sizes come from --grid, a flag
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--scenario", "s1", "--grid", "5:9:4"])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "optmean fit: error: need at least 4 grid points to fit, got 2\n")

    def test_sample_size_past_float_range_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "weights.csv"
        table.write_text("n,scenario,exact_w1\n5,s1,0.55\n9,s1,0.43\n"
                         f"13,s1,0.37\n{10**400},s1,0.01\n")
        code, out, err = run_cli([
            "fit", "--scenario", "s1", "--input", str(table)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == ("optmean fit: input error: line 5: "
                       "int too large to convert to float\n")

    def test_refused_row_after_comment_header_names_its_line(self, tmp_path,
                                                             capsys):
        table = tmp_path / "weights.csv"
        run_cli(["weights", "--scenario", "s1", "--grid", "5:17:4",
                 "--output", str(table)], capsys)
        lines = table.read_text().splitlines()
        table.write_text("\n".join(lines + ["21,s1,x"]) + "\n")
        code, out, err = run_cli([
            "fit", "--scenario", "s1", "--input", str(table)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith(f"optmean fit: input error: line {len(lines) + 1}: ")

    def test_weights_no_power_law_follows_are_data_error(self, tmp_path, capsys):
        # 0.7 + c1*n^c2 cannot pass above 0.7 at n = 5 and below it at n = 57
        table = tmp_path / "weights.csv"
        table.write_text("n,scenario,exact_w1\n5,s2,0.778\n5,s2,0.778\n"
                         "5,s2,0.778\n57,s2,0.69994\n")
        code, out, err = run_cli([
            "fit", "--scenario", "s2", "--input", str(table)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("optmean fit: input error: power-law fit for s2 "
                              "did not converge")

    def test_underdetermined_input_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "weights.csv"
        run_cli(["weights", "--scenario", "s1", "--grid", "5:9:4",
                 "--output", str(table)], capsys)
        code, _, err = run_cli([
            "fit", "--scenario", "s1", "--input", str(table)], capsys)
        assert code == EXIT_DATA
        assert "at least 4" in err


class TestSimulate:
    def test_small_run_shape(self, capsys):
        code, out, _ = run_cli([
            "simulate", "--distribution", "normal", "--scenario", "s1",
            "--grid", "5:9:4", "--reps", "2000", "--seed", "5"], capsys)
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert {r["method"] for r in rows} == {"sample_mean", "hozo",
                                               "optimal_approx"}
        assert {r["n"] for r in rows} == {"5", "9"}
        control = [r for r in rows if r["method"] == "sample_mean"]
        assert all(float(r["rmse"]) == 1.0 for r in control)

    def test_method_list_flag(self, capsys):
        code, out, _ = run_cli([
            "simulate", "--distribution", "normal", "--scenario", "s2",
            "--methods", "sample_mean,wan", "--grid", "9:9:4", "--reps", "1000"],
            capsys)
        assert code == EXIT_OK
        assert {r["method"] for r in parse_csv(out)} == {"sample_mean", "wan"}

    def test_incompatible_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--distribution", "normal", "--scenario", "s1",
                  "--methods", "wan", "--grid", "5:9:4", "--reps", "1000"])
        assert excinfo.value.code == EXIT_USAGE

    def test_exact_method_past_quadrature_limit_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--distribution", "normal", "--scenario", "s1",
                  "--methods", "optimal_exact", "--grid", "505:505:4",
                  "--reps", "1000"])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n <= 501" in captured.err


class TestMeta:
    def test_adaptive_profile_footer(self, capsys):
        code, out, _ = run_cli(["meta", "--profile", "table3"], capsys)
        assert code == EXIT_OK
        stats = footer_stats(out)
        assert float(stats["i_squared"]) == pytest.approx(34.847, abs=0.5)
        assert float(stats["q"]) == pytest.approx(9.2091, abs=0.05)

    def test_legacy_profile_footer(self, capsys):
        code, out, _ = run_cli(["meta", "--profile", "table2"], capsys)
        assert code == EXIT_OK
        stats = footer_stats(out)
        assert float(stats["q"]) == pytest.approx(11.6594, abs=0.05)
        assert float(stats["p_value"]) == pytest.approx(0.07, abs=0.005)

    def test_json_result(self, capsys):
        code, out, _ = run_cli(["meta", "--profile", "table3", "--format",
                                "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["result"]["effects"]) == 7
        assert doc["result"]["effects"][0]["label"] == "Davies 1985"
        assert doc["result"]["pooled_d"] == pytest.approx(0.6257, abs=0.05)

    def test_conversion_error_has_input_error_prefix(self, tmp_path, capsys):
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       "1,x,10,10,meansd,1,-2,3,4,,,,,,,,\n")
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("optmean meta: input error: could not convert 1 study:\n  ")

    def test_malformed_study_file_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       "1,x,10,10,meansd,bad,2,3,4,,,,,,,,\n")
        code, _, err = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert "line 2" in err

    @pytest.mark.parametrize("row", [
        "1,x,40,40,fivenum,s1,2.25,,16.0,,inf,9.0,,27.25,,132.5,",
        "1,x,51,51,meansd,69.5,inf,95.5,29.25,,,,,,,,",
        "1,x,103,42,or,inf,1.3,6.5,,,,,,,,,",
        "1,x,35,16,meanrange,26.75,2.5,inf,48.5,22.5,145.0,,,,,,",
    ], ids=["fivenum", "meansd", "or", "meanrange"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_study_value_is_data_error(self, row, fmt, tmp_path, capsys):
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       + row + "\n")
        code, out, err = run_cli(["meta", "--input", str(src), "--format", fmt],
                                 capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "line 2" in err and "finite" in err

    @pytest.mark.parametrize("row", [
        "2,x,20,20,meansd,1e308,1,-1e308,1,,,,,,,,",
        "2,x,20,20,meanrange,10,-1e308,1.7e308,12,0,30,,,,,,",
        "2,x,20,20,meansd,1,1e200,2,1,,,,,,,,",
        "2,x,20,20,meanrange,1,-1e200,1e200,2,0,4,,,,,,",
        f"2,x,{10**400},20,meansd,1,1,1.5,1,,,,,,,,",
        f"2,x,{10**308},{10**308},meansd,1,1,1.5,1,,,,,,,,",
    ], ids=["meansd", "meanrange", "meansd-squared-sd", "meanrange-squared-sd",
            "arm-size", "arm-size-total"])
    def test_overflowing_effect_is_data_error(self, row, tmp_path, capsys):
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       "1,a,20,20,meansd,1,1,2,1,,,,,,,,\n" + row + "\n")
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "study 2" in err and "finite" in err

    def test_dominant_study_keeps_heterogeneity(self, tmp_path, capsys):
        # a weight ~1e16 times the other's cancels the one-pass Q to 0
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       f"1,a,{10**18},{10**18},meansd,1,1,2,1,,,,,,,,\n"
                       "2,b,20,20,meansd,1,1,5,1,,,,,,,,\n")
        code, out, _ = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_OK
        stats = footer_stats(out)
        assert float(stats["q"]) == pytest.approx(28.5, rel=1e-9)
        assert float(stats["tau_squared"]) > 0

    def test_overflowing_pooled_weights_is_data_error(self, tmp_path, capsys):
        # arm sizes of 1e170 give a study weight whose square overflows
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       f"1,a,{10**170},{10**170},meansd,1,1,2,1,,,,,,,,\n"
                       "2,b,20,20,meansd,1,1,1.5,1,,,,,,,,\n")
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert len(err.splitlines()) == 1 and "finite" in err

    def test_overflowing_heterogeneity_is_data_error(self, tmp_path, capsys):
        # d = +-1e100 on arms of 4e307 give Q past the float range; it used
        # to reach tau^2 = inf and a division by zero (exit 4)
        arms = f"{4 * 10**307},{4 * 10**307}"
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       f"1,a,{arms},meansd,0,1,1e100,1,,,,,,,,\n"
                       f"2,b,{arms},meansd,1e100,1,0,1,,,,,,,,\n")
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == "optmean meta: input error: Cochran's Q is not finite: inf\n"

    @pytest.mark.parametrize("sd", ["1e-160", "1e-300"])
    def test_underflowing_pooled_variance_is_data_error(self, sd, tmp_path, capsys):
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       f"1,a,10,10,meansd,0,{sd},{sd},{sd},,,,,,,,\n"
                       "2,b,20,20,meansd,1,1,1.5,1,,,,,,,,\n")
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "study 1" in err and "pooled variance" in err

    @pytest.mark.parametrize("kind,names", [
        ("meansd", ("mean_cases", "sd_cases", "mean_controls", "sd_controls")),
        ("or", ("odds_ratio", "ci_low", "ci_high")),
        ("meanrange", ("mean_cases", "min_cases", "max_cases", "mean_controls",
                       "min_controls", "max_controls")),
    ])
    def test_missing_payload_field_is_data_error(self, kind, names, tmp_path,
                                                 capsys):
        full = {"meansd": ["69.5", "24.5", "95.5", "29.25"],
                "or": ["3.1", "1.3", "6.5"],
                "meanrange": ["26.75", "2.5", "80", "48.5", "22.5", "145"]}[kind]
        src = tmp_path / "studies.csv"
        for k, name in enumerate(names):
            values = full[:k] + [""] + full[k + 1:]
            fields = ",".join(values + [""] * (11 - len(values)))
            src.write_text("index,label,n_cases,n_controls,payload_type,"
                           "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                           f"1,x,30,30,{kind},{fields},\n")
            code, out, err = run_cli(["meta", "--input", str(src)], capsys)
            assert code == EXIT_DATA
            assert out == ""
            assert f"missing required field {name} (f{k + 1:02d})" in err

    def test_input_with_comment_header_matches_bundled(self, tmp_path, capsys):
        src = tmp_path / "studies.csv"
        src.write_text("# optmean 0 meta\n" + bundled_table1().read_text(encoding="utf-8"))
        code, bundled, _ = run_cli(["meta"], capsys)
        assert code == EXIT_OK
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert (code, err) == (EXIT_OK, "")

        def table_and_footer(text):
            lines = text.splitlines()
            first = next(k for k, line in enumerate(lines) if not line.startswith("#"))
            return lines[first:]
        assert table_and_footer(out) == table_and_footer(bundled)

    def test_sd_method_overrides_profile(self, capsys):
        want = run_case_study(load_bundled_studies(), "hozo_as_applied", "wan")
        code, out, _ = run_cli(["meta", "--profile", "table2", "--sd-method",
                                "wan", "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["sd_method"] == "wan"
        assert doc["result"]["pooled_d"] == want.pooled_d
        assert [e["d"] for e in doc["result"]["effects"]] == \
            [e.d for e in want.effects]
        code, out, _ = run_cli(["meta", "--profile", "table2", "--sd-method",
                                "wan"], capsys)
        assert code == EXIT_OK
        assert "# sd_method=wan" in out.splitlines()
        assert footer_stats(out)["pooled_d"] == format(want.pooled_d, ".10g")


class TestUnallocatableSize:
    """A sample size whose draws cannot be allocated is a numerical failure
    (exit 4), reported in one stderr line. 4,000,000,000,001 values per
    replicate ask for more than 2^48 bytes, so the request fails at once."""

    N = "4000000000001"

    @pytest.mark.parametrize("argv", [
        ["weights", "--scenario", "s1", "--n", N, "--backend", "mc",
         "--reps", "10000"],
        ["estimate", "--scenario", "s1", "--n", N, "--min", "1", "--median", "2",
         "--max", "3", "--method", "optimal-exact", "--backend", "mc"],
        ["simulate", "--distribution", "normal", "--scenario", "s1",
         "--grid", f"{N}:{N}:4", "--reps", "1000"],
    ], ids=["weights", "estimate", "simulate"])
    def test_exit_4(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith(f"optmean {argv[0]}: out of memory: ")
        assert len(err.splitlines()) == 1


def _no_draws(*args, **kwargs):
    raise AssertionError("drew uniforms for a run that must be refused first")


class TestHugeFlagValues:
    """A grid, replicate count or sample size too large to run is refused as
    a usage error (exit 2) at once, before any draw, with no traceback."""

    BIG = str(10**400)
    HUGE = str(10**400 + 1)
    GRID = "5:1000000000000000000000000000000:4"
    COUNTERS = " Philox counters of one stream"

    @pytest.mark.parametrize("argv,ending", [
        (["weights", "--scenario", "s1", "--grid", GRID], " sizes"),
        (["simulate", "--distribution", "normal", "--scenario", "s1", "--grid", GRID],
         " sizes"),
        (["fit", "--scenario", "s1", "--grid", GRID], " sizes"),
        (["simulate", "--distribution", "normal", "--scenario", "s1",
          "--grid", "5:9:4", "--reps", BIG], COUNTERS),
        (["weights", "--scenario", "s1", "--n", "5", "--backend", "mc",
          "--reps", BIG], COUNTERS),
        (["estimate", "--scenario", "s1", "--n", "5", "--min", "1", "--median", "2",
          "--max", "3", "--method", "optimal-exact", "--backend", "mc", "--reps", BIG],
         COUNTERS),
        (["weights", "--scenario", "s1", "--n", HUGE, "--backend", "mc",
          "--reps", "10000"], COUNTERS),
        (["simulate", "--distribution", "normal", "--scenario", "s1",
          "--grid", f"{HUGE}:{HUGE}:4"], f" finite as a float, got {HUGE}"),
    ], ids=["weights-grid", "simulate-grid", "fit-grid", "simulate-reps",
            "weights-reps", "estimate-reps", "weights-n", "simulate-n"])
    def test_usage_error(self, argv, ending, capsys, monkeypatch):
        monkeypatch.setattr(_rng, "Philox", _no_draws)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        message = captured.err.splitlines()[-1]
        assert message.startswith(f"optmean {argv[0]}: error: ")
        assert message.endswith(ending)


class TestMomentDomainFailFast:
    """A grid the quadrature backend cannot serve is refused as a usage error
    (exit 2) before any quadrature runs."""

    @pytest.mark.parametrize("argv", [
        ["weights", "--scenario", "s1", "--grid", "5:505:4"],
        ["fit", "--scenario", "s1", "--grid", "5:505:100"],
        ["simulate", "--distribution", "normal", "--scenario", "s1",
         "--methods", "optimal_exact", "--grid", "5:505:100"],
    ], ids=["weights", "fit", "simulate"])
    def test_refused_before_quadrature(self, argv, capsys, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")
        monkeypatch.setattr(order_stats, "_moment_once", no_quadrature)
        # bypass the moment cache, so moments cached by earlier tests cannot
        # hide a run
        for module in (cli, estimators):
            monkeypatch.setattr(module, "moments_quadrature",
                                order_stats.moments_quadrature.__wrapped__)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("n <= 501, got 505")


# an accepted run of each command, with the one JSON key that holds its body
OUTPUT_SHAPES = [
    (["estimate", "--scenario", "s1", "--n", "9", "--min", "1", "--median", "2",
      "--max", "3"], "result"),
    (["estimate", "--input", "SUMMARIES"], "rows"),
    (["weights", "--scenario", "s1", "--grid", "5:9:4"], "rows"),
    (["fit", "--scenario", "s1", "--grid", "5:17:4"], "fit"),
    (["simulate", "--distribution", "normal", "--scenario", "s1", "--grid", "5:9:4",
      "--reps", "1000"], "rows"),
    (["meta"], "result"),
]


class TestTableFormat:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,body", OUTPUT_SHAPES,
                             ids=["estimate", "estimate-input", "weights", "fit",
                                  "simulate", "meta"])
    def test_output_shape(self, argv, body, fmt, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,9,1,,2,,3\ns2,9,,1,2,3,\n")
        argv = [str(src) if arg == "SUMMARIES" else arg for arg in argv]
        code, out, _ = run_cli(argv + ["--format", fmt], capsys)
        assert code == EXIT_OK
        if fmt == "json":
            doc = json.loads(out)
            assert set(doc) == {"command", "version", "config", body}
            assert doc["command"] == argv[0]
            return
        # '#' header lines, then one column header and its rows (then, for
        # `meta`, '#' footer lines)
        lines = out.splitlines()
        table = [k for k, line in enumerate(lines) if not line.startswith("#")]
        assert table[0] > 0 and table == list(range(table[0], table[-1] + 1))
        rows = list(csv.reader(lines[k] for k in table))
        assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)

    @pytest.mark.parametrize("argv,header", [
        (["estimate"], "scenario,n,min,q1,median,q3,max"),
        (["fit", "--scenario", "s1"], "n,scenario,exact_w1"),
        (["meta"], "index,label,n_cases,n_controls,payload_type")],
        ids=["estimate", "fit", "meta"])
    def test_field_past_csv_limit_is_data_error(self, argv, header, tmp_path,
                                                capsys):
        src = tmp_path / "table.csv"
        src.write_text(f"{header}\n{'9' * 200_000},s1\n")
        code, out, err = run_cli(argv + ["--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == (f"optmean {argv[0]}: input error: "
                       "field larger than field limit (131072)\n")


    @pytest.mark.parametrize("argv,header,row,message", [
        (["estimate"], "scenario,n,min,q1,median,q3,max", "s1,9,5,,2,,3",
         "summary values must be ordered, got (5.0, 2.0, 3.0)"),
        (["fit", "--scenario", "s1"], "n,scenario,exact_w1", "21,s1,x",
         "could not convert string to float: 'x'"),
        (["meta"], "index,label,n_cases,n_controls,payload_type,"
         "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note",
         "1,x,40,40,meansd,1,x,2,1,,,,,,,,", "could not convert string to float: 'x'")],
        ids=["estimate", "fit", "meta"])
    def test_refused_row_names_its_physical_line(self, argv, header, row, message,
                                                 tmp_path, capsys):
        # a '#' line and two blank lines put the refused row on line 5
        src = tmp_path / "table.csv"
        src.write_text(f"# optmean table\n{header}\n\n\n{row}\n")
        code, out, err = run_cli(argv + ["--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"optmean {argv[0]}: input error: line 5: {message}\n"


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--distribution", "exponential", "--scenario", "s1",
                "--grid", "5:13:4", "--reps", "2000", "--seed", "77"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--output", str(first)]) == EXIT_OK
        assert main(args + ["--output", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_header_echoes_configuration(self, capsys):
        code, out, _ = run_cli([
            "simulate", "--distribution", "normal", "--scenario", "s1",
            "--grid", "5:5:4", "--reps", "1000", "--seed", "123"], capsys)
        assert "# seed=123" in out
        assert "# reps=1000" in out
        assert "# distribution=normal" in out

    def test_outputs_name_library_versions(self, capsys):
        import platform

        import numpy
        import scipy
        libraries = {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__}
        argv = ["weights", "--scenario", "s1", "--n", "9"]
        _, out, _ = run_cli(argv, capsys)
        first = out.splitlines()[0]
        assert first.startswith("# optmean ")
        for name, version in libraries.items():
            assert f"{name} {version}" in first
        _, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert json.loads(out)["config"]["libraries"] == libraries

    def test_env_var_seed_default(self, monkeypatch):
        monkeypatch.setenv("OPTMEAN_SEED", "31415")
        parser = build_parser()
        args = parser.parse_args(["simulate", "--distribution", "normal",
                                  "--scenario", "s1"])
        assert args.seed == 31415

    def test_malformed_env_var_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("OPTMEAN_SEED", "seven")
        with pytest.raises(SystemExit) as excinfo:
            main(["weights", "--scenario", "s1", "--n", "5"])
        assert excinfo.value.code == EXIT_USAGE

    def test_explicit_seed_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("OPTMEAN_SEED", "31415")
        parser = build_parser()
        args = parser.parse_args(["simulate", "--distribution", "normal",
                                  "--scenario", "s1", "--seed", "9"])
        assert args.seed == 9


SCENARIO_VALUES = {
    "s1": ["--min", "1", "--median", "4", "--max", "12"],
    "s2": ["--q1", "3", "--median", "4", "--q3", "6.5"],
    "s3": ["--min", "1", "--q1", "3", "--median", "4", "--q3", "6.5", "--max", "12"],
}

STUDY_FIELDS = {
    "s1": "{s},2.25,,16.0,,74.25,9.0,,27.25,,132.5",
    "s2": "{s},,8.0,16.0,30.5,,,17.0,27.25,61.0,",
    "s3": "{s},2.25,8.0,16.0,30.5,74.25,9.0,17.0,27.25,61.0,132.5",
}


def _study_csv(path, scenario):
    fields = STUDY_FIELDS[scenario].format(s=scenario)
    path.write_text(
        "index,label,n_cases,n_controls,payload_type,"
        "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
        f"1,a,9,13,fivenum,{fields},\n"
        f"2,b,13,9,fivenum,{fields},\n"
        "3,c,51,51,meansd,69.5,24.5,95.5,29.25,,,,,,,,\n")
    return str(path)


class TestMethodTable:
    """Every method of the table through every CLI surface that takes one."""

    @pytest.mark.parametrize("name", SUMMARY_METHODS)
    @pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
    def test_estimate(self, name, scenario, capsys):
        argv = ["estimate", "--scenario", scenario, "--n", "9",
                "--method", name.replace("_", "-")] + SCENARIO_VALUES[scenario]
        if Scenario(scenario) in METHODS[name].scenarios:
            code, out, _ = run_cli(argv, capsys)
            assert code == EXIT_OK
            assert parse_csv(out)[0]["method"] == METHODS[name].label
        else:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("name", tuple(METHODS))
    @pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
    def test_simulate(self, name, scenario, capsys):
        argv = ["simulate", "--distribution", "normal", "--scenario", scenario,
                "--methods", name.replace("_", "-"), "--grid", "5:5:4",
                "--reps", "1000"]
        if Scenario(scenario) in METHODS[name].scenarios:
            code, out, _ = run_cli(argv, capsys)
            assert code == EXIT_OK
            assert [r["method"] for r in parse_csv(out)] == [name]
        else:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("name", SUMMARY_METHODS)
    @pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
    def test_meta(self, name, scenario, tmp_path, capsys):
        # the scenario comes from the study file, so a mismatch is a data error
        src = _study_csv(tmp_path / "studies.csv", scenario)
        code, out, err = run_cli(["meta", "--input", src, "--mean-method",
                                  name.replace("_", "-")], capsys)
        if Scenario(scenario) in METHODS[name].scenarios:
            assert code == EXIT_OK
            assert f"# mean_method={name}" in out
        else:
            assert code == EXIT_DATA
            assert "does not apply" in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--scenario", "s1", "--n", "9", "--method", "sample-mean"]
        + SCENARIO_VALUES["s1"],
        ["meta", "--mean-method", "sample_mean"],
        ["meta", "--mean-method", "midmean"],
        ["simulate", "--distribution", "normal", "--scenario", "s1",
         "--methods", "midmean", "--grid", "5:5:4", "--reps", "1000"],
    ])
    def test_refused_names(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE


def _summary(scenario, n):
    flags = SCENARIO_VALUES[scenario]
    values = {flag[2:]: float(v) for flag, v in zip(flags[::2], flags[1::2])}
    return FiveNumberSummary(scenario, n, median=values["median"],
                             minimum=values.get("min"), q1=values.get("q1"),
                             q3=values.get("q3"), maximum=values.get("max"))


def _sd_study_csv(path, scenario):
    # one five-number study and one mean-with-range study
    fields = STUDY_FIELDS[scenario].format(s=scenario)
    path.write_text(
        "index,label,n_cases,n_controls,payload_type,"
        "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
        f"1,a,9,13,fivenum,{fields},\n"
        "2,b,35,16,meanrange,26.75,2.5,80.0,48.5,22.5,145.0,,,,,,\n")
    return str(path)


class TestSdMethodTable:
    """Every SD rule of the table through `sd_estimate`, `estimate` and `meta`."""

    @pytest.mark.parametrize("name", tuple(SD_METHODS))
    @pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
    def test_estimate(self, name, scenario, capsys):
        argv = ["estimate", "--scenario", scenario, "--n", "9", "--method",
                f"{name}-sd", "--format", "json"] + SCENARIO_VALUES[scenario]
        summary = _summary(scenario, 9)
        if Scenario(scenario) in SD_METHODS[name].scenarios:
            want = sd_estimate(summary, name)
            assert want.method == SD_METHODS[name].label
            code, out, _ = run_cli(argv, capsys)
            assert code == EXIT_OK
            result = json.loads(out)["result"]
            assert (result["method"], result["value"]) == (want.method, want.value)
        else:
            with pytest.raises(ScenarioError):
                sd_estimate(summary, name)
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("name", tuple(SD_METHODS))
    @pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
    def test_meta(self, name, scenario, tmp_path, capsys):
        # the scenario comes from the study file, so a mismatch is a data error
        src = _sd_study_csv(tmp_path / "studies.csv", scenario)
        code, out, err = run_cli(["meta", "--input", src, "--sd-method", name,
                                  "--format", "json"], capsys)
        if Scenario(scenario) not in SD_METHODS[name].scenarios:
            assert code == EXIT_DATA
            assert "does not apply" in err
            return
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["sd_method"] == name
        mean_method = doc["config"]["mean_method"]
        arms = read_study_csv(src)[0].payload
        fivenum = cohens_d(
            estimate_mean(arms.cases, mean_method).value,
            sd_estimate(arms.cases, name).value, 9,
            estimate_mean(arms.controls, mean_method).value,
            sd_estimate(arms.controls, name).value, 13)
        from_range = SD_METHODS[name].from_range
        meanrange = cohens_d(26.75, from_range(2.5, 80.0, 35), 35,
                             48.5, from_range(22.5, 145.0, 16), 16)
        assert [e["d"] for e in doc["result"]["effects"]] == [fivenum.d, meanrange.d]

    @pytest.mark.parametrize("argv", [
        ["estimate", "--scenario", "s1", "--n", "9", "--method", "range-sd"]
        + SCENARIO_VALUES["s1"],
        ["meta", "--sd-method", "range"],
        ["meta", "--sd-method", "wan-sd"],
    ])
    def test_refused_names(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
