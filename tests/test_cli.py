"""Command-line surface: flags, formats, exit codes, reproducibility."""

import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import optmean
from optmean import _rng, cli, estimators, order_stats
from optmean.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, \
    main
from optmean.estimators import METHODS, SD_METHODS, SUMMARY_METHODS, \
    FiveNumberSummary, estimate_mean, sd_estimate
from optmean.errors import NumericalError, ScenarioError
from optmean.meta import bundled_table1, cohens_d, load_bundled_studies, \
    read_study_csv, run_case_study
from optmean.order_stats import OrderStatMoments, moments_quadrature
from optmean.weights import Scenario, optimal_weights


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

    def test_no_scenario_or_n_without_input_is_usage_error(self, capsys):
        for argv in (["--n", "25"], ["--scenario", "s1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["estimate", *argv, "--min", "1", "--median", "2", "--max", "3"])
            assert excinfo.value.code == EXIT_USAGE
            assert capsys.readouterr().err.endswith(
                "error: --scenario and --n are required without --input\n")

    S3_ROWS = "scenario,n,min,q1,median,q3,max\ns3,29,1,4.5,6,9,20\n"

    @pytest.mark.parametrize("weights, message", [
        ([], "--method weighted requires --weight"),
        (["--weight", "2"], "weights must lie in [0, 1], got 2.0"),
        (["--weight", "0.7", "--w2", "0.5"],
         "weights must leave a nonnegative share for the median")])
    def test_batch_weight_flags_are_usage_errors(self, weights, message, tmp_path,
                                                 capsys):
        # checked once, before any row: a usage error, not a row's data error
        src = tmp_path / "summaries.csv"
        src.write_text(self.S3_ROWS)
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--input", str(src), "--method", "weighted", *weights])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"optmean estimate: error: {message}\n")

    @pytest.mark.parametrize("flag, value", [
        ("--scenario", "s2"), ("--n", "9"), ("--min", "1"), ("--q1", "1"),
        ("--median", "3"), ("--q3", "4"), ("--max", "5")])
    def test_summary_flag_with_input_is_usage_error(self, flag, value, capsys):
        # refused before the file is opened, so a missing file is not reached
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--input", "no-such-file.csv", flag, value])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"error: --input reads the summaries; drop {flag}\n")

    def test_ignored_summary_flags_are_named_with_input(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,25,2.25,,16,,74.25\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--input", str(src), "--scenario", "s2", "--n", "9",
                  "--median", "3"])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: --input reads the summaries; drop --scenario, --n, --median\n")

    def test_batch_row_with_bad_value_and_bad_n_names_the_value(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,abc,xyz,,2,,3\n")
        code, _, err = run_cli(["estimate", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert err == ("optmean estimate: input error: line 2: could not convert "
                       "string to float: 'xyz'\n")

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

    def test_numerical_failure_on_flags_is_exit_4(self, monkeypatch, capsys):
        def diverges(grid, scenario):
            raise NumericalError("power-law fit diverged")

        monkeypatch.setattr(cli, "fit_power_law", diverges)
        code, out, err = run_cli(["fit", "--scenario", "s2", "--grid", "5:17:4"],
                                 capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "optmean fit: numerical failure: power-law fit diverged\n"

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

    @pytest.mark.parametrize("column,cell,message", [
        (2, "nan", "non-finite value 'nan'"),
        (3, "", "missing required field exact_w2")], ids=["nan", "empty"])
    def test_bad_weight_is_refused_by_its_line(self, column, cell, message, tmp_path,
                                               capsys):
        # five '#' lines and the column header, so n = 13 is on line 9
        lines = run_cli(["weights", "--scenario", "s3", "--grid", "5:41:4"],
                        capsys)[1].splitlines()
        row = lines[8].split(",")
        assert row[0] == "13"
        row[column] = cell
        table = tmp_path / "weights.csv"
        table.write_text("\n".join(lines[:8] + [",".join(row)] + lines[9:]) + "\n")
        code, out, err = run_cli(["fit", "--scenario", "s3", "--input", str(table)],
                                 capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"optmean fit: input error: line 9: {message}\n"

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

    def test_singular_fit_is_data_error_without_traceback(self, tmp_path, capsys):
        # a flat 0.7 leaves c2 of 0.7 + c1*n^c2 unidentified: J'J is singular
        table = tmp_path / "weights.csv"
        table.write_text("n,scenario,exact_w1\n" + "".join(
            f"{n},s2,0.7\n" for n in range(5, 42, 4)))
        code, out, err = run_cli([
            "fit", "--scenario", "s2", "--input", str(table)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("optmean fit: input error: power-law fit for s2 "
                              "did not converge; best residual ")
        assert err.count("\n") == 1

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


    @pytest.mark.parametrize("methods", ["hozo,hozo", "sample-mean,hozo,sample_mean"])
    def test_repeated_method_is_refused_before_any_draw(self, methods, capsys,
                                                        monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew replicates")
        monkeypatch.setattr(_rng, "replicate_uniforms", no_draw)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--distribution", "normal", "--scenario", "s1",
                  "--grid", "5:9:4", "--reps", "1000", "--methods", methods])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is named more than once" in captured.err


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

    def test_bundled_study_the_flags_cannot_convert_is_usage_error(self, capsys):
        # the refused value is the --mean-method choice; the bundled table is
        # not the user's to edit
        with pytest.raises(SystemExit) as excinfo:
            main(["meta", "--mean-method", "optimal-exact"])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "optmean meta: error: could not convert 3 studies:\n" in captured.err
        for label in ("study 1 (Davies 1985)", "study 2 (Grange 1985)",
                      "study 3 (Davies 1987)"):
            assert f"\n  {label}: sample size must satisfy n = 4Q + 1" in captured.err

    def test_input_study_the_flags_cannot_convert_is_data_error(self, tmp_path,
                                                                capsys):
        src = tmp_path / "studies.csv"
        src.write_text(bundled_table1().read_text(encoding="utf-8"))
        code, out, err = run_cli(["meta", "--input", str(src), "--mean-method",
                                  "optimal-exact"], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("optmean meta: input error: could not convert 3 studies:\n")

    def test_fivenum_study_without_scenario_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "studies.csv"
        src.write_text("index,label,n_cases,n_controls,payload_type,"
                       "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                       "1,x,40,40,fivenum,,2.25,,16.0,,74.25,9.0,,27.25,,132.5,\n")
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == ("optmean meta: input error: line 2: fivenum payload needs "
                       "a scenario in f01\n")

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


    @pytest.mark.parametrize("kind,values", [
        ("meansd", ["69.5", "24.5", "95.5", "29.25"]),
        ("or", ["3.1", "1.3", "6.5"]),
        ("meanrange", ["26.75", "2.5", "80", "48.5", "22.5", "145"])])
    def test_value_past_payload_fields_is_data_error(self, kind, values, tmp_path,
                                                     capsys):
        size, src = len(values), tmp_path / "studies.csv"
        for k in range(size + 1, 12):
            cells = values + [""] * (11 - size)
            cells[k - 1] = " 7 "
            src.write_text("index,label,n_cases,n_controls,payload_type,"
                           "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n"
                           f"1,x,30,30,{kind},{','.join(cells)},\n")
            code, out, err = run_cli(["meta", "--input", str(src)], capsys)
            assert (code, out) == (EXIT_DATA, "")
            assert err == (f"optmean meta: input error: line 2: {kind} takes "
                           f"f01..f{size:02d}, but f{k:02d} holds '7'\n")

    def test_bundled_study_relabelled_is_refused(self, tmp_path, capsys):
        # study 7 (meanrange, line 8) read as meansd would take its 2.5 as an SD
        text = bundled_table1().read_text(encoding="utf-8")
        src = tmp_path / "studies.csv"
        src.write_text(text.replace(",meanrange,", ",meansd,"))
        code, out, err = run_cli(["meta", "--input", str(src)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == ("optmean meta: input error: line 8: meansd takes f01..f04, "
                       "but f05 holds '22.5'\n")


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


class TestOversizedGrid:
    """A grid of 2.5e18 sizes: quadrature refuses its first size past 501
    (exit 2) without building it, and where it is built (`simulate`,
    --backend mc) it is out of memory (exit 4) with a stated reason. Its
    tuple's size overflows at once, so nothing is allocated."""

    GRID = "5:10000000000000000001:4"

    @pytest.mark.parametrize("command", ["weights", "fit"])
    def test_quadrature_refuses_its_first_size_past_501(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--scenario", "s1", "--grid", self.GRID])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"optmean {command}: error: quadrature supports n <= 501, got 505")

    @pytest.mark.parametrize("argv", [
        ["weights", "--scenario", "s1", "--grid", GRID, "--backend", "mc"],
        ["fit", "--scenario", "s1", "--grid", GRID, "--backend", "mc"],
        ["simulate", "--distribution", "normal", "--scenario", "s1", "--grid", GRID],
    ], ids=["weights-mc", "fit-mc", "simulate"])
    def test_built_grid_is_out_of_memory_with_a_reason(self, argv, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(_rng, "Philox", _no_draws)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_NUMERICAL, "")
        prefix = f"optmean {argv[0]}: out of memory: "
        assert err.startswith(prefix)
        assert err[len(prefix):].strip()
        assert len(err.splitlines()) == 1


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


# each command that reads an --input table, with a table it accepts
_EACH_TABLE_READER = pytest.mark.parametrize("argv,plain", [
    (["estimate"], lambda capsys: "scenario,n,min,q1,median,q3,max\ns1,25,1,,2,,3\n"),
    (["fit", "--scenario", "s1", "--format", "csv"], lambda capsys: run_cli(
        ["weights", "--scenario", "s1", "--grid", "5:41:4"], capsys)[1]),
    (["meta"], lambda capsys: bundled_table1().read_text(encoding="utf-8"))],
    ids=["estimate", "fit", "meta"])


_STUDY_HEADER = ("index,label,n_cases,n_controls,payload_type,"
                 "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note")


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
         "1,x,40,40,meansd,1,x,2,1,,,,,,,,", "could not convert string to float: 'x'"),
        (["estimate"], "scenario,n,min,q1,median,q3,max", "s4,9,1,,2,,3",
         "unknown scenario 's4'; expected s1, s2 or s3")],
        ids=["estimate", "fit", "meta", "estimate-scenario"])
    def test_refused_row_names_its_physical_line(self, argv, header, row, message,
                                                 tmp_path, capsys):
        # a '#' line and two blank lines put the refused row on line 5
        src = tmp_path / "table.csv"
        src.write_text(f"# optmean table\n{header}\n\n\n{row}\n")
        code, out, err = run_cli(argv + ["--input", str(src)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"optmean {argv[0]}: input error: line 5: {message}\n"

    @pytest.mark.parametrize("argv,header,row,name", [
        (["estimate"], "scenario,n,min,q1,median,q3,max", "s1,,1,,2,,3", "n"),
        (["fit", "--scenario", "s1"], "n,scenario,exact_w1", ",s1,0.3", "n"),
        *((["meta"], _STUDY_HEADER, row, name) for row, name in [
            (",x,40,40,meansd,1,2,3,4,,,,,,,,", "index"),
            ("1,x,,40,meansd,1,2,3,4,,,,,,,,", "n_cases"),
            ("1,x,40,,meansd,1,2,3,4,,,,,,,,", "n_controls")])],
        ids=["estimate", "fit", "meta-index", "meta-n_cases", "meta-n_controls"])
    def test_empty_integer_cell_is_a_missing_field(self, argv, header, row, name,
                                                  tmp_path, capsys):
        src = tmp_path / "table.csv"
        src.write_text(f"# optmean table\n{header}\n{row}\n")
        code, out, err = run_cli(argv + ["--input", str(src)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == (f"optmean {argv[0]}: input error: line 3: "
                       f"missing required field {name}\n")

    @_EACH_TABLE_READER
    def test_leading_byte_order_mark_is_ignored(self, argv, plain, tmp_path, capsys):
        # as Excel's "CSV UTF-8" export writes; only the `# input=` line differs
        text, outputs = plain(capsys), []
        for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
            src = tmp_path / name
            src.write_text(prefix + text, encoding="utf-8")
            code, out, err = run_cli(argv + ["--input", str(src)], capsys)
            assert (code, err) == (EXIT_OK, "")
            outputs.append([line for line in out.splitlines()
                            if not line.startswith("# input=")])
        assert outputs[0] == outputs[1]


    @_EACH_TABLE_READER
    def test_byte_that_is_not_utf8_names_its_file_and_line(self, argv, plain, tmp_path,
                                                           capsys):
        # a Latin-1 byte on the last line, and a UTF-16 export (its byte-order
        # mark 0xff 0xfe on line 1); both are data errors, not a bare codec error
        text = plain(capsys)
        last = text.rstrip("\n").rfind("\n") + 1  # where the last line starts
        for name, data, line, byte in (
                ("latin1.csv", text[:last].encode() + b"\xe9" + text[last:].encode(),
                 text.count("\n"), "0xe9"),
                ("utf16.csv", text.encode("utf-16"), 1, "0xff")):
            src = tmp_path / name
            src.write_bytes(data)
            code, out, err = run_cli(argv + ["--input", str(src)], capsys)
            assert (code, out) == (EXIT_DATA, "")
            assert err == (f"optmean {argv[0]}: input error: {src} line {line}: "
                           f"byte {byte} is not UTF-8\n")

    @_EACH_TABLE_READER
    def test_value_beyond_the_header_is_refused_by_its_line(self, argv, plain,
                                                            tmp_path, capsys):
        # for estimate, "s1,25,1,,2,,3,99": its max is 3, and the 99 is not read
        text = plain(capsys).rstrip("\n")
        header = next(line for line in text.splitlines() if not line.startswith("#"))
        columns, last = len(next(csv.reader([header]))), text.count("\n") + 1
        src = tmp_path / "table.csv"
        src.write_text(text + ",99\n")
        code, out, err = run_cli(argv + ["--input", str(src)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == (f"optmean {argv[0]}: input error: line {last}: "
                       f"a value beyond the {columns} columns of the header\n")

    @_EACH_TABLE_READER
    def test_empty_cells_beyond_the_header_are_read(self, argv, plain, tmp_path,
                                                    capsys):
        text, outputs = plain(capsys).rstrip("\n"), []
        for name, ending in (("plain.csv", ""), ("trailing.csv", ", ,")):
            src = tmp_path / name
            src.write_text(text + ending + "\n")
            code, out, err = run_cli(argv + ["--input", str(src)], capsys)
            assert (code, err) == (EXIT_OK, "")
            outputs.append([line for line in out.splitlines()
                            if not line.startswith("# input=")])
        assert outputs[0] == outputs[1]


    @_EACH_TABLE_READER
    def test_repeated_column_is_refused(self, argv, plain, tmp_path, capsys):
        lines = plain(capsys).splitlines()
        k = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        name = lines[k].split(",")[1]
        lines[k] += f",{name}"
        src = tmp_path / "table.csv"
        src.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(argv + ["--input", str(src)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == (f"optmean {argv[0]}: input error: {src}: column {name!r} "
                       "appears twice in the header\n")

    @pytest.mark.parametrize("header,row,name", [
        ("scenario,n,min,q1,median,q3,max,max", "s1,25,1,,5,,12,999", "max"),
        ("scenario,n,min,q1,median,q3,max,n", "s1,25,1,,5,,12,9", "n")],
        ids=["max", "n"])
    def test_repeated_summary_column_is_not_read(self, header, row, name, tmp_path,
                                                 capsys):
        # csv.DictReader alone would keep the last copy: max 999, or n = 9
        src = tmp_path / "summaries.csv"
        src.write_text(f"{header}\n{row}\n")
        code, out, err = run_cli(["estimate", "--input", str(src)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == (f"optmean estimate: input error: {src}: column {name!r} "
                       "appears twice in the header\n")

    @_EACH_TABLE_READER
    def test_repeated_empty_column_names_are_read(self, argv, plain, tmp_path,
                                                  capsys):
        # as a spreadsheet's extra trailing commas give them, header line included
        text, outputs = plain(capsys), []
        for name, ending in (("plain.csv", ""), ("trailing.csv", ",,")):
            src = tmp_path / name
            src.write_text("".join(line if line.startswith("#") else
                                   line.replace("\n", ending + "\n")
                                   for line in text.splitlines(keepends=True)))
            code, out, err = run_cli(argv + ["--input", str(src)], capsys)
            assert (code, err) == (EXIT_OK, "")
            outputs.append([line for line in out.splitlines()
                            if not line.startswith("# input=")])
        assert outputs[0] == outputs[1]


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


# Runs in a fresh interpreter, as the pytest process has scipy.special loaded
# already: after each command it notes whether scipy.special is loaded, and
# prints the notes and the approx-estimate header as JSON.
_STARTUP_SCRIPT = """
import contextlib, io, json, sys
loaded, header = {}, None
import optmean.cli
loaded["import"] = "scipy.special" in sys.modules
commands = json.loads(sys.argv[1])
for label, argv in commands.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = optmean.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded[label] = [code, "scipy.special" in sys.modules]
    if label == "estimate":
        header = out.getvalue().splitlines()[0]
print(json.dumps({"loaded": loaded, "header": header}))
"""


def _startup_report(commands: dict, cwd) -> dict:
    src = os.path.dirname(os.path.dirname(optmean.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the modules a command that neither simulates nor pools nor draws need not load
_PER_COMMAND = ["optmean.meta", "optmean.simulation", "numpy.random"]

# Like `_STARTUP_SCRIPT`, but notes which of `_PER_COMMAND` are loaded after
# `import optmean.cli` and after each command.
_MODULES_SCRIPT = """
import contextlib, io, json, sys
watched = %r
import optmean.cli
loaded = {"import": [m for m in watched if m in sys.modules]}
for label, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = optmean.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded[label] = [code, [m for m in watched if m in sys.modules]]
print(json.dumps(loaded))
""" % (_PER_COMMAND,)


def _modules_report(commands: dict, cwd) -> dict:
    src = os.path.dirname(os.path.dirname(optmean.__file__))
    proc = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# `_MODULES_SCRIPT` watching the modules named by its second argument
_WATCHED_SCRIPT = _MODULES_SCRIPT.replace(repr(_PER_COMMAND), "json.loads(sys.argv[2])")


def _watched_report(commands: dict, watched: list, cwd, site=True) -> dict:
    path, flags = [os.path.dirname(os.path.dirname(optmean.__file__))], []
    if not site:
        # ``-S``, as a ``.pth`` file that ``site`` runs may import a watched
        # module first; numpy's site directory goes on the path after the source
        import numpy
        path.append(os.path.dirname(os.path.dirname(numpy.__file__)))
        flags.append("-S")
    proc = subprocess.run([sys.executable, *flags, "-c", _WATCHED_SCRIPT,
                           json.dumps(commands), json.dumps(watched)],
                          capture_output=True, text=True, cwd=cwd, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Like `_MODULES_SCRIPT`, but notes whether numpy and scipy are loaded, keeps
# the first line `meta --profile table3` writes, and only then imports both
# packages for their versions.
_LIBRARIES_SCRIPT = """
import contextlib, io, json, sys
import optmean.cli
loaded = {"import": [None, sorted({"numpy", "scipy"} & set(sys.modules))]}
header = None
for label, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = optmean.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded[label] = [code, sorted({"numpy", "scipy"} & set(sys.modules))]
    if label == "table3":
        header = out.getvalue().splitlines()[0]
import numpy, scipy
print(json.dumps({"loaded": loaded, "header": header,
                  "versions": [numpy.__version__, scipy.__version__]}))
"""


def _libraries_report(commands: dict, cwd) -> dict:
    src = os.path.dirname(os.path.dirname(optmean.__file__))
    proc = subprocess.run([sys.executable, "-c", _LIBRARIES_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStartup:
    """Commands that call no special function leave `scipy.special` unloaded."""

    def test_scipy_special_loads_on_first_use(self, tmp_path):
        import scipy
        table = tmp_path / "weights.csv"
        assert main(["weights", "--scenario", "s3", "--grid", "5:41:4",
                     "--output", str(table)]) == EXIT_OK
        commands = {
            "help": ["--help"],
            "estimate": ["estimate", "--scenario", "s1", "--n", "25", "--min", "1",
                         "--median", "5", "--max", "12", "--method", "optimal-approx"],
            "fit": ["fit", "--scenario", "s3", "--input", str(table)],
            "simulate": ["simulate", "--distribution", "exponential", "--scenario",
                         "s1", "--grid", "5:9:4", "--reps", "1000"],
            "refusal": ["weights", "--scenario", "s1", "--n", "505"],
            "meta": ["meta", "--profile", "table2"],
            "wan-sd": ["estimate", "--scenario", "s1", "--n", "25", "--min", "1",
                       "--median", "5", "--max", "12", "--method", "wan-sd"],
        }
        report = _startup_report(commands, tmp_path)
        assert report["loaded"] == {
            "import": False, "help": [EXIT_OK, False], "estimate": [EXIT_OK, False],
            "fit": [EXIT_OK, False], "simulate": [EXIT_OK, False],
            "refusal": [EXIT_USAGE, False], "meta": [EXIT_OK, False],
            "wan-sd": [EXIT_OK, False]}
        assert f"scipy {scipy.__version__}" in report["header"]

    def test_beta_draws_leave_scipy_special_unloaded(self, tmp_path):
        report = _startup_report({"simulate": [
            "simulate", "--distribution", "beta", "--scenario", "s1", "--grid", "5:9:4",
            "--reps", "1000"]}, tmp_path)
        assert report["loaded"] == {"import": False, "simulate": [EXIT_OK, False]}

    def test_quadrature_moments_leave_scipy_special_unloaded(self, tmp_path):
        report = _startup_report({
            "weights": ["weights", "--scenario", "s3", "--backend", "quad",
                        "--grid", "5:501:4"],
            "fit": ["fit", "--scenario", "s3", "--grid", "5:101:4"],
            "exact": ["estimate", "--scenario", "s3", "--n", "29", "--min", "1",
                      "--q1", "4.5", "--median", "6", "--q3", "9", "--max", "20",
                      "--method", "optimal-exact", "--backend", "quad"],
        }, tmp_path)
        assert report["loaded"] == {"import": False, "weights": [EXIT_OK, False],
                                    "fit": [EXIT_OK, False], "exact": [EXIT_OK, False]}

    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path):
        table = tmp_path / "weights.csv"
        assert main(["weights", "--scenario", "s3", "--grid", "5:41:4",
                     "--output", str(table)]) == EXIT_OK
        # one process: none of these may load any of them
        loads_none = {
            "help": ["--help"],
            "refusal": ["weights", "--scenario", "s1", "--n", "505"],
            "approx": ["estimate", *ONE_S1, "--method", "optimal-approx"],
            "exact": ["estimate", *ONE_S1, "--method", "optimal-exact"],
            "weights": ["weights", "--scenario", "s3", "--n", "377"],
            "fit": ["fit", "--scenario", "s1", "--grid", "5:41:4"],
            "fit-input": ["fit", "--scenario", "s3", "--input", str(table)],
            "wan-sd": ["estimate", *ONE_S1, "--method", "wan-sd"],
        }
        report = _modules_report(loads_none, tmp_path)
        assert report == {"import": [], **{label: [EXIT_USAGE if label == "refusal"
                                                   else EXIT_OK, []]
                                           for label in loads_none}}
        # a fresh process each; meta's p-value and SD rules need no special
        # function, so it loads only itself, while the draws load `numpy.random`
        for argv, modules in [
                (["meta"], ["optmean.meta"]),
                (["simulate", "--distribution", "normal", "--scenario", "s1", "--grid",
                  "5:9:4", "--reps", "1000"], ["optmean.simulation", "numpy.random"]),
                (["weights", "--scenario", "s1", "--n", "9", "--backend", "mc", "--reps",
                  "10000"], ["numpy.random"])]:
            assert _modules_report({"run": argv}, tmp_path) == {
                "import": [], "run": [EXIT_OK, modules]}

    def test_scalar_commands_load_neither_numpy_nor_scipy(self, tmp_path):
        studies = tmp_path / "studies.csv"
        studies.write_text(bundled_table1().read_text(encoding="utf-8"))
        loads_neither = {
            "help": ["--help"],
            "refusal": ["weights", "--scenario", "s1", "--n", "505"],
            **{method: ["estimate", *ONE_S1, "--method", method]
               for method in ("optimal-approx", "hozo", "wan-sd")},
            "weighted": ["estimate", *ONE_S1, "--method", "weighted", "--weight", "0.3"],
            "table2": ["meta", "--profile", "table2"],
            "table3": ["meta", "--profile", "table3"],
            "meta-input": ["meta", "--input", str(studies)],
            # the exact weights and the power-law fit are solved in Python floats
            "exact": ["estimate", *ONE_S1, "--method", "optimal-exact"],
            "weights": ["weights", "--scenario", "s3", "--n", "377"],
            "fit": ["fit", "--scenario", "s1", "--grid", "5:41:4"],
        }
        report = _libraries_report(loads_neither, tmp_path)
        assert report["loaded"] == {"import": [None, []], **{
            label: [EXIT_USAGE if label == "refusal" else EXIT_OK, []]
            for label in loads_neither}}
        # the versions were imported after every header above was written
        numpy_version, scipy_version = report["versions"]
        assert report["header"].startswith(f"# optmean {optmean.__version__} meta (")
        assert report["header"].endswith(f", numpy {numpy_version}, "
                                         f"scipy {scipy_version})")

    def test_exact_weights_on_the_table_load_neither_numpy_nor_scipy(self, tmp_path):
        # the exact weights are solved in Python floats, with an integer fma
        # that needs neither `fractions` nor `decimal`
        summaries = tmp_path / "summaries.csv"
        summaries.write_text("scenario,n,min,q1,median,q3,max\n"
                             "s3,29,1,4.5,6,9,20\ns1,377,1,,6,,20\ns2,101,,4,5,8,\n")
        commands = {
            "weights": ["weights", "--scenario", "s3", "--backend", "quad", "--n", "377"],
            "grid": ["weights", "--scenario", "s2", "--grid", "5:501:4"],
            "exact": ["estimate", *ONE_S1, "--method", "optimal-exact"],
            "exact-input": ["estimate", "--method", "optimal-exact", "--input",
                            str(summaries)],
        }
        report = _watched_report(commands, ["numpy", "scipy", "fractions", "decimal"],
                                 tmp_path)
        assert report == {"import": [], **{label: [EXIT_OK, []] for label in commands}}

    def test_fit_loads_neither_numpy_nor_scipy(self, tmp_path):
        # the power law is fitted in Python floats, on the table's weights or
        # on those solved from the shipped quadrature table
        table = tmp_path / "weights.csv"
        assert main(["weights", "--scenario", "s3", "--grid", "5:41:4",
                     "--output", str(table)]) == EXIT_OK
        commands = {"fit-input": ["fit", "--scenario", "s3", "--input", str(table)],
                    "fit": ["fit", "--scenario", "s3"]}
        report = _watched_report(commands, ["numpy", "scipy"], tmp_path)
        assert report == {"import": [], **{label: [EXIT_OK, []] for label in commands}}

    def test_no_command_loads_dataclasses_inspect_or_platform(self, tmp_path):
        # the value classes are plain classes, and the header's Python version
        # is read from `sys.version`
        table, summaries, studies = (tmp_path / name for name in (
            "weights.csv", "summaries.csv", "studies.csv"))
        assert main(["weights", "--scenario", "s3", "--grid", "5:41:4",
                     "--output", str(table)]) == EXIT_OK
        summaries.write_text("scenario,n,min,q1,median,q3,max\n"
                             "s3,29,1,4.5,6,9,20\ns1,377,1,,6,,20\ns2,101,,4,5,8,\n")
        studies.write_text(bundled_table1().read_text(encoding="utf-8"))
        commands = {
            "help": ["--help"],
            "refusal": ["weights", "--scenario", "s1", "--n", "505"],
            "approx": ["estimate", *ONE_S1, "--method", "optimal-approx"],
            "exact": ["estimate", *ONE_S1, "--method", "optimal-exact"],
            "estimate-input": ["estimate", "--input", str(summaries)],
            "weights": ["weights", "--scenario", "s3", "--n", "377"],
            "grid": ["weights", "--scenario", "s2", "--grid", "5:501:4"],
            "fit": ["fit", "--scenario", "s3", "--grid", "5:41:4"],
            "fit-input": ["fit", "--scenario", "s3", "--input", str(table)],
            "table2": ["meta", "--profile", "table2"],
            "table3": ["meta", "--profile", "table3"],
            "meta-input": ["meta", "--input", str(studies)],
        }
        report = _watched_report(commands, ["dataclasses", "inspect", "platform"],
                                 tmp_path)
        assert report == {"import": [], **{
            label: [EXIT_USAGE if label == "refusal" else EXIT_OK, []]
            for label in commands}}

    def test_importlib_resources_loads_only_with_a_shipped_table(self, tmp_path):
        # `_table.packaged` imports it at its first call, so the commands that
        # read neither table1.csv nor quad_moments.csv leave it unloaded
        table = tmp_path / "weights.csv"
        assert main(["weights", "--scenario", "s3", "--grid", "5:41:4",
                     "--output", str(table)]) == EXIT_OK
        loads_none = {
            "help": ["--help"],
            "refusal": ["weights", "--scenario", "s1", "--n", "505"],
            "flag-refusal": ["estimate", *ONE_S1, "--method", "wan-sd", "--reps", "9"],
            "approx": ["estimate", *ONE_S1, "--method", "optimal-approx"],
            "wan-sd": ["estimate", *ONE_S1, "--method", "wan-sd"],
            "fit-input": ["fit", "--scenario", "s3", "--input", str(table)],
        }
        watched = ["importlib.resources"]
        assert _watched_report(loads_none, watched, tmp_path, site=False) == {
            "import": [], **{label: [EXIT_USAGE if "refusal" in label else EXIT_OK, []]
                             for label in loads_none}}
        # a fresh process each: the shipped quadrature table, the bundled studies
        for argv in (["weights", "--scenario", "s3", "--n", "377"], ["meta"]):
            assert _watched_report({"run": argv}, watched, tmp_path, site=False) == {
                "import": [], "run": [EXIT_OK, watched]}

    def test_package_version_is_the_imported_version(self):
        # json has no version.py, so its version comes from the imported package
        import json as no_version_file
        import numpy
        import scipy
        assert [cli._package_version(name) for name in ("numpy", "scipy", "json")] == [
            numpy.__version__, scipy.__version__, no_version_file.__version__]

    def test_moment_cache_keeps_its_surface_and_kernel(self, monkeypatch):
        # the benchmark's tracer counts cache_info().hits and calls cache_clear()
        integrals = set()
        moment_once = order_stats._moment_once

        def counting(n, ranks, power, panels):
            integrals.add((n, ranks, power))
            return moment_once(n, ranks, power, panels)

        monkeypatch.setattr(order_stats, "_moment_once", counting)
        quadrature = order_stats.moments_quadrature
        quadrature.cache_clear()
        served = quadrature(9)
        assert quadrature(9) is served
        assert quadrature.cache_info().hits == 1 and not integrals
        kernel = quadrature.__wrapped__(9)
        assert len(integrals) == 20
        assert kernel.means == pytest.approx(served.means, rel=0, abs=1e-12)
        assert kernel.second_moments == pytest.approx(served.second_moments, rel=0,
                                                      abs=1e-12)


ONE_S1 = ["--scenario", "s1", "--n", "25", "--min", "1", "--median", "2", "--max", "3"]


class TestPerSizeWeights:
    """`estimate` builds the weights of each (scenario, n) once, yet a row is
    refused at its own line, and a cached weight set is the one a fresh solve
    gives."""

    HEADER = "scenario,n,min,q1,median,q3,max\n"

    @pytest.mark.parametrize("method", ["optimal-approx", "optimal-exact"])
    @pytest.mark.parametrize("row, message", [
        ("s1,9,5,,2,,3", "summary values must be ordered, got (5.0, 2.0, 3.0)"),
        ("s1,9,1,2,3,,9", "scenario s1 does not take field 'q1'")],
        ids=["unordered", "field"])
    def test_refused_repeat_of_a_size_names_its_line(self, method, row, message,
                                                     tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text(self.HEADER + "s1,9,1,,2,,3\ns1,9,0,,4,,10\n" + row + "\n")
        code, out, err = run_cli(["estimate", "--method", method, "--input", str(src)],
                                 capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"optmean estimate: input error: line 4: {message}\n"

    @pytest.mark.parametrize("method, n, message", [
        ("optimal_approx", 4.5, "sample size must be an integer >= 5"),
        ("optimal_exact", 505, "quadrature supports n <= 501, got 505")])
    def test_refused_size_is_refused_again(self, method, n, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                METHODS[method].weights(Scenario.S1, n, None)

    def test_repeated_size_has_the_weights_of_a_fresh_solve(self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text(self.HEADER + "s3,29,1,4.5,6,9,20\ns1,29,1,,6,,20\n"
                       "s3,29,0,4,5,8,19\ns1,29,2,,6,,20\ns2,29,,4,5,8,\n")
        code, out, _ = run_cli(["estimate", "--method", "optimal-exact", "--input",
                                str(src), "--format", "json"], capsys)
        assert code == EXIT_OK
        for row in json.loads(out)["rows"]:
            # moments rebuilt from the served ones' fields have solved nothing yet
            fresh = optimal_weights(OrderStatMoments(**moments_quadrature(29)._asdict()),
                                    row["scenario"])
            assert [repr(row["w1"]), repr(row["w2"])] == [repr(fresh.w1), repr(fresh.w2)]
        first, again = (estimate_mean(FiveNumberSummary(
            scenario="s3", n=29, minimum=low, q1=4.5, median=6.0, q3=9.0, maximum=20.0),
            "optimal_exact").weight_set for low in (0.0, 1.0))
        assert again is first


class TestUnreadFlags:
    """A flag the chosen path would not read is refused (exit 2) before any
    ``--input`` row is read, naming the flag and the choice that reads it."""

    @pytest.mark.parametrize("argv, message", [
        (["weights", "--scenario", "s1", "--n", "9", "--reps", "3"],
         "--reps: read only by --backend mc"),
        (["weights", "--scenario", "s1", "--n", "9", "--backend", "quad",
          "--reps", "20000"], "--reps: read only by --backend mc"),
        (["fit", "--scenario", "s1", "--grid", "5:17:4", "--reps", "20000"],
         "--reps: read only by --backend mc"),
        (["estimate", "--method", "optimal-exact", "--reps", "20000",
          "--input", "no-such-file.csv"], "--reps: read only by --backend mc"),
        (["estimate", "--method", "hozo", "--reps", "20000", *ONE_S1],
         "--reps: read only by --backend mc"),
    ], ids=["weights", "weights-quad", "fit", "estimate-exact-input", "estimate-hozo"])
    def test_reps_without_mc(self, argv, message, capsys):
        self._refused(argv, message, capsys)

    @pytest.mark.parametrize("tail", [ONE_S1, ["--input", "no-such-file.csv"]],
                             ids=["flags", "input"])
    def test_mc_backend_outside_optimal_exact(self, tail, capsys):
        self._refused(["estimate", "--method", "hozo", "--backend", "mc", *tail],
                      "--backend mc: read only by --method optimal-exact", capsys)

    @pytest.mark.parametrize("weights, named", [
        (["--weight", "0.2"], "--weight"), (["--w2", "0"], "--w2"),
        (["--weight", "0", "--w2", "0.5"], "--weight, --w2")])
    @pytest.mark.parametrize("tail", [ONE_S1, ["--input", "no-such-file.csv"]],
                             ids=["flags", "input"])
    def test_weights_outside_weighted(self, weights, named, tail, capsys):
        self._refused(["estimate", "--method", "optimal-approx", *weights, *tail],
                      f"{named}: read only by --method weighted", capsys)

    @pytest.mark.parametrize("flags, named", [
        (["--grid", "5:17:4"], "--grid"), (["--backend", "mc"], "--backend mc"),
        (["--grid", "5:17:4", "--backend", "mc", "--reps", "20000"],
         "--grid, --backend mc")])
    def test_fit_input_with_grid_or_mc(self, flags, named, capsys):
        self._refused(["fit", "--scenario", "s1", "--input", "no-such-file.csv", *flags],
                      f"{named}: read only without --input", capsys)

    @staticmethod
    def _refused(argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    def test_quad_backend_and_seed_stay_accepted(self, tmp_path, capsys):
        code, out, _ = run_cli(["estimate", "--method", "hozo", "--backend", "quad",
                                "--seed", "5", *ONE_S1], capsys)
        assert code == EXIT_OK
        table = tmp_path / "weights.csv"
        assert main(["weights", "--scenario", "s1", "--grid", "5:21:4",
                     "--output", str(table)]) == EXIT_OK
        code, out, _ = run_cli(["fit", "--scenario", "s1", "--input", str(table),
                                "--backend", "quad", "--seed", "5"], capsys)
        assert code == EXIT_OK
        assert "backend" not in json.loads(out)["config"]

    def test_weights_the_flag_allows_but_a_row_refuses_are_the_rows_fault(
            self, tmp_path, capsys):
        src = tmp_path / "summaries.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,25,1,,2,,3\n")
        code, out, err = run_cli(["estimate", "--input", str(src), "--method",
                                  "weighted", "--weight", "0.2", "--w2", "0.1"], capsys)
        assert code == EXIT_DATA
        assert err.startswith("optmean estimate: input error: line 2: ")


def _header(text):
    """The ``# key=value`` lines between an output's version line and its columns."""
    lines = itertools.takewhile(lambda line: line.startswith("# "),
                                text.splitlines()[1:])
    return dict(line[2:].split("=", 1) for line in lines)


class TestHeaderNamesEveryFlag:
    def test_single_summary_names_its_values(self, capsys):
        code, out, _ = run_cli(["estimate", "--method", "weighted", "--weight", "0.25",
                                *ONE_S1], capsys)
        assert code == EXIT_OK
        assert _header(out) == {"backend": "quad", "max": "3.0", "median": "2.0",
                                "method": "weighted", "min": "1.0", "n": "25",
                                "scenario": "s1", "seed": str(cli.DEFAULT_SEED),
                                "weight": "0.25"}

    def test_reps_only_under_mc(self, capsys):
        _, quad, _ = run_cli(["weights", "--scenario", "s3", "--n", "377"], capsys)
        assert "# n=377" in quad.splitlines()
        assert "reps" not in _header(quad)
        _, mc, _ = run_cli(["estimate", "--method", "optimal-exact", "--backend", "mc",
                            "--format", "json", *ONE_S1], capsys)
        assert json.loads(mc)["config"]["reps"] == cli.DEFAULT_WEIGHT_REPS

    def test_fit_names_its_default_grid(self, capsys):
        _, out, _ = run_cli(["fit", "--scenario", "s1", "--format", "csv"], capsys)
        assert _header(out)["grid"] == cli.DEFAULT_FIT_GRID

    def test_bundled_meta_names_no_input_and_every_command_names_seed(self, capsys):
        _, out, _ = run_cli(["meta", "--profile", "table2", "--seed", "9"], capsys)
        assert _header(out) == {"mean_method": "hozo_as_applied", "profile": "table2",
                                "sd_method": "hozo", "seed": "9"}

    def test_a_full_float_reads_back_exactly(self, capsys):
        value = "0.1234567890123"
        _, out, _ = run_cli(["estimate", *ONE_S1[:4], "--min", value, "--median", "2",
                             "--max", "3", "--method", "hozo"], capsys)
        assert _header(out)["min"] == value

    @pytest.mark.parametrize("command", [
        ["weights", "--scenario", "s1", "--n", "5"], ["meta"],
        ["simulate", "--distribution", "normal", "--scenario", "s1", "--grid", "5:5:4",
         "--reps", "1000"]])
    def test_a_seed_past_the_float_range_is_refused(self, command, capsys):
        # every header prints the seed, and a number in it must read back as a float
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--seed", str(10**400)])
        assert excinfo.value.code == EXIT_USAGE
        assert "error: --seed must be finite as a float, got 1000" in capsys.readouterr().err
        assert main([*command, "--seed", "-1", "--output", os.devnull]) == EXIT_OK

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"],
                             ids=repr)
    def test_a_value_with_a_line_break_is_refused_before_input_is_read(
            self, brk, tmp_path, capsys):
        # `# input=nl` and then a bare `name.csv` line would read back as the columns
        src = tmp_path / f"nl{brk}name.csv"
        src.write_text("scenario,n,min,q1,median,q3,max\ns1,25,1,,2,,3\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--input", str(src)])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: --input must hold no line break, got {str(src)!r}\n")

    @pytest.mark.parametrize("argv, flag", [
        (["weights", "--scenario", "s1", "--grid", "5:9:4\n"], "--grid"),
        (["simulate", "--distribution", "normal", "--scenario", "s1", "--grid", "5:5:4",
          "--reps", "1000", "--methods", "hozo,\nsample_mean"], "--methods"),
        (["meta", "--input", "studies\r\n.csv"], "--input"),
        (["fit", "--scenario", "s1", "--input", "w\n.csv"], "--input"),
    ], ids=["weights-grid", "simulate-methods", "meta-input", "fit-input"])
    def test_every_written_flag_is_checked(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        assert f"error: {flag} must hold no line break, got " in capsys.readouterr().err
