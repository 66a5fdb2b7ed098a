"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _op(workload, label):
    return next(op for op in workload.ops if op.label == label)


def _inprocess():
    from optmean import order_stats
    return bench.cli_inprocess(order_stats.moments_quadrature.cache_clear)


def test_corrupted_output_and_wrong_exit_code_raise_error_rate(workdir):
    batch = wl.build("batch", 3, workdir)
    op = _op(batch, "estimate.approx")
    clean = bench.judge(op, _inprocess()(op.argv))
    assert clean.error is None

    lines = clean.stdout.splitlines(keepends=True)
    row = lines[-1].split(",")
    row[8] = repr(float(row[8]) + 1e-3)            # the estimate's value column
    corrupted = bench.Result(0, "".join(lines[:-1]) + ",".join(row), "", clean.wall)
    assert "not the weighted combination" in bench.judge(op, corrupted).error

    wrong_code = bench.Result(1, clean.stdout, "", clean.wall)
    assert bench.judge(op, wrong_code).error.startswith("exit 1")

    refusal = next(op for op in batch.once if op.refusal)
    good_refusal = bench.Result(3, "", "optmean estimate: input error: x\n", 0.1)
    bad_refusal = bench.Result(1, "", "Traceback (most recent call last):\n", 0.1)
    once = [(refusal, bench.judge(refusal, good_refusal))]
    assert once[0][1].error is None
    assert bench.judge(refusal, bad_refusal).error.startswith("traceback")

    def rate(pass_results):
        setup = [bench.Result(0, "", "", 0.5)]
        return bench.end_to_end([pass_results], once, setup)[0]["error_rate"]

    base = rate([(op, clean)])
    assert base == 0.0
    assert rate([(op, clean), (op, bench.judge(op, corrupted))]) > base
    assert rate([(op, clean), (op, bench.judge(op, wrong_code))]) > base


def test_operations_count_once_however_many_passes_run():
    ops = [wl.Op("a", []), wl.Op("b", [])]
    refusal = wl.Op("r", [], refusal=True)

    def res(error=None):
        return bench.Result(0, "", "", 1.0, error=error)

    once = [(refusal, res("exit 1"))]
    two = [[(ops[0], res()), (ops[1], res("bad"))], [(ops[0], res()), (ops[1], res())]]
    judged = bench.outcomes(two, once)
    assert [op.label for op, _ in judged] == ["a", "b", "r"]
    assert [r.error for _, r in judged] == [None, "bad", "exit 1"]
    assert bench.outcomes(two[:1], once) == judged
    assert bench.outcomes(two * 3, once) == judged


def test_rmse_tolerance_scales_the_reference_error_to_the_run():
    ref = {("beta", 53, m): (1.4, 0.001, 1_000_000) for m in wl.SIM_METHODS}
    check = wl.check_rmse("beta", [53], 4_000, ref)
    # the reference's error at 4,000 replicates: 0.001 * sqrt(250)
    tol = wl.RMSE_SE_MULTIPLE * 0.001 * (250 + 1) ** 0.5

    def output(rmse, se):
        rows = ["beta,s1,53,sample_mean,1.0,0.0,4000",
                f"beta,s1,53,hozo,1.4,{se},4000",
                f"beta,s1,53,optimal_approx,{rmse},{se},4000"]
        return "\n".join(["distribution,scenario,n,method,rmse,mc_std_error,replicates"] + rows)

    check(output(1.4 + 0.99 * tol, 0.001))     # a small own error does not matter
    with pytest.raises(wl.CheckError):
        check(output(1.4 + 1.01 * tol, 0.05))  # nor does a large one
    with pytest.raises(wl.CheckError):
        check(output(1.4, 0.0))


def test_once_per_run_operations_are_judged_by_their_kind(workdir):
    batch = wl.build("batch", 3, workdir)
    for op, res in bench.run_once(batch, _inprocess()):
        if op.refusal:
            want = res.code in (2, 3, 4) and "Traceback" not in res.stderr
        else:
            want = res.code == 0
        assert (res.error is None) == want, (op.label, res.error)


def _mini(workdir):
    """A small workload touching every layer, for the traced run."""
    ref = wl.load_reference_weights()
    batch = wl.build("batch", 5, workdir)
    keep = ("estimate.exact.quad0", "meta.table3")
    ops = [op for op in batch.ops if op.label in keep]
    ops += [
        wl.Op("weights.mc", ["weights", "--scenario", "s1", "--backend", "mc",
                             "--n", "5", "--reps", "20000", "--seed", "5"],
              wl.check_weight_table("s1", [5], "mc", ref, tol_se=wl.MC_SE_MULTIPLE)),
        wl.Op("weights.quad", ["weights", "--scenario", "s2", "--n", "9"],
              wl.check_weight_table("s2", [9], "quad", ref)),
        wl.Op("weights.quad.s3", ["weights", "--scenario", "s3", "--grid", "5:17:4"],
              wl.check_weight_table("s3", [5, 9, 13, 17], "quad", ref)),
        wl.Op("fit", ["fit", "--scenario", "s3"], lambda text: None,
              input_from=("weights.quad.s3",)),
    ]
    for dist in tracing.KINDS:
        ops.append(wl.Op(f"simulate.{dist}",
                         ["simulate", "--distribution", dist, "--scenario", "s1",
                          "--grid", "5:9:4", "--reps", "2000", "--seed", "5"],
                         lambda text: None))
    return wl.Workload("mini", ops, batch.once)


def test_traced_run_reports_every_layer_metric_and_keeps_stdout(workdir):
    metrics, units, results, valid_ok, extra = bench.trace(_mini(workdir), workdir)
    assert valid_ok, [res.error for _, res in results]
    assert set(metrics) == set(tracing.METRICS) == set(units)
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {m["name"] for m in declared["per_layer"]} == set(metrics)
    assert {m["name"] for m in declared["end_to_end"]} == set(bench.END_TO_END_UNITS)
    for name in ("rng.values", "order_stats.quad_calls", "order_stats.quad_cache_hits",
                 "order_stats.mc_values", "simulation.values", "weights.solve_calls",
                 "estimators.calls", "meta.studies", "cli.invocations",
                 "order_stats.errors", "cli.errors"):
        assert metrics[name] > 0, name
    for kind in tracing.KINDS:
        assert metrics[f"simulation.quantile_busy_s.{kind}"] > 0
    assert 0.5 < metrics["trace.span_share"] <= 1.0


def test_layers_stay_apart(workdir):
    quad = wl.Workload("q", [wl.Op("w", ["weights", "--scenario", "s3", "--n", "5"],
                                   lambda text: None)], [])
    metrics = bench.trace(quad, workdir)[0]
    assert metrics["rng.values"] == 0 and metrics["order_stats.quad_calls"] == 1
    mc = wl.Workload("m", [wl.Op("w", ["weights", "--scenario", "s3", "--n", "5",
                                       "--backend", "mc", "--reps", "10000"],
                                 lambda text: None)], [])
    metrics = bench.trace(mc, workdir)[0]
    assert metrics["order_stats.quad_calls"] == 0 and metrics["rng.values"] == 50_000


def test_traced_stdout_matches_a_fresh_process_byte_for_byte(workdir):
    argv = ["estimate", "--scenario", "s3", "--n", "25", "--min", "1", "--q1", "2",
            "--median", "3", "--q3", "4", "--max", "9", "--method", "optimal-exact"]
    child = bench.cli_subprocess(workdir, bench.child_env())(argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = bench.cli_inprocess(tracer.end_invocation)(argv)
    finally:
        tracer.remove()
    assert child.code == traced.code == 0
    assert child.stdout == traced.stdout
    assert tracer.counts["order_stats.quad_calls"] == 1


def test_inputs_follow_the_seed(workdir):
    a = wl.gen_summaries(random.Random(1), wl.BATCH_QUAD_SIZES[0], 40)
    b = wl.gen_summaries(random.Random(1), wl.BATCH_QUAD_SIZES[0], 40)
    c = wl.gen_summaries(random.Random(2), wl.BATCH_QUAD_SIZES[0], 40)
    assert a == b != c
    assert sorted(r["n"] for r in a) == sorted(r["n"] for r in c)
    for r in a:
        present = [r[k] for k in ("min", "q1", "median", "q3", "max") if r[k] is not None]
        assert present == sorted(present)
