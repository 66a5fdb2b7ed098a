"""Benchmark for the optmean CLI.

    python3 perfbench/run.py --workload {quad_table,monte_carlo,batch} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` every invocation is a fresh ``python3 -m
optmean.cli`` process fed generated inputs, passes of the workload repeat
until ``--seconds`` would be exceeded, and the end-to-end metrics are
reported. With ``--trace 1`` one pass runs in-process through
``optmean.cli.main`` untraced and then traced, and the per-layer metrics are
reported. Earlier stdout lines describe the run; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

REFUSAL_EXIT_CODES = (2, 3, 4)

# Best time of probe.kernel on the machine the figures in README.md come
# from (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
# Timings are reported at this probe speed.
PROBE_REF_S = 0.028

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "quad_sizes_per_s": "1/s",
                    "mc_values_per_s": "1/s", "batch_rows_per_s": "1/s",
                    "peak_rss_mb": "MB", "error_rate": "ratio"}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("OPTMEAN_SEED", None)
    return env


@dataclass
class Result:
    """Outcome of one invocation; ``error`` says why it failed, if it did."""

    code: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float = 0.0
    error: Optional[str] = None
    # probe time around the invocation over PROBE_REF_S (see Probed)
    slowdown: float = 1.0


def spawn(argv: list, workdir: str, env: dict) -> Result:
    """Run one child process to completion; RSS comes from its own rusage."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Result(proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0)


def cli_subprocess(workdir: str, env: dict):
    def run(args):
        return spawn([sys.executable, "-m", "optmean.cli"] + args, workdir, env)
    return run


class Probe:
    """A ``probe.py --serve`` process that times ``probe.kernel`` on request."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"),
                                      "--serve"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        for _ in range(3):      # warm-up: first calls fault in pages and caches
            self.kernel()

    def kernel(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench/probe.py --serve ended early")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Probed:
    """Runs invocations between runs of ``probe.kernel``.

    The mean of the kernel times just before and just after an invocation,
    over PROBE_REF_S, is how much slower than the reference the machine ran
    meanwhile; it becomes the result's ``slowdown``. Call
    ``pin_to_one_cpu`` before starting the probe, so that the kernel and the
    children share a core.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.last = probe.kernel()

    def wrap(self, run):
        def probed(args) -> Result:
            before = self.last
            res = run(args)
            self.last = self.probe.kernel()
            res.slowdown = (before + self.last) / (2 * PROBE_REF_S)
            return res
        return probed


def pin_to_one_cpu():
    """Keep this process and its children on one CPU of those allowed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cli_inprocess(after_each):
    """Call optmean.cli.main in this process, capturing stdout and stderr."""
    import optmean.cli

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = optmean.cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        after_each()
        return Result(code, out.getvalue(), err.getvalue(), wall)
    return run


def judge(op: wl.Op, res: Result) -> Result:
    """Set ``res.error`` to why the operation failed, or leave it None."""
    if "Traceback" in res.stderr:
        res.error = f"traceback (exit {res.code})"
    elif op.refusal:
        if res.code not in REFUSAL_EXIT_CODES:
            res.error = f"exit {res.code}, expected one of {REFUSAL_EXIT_CODES}"
    elif res.code != 0:
        res.error = f"exit {res.code}: {res.stderr.strip()[-200:]}"
    else:
        try:
            op.check(res.stdout)
        except (wl.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            res.error = f"check failed: {exc}"
    return res


def merge_tables(texts: list) -> str:
    """The first CSV output in full, then the data rows of the others."""
    merged = texts[0]
    for text in texts[1:]:
        body = [line for line in text.splitlines(keepends=True) if not line.startswith("#")]
        merged += "".join(body[1:])
    return merged


def run_pass(workload: wl.Workload, run, workdir: str) -> list:
    """Run every op of one pass in order; returns (op, result) pairs."""
    results, outputs = [], {}
    for op in workload.ops:
        args = list(op.argv)
        if op.input_from:
            path = os.path.join(workdir, f"{op.label}.input.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(merge_tables([outputs.get(label, "") for label in op.input_from]))
            args += ["--input", path]
        res = judge(op, run(args))
        outputs[op.label] = res.stdout
        results.append((op, res))
    return results


def run_once(workload: wl.Workload, run) -> list:
    return [(op, judge(op, run(op.argv))) for op in workload.once]


def outcomes(passes, once) -> list:
    """One (op, result) per operation of the run: its first failure, if any.

    Each operation counts once, however many passes repeat it, so attempted,
    failed and error_rate are the same on every run of the same code.
    """
    merged = []
    for k, (op, _) in enumerate(passes[0]):
        runs = [p[k][1] for p in passes]
        merged.append((op, next((r for r in runs if r.error is not None), runs[0])))
    return merged + list(once)


def end_to_end(passes, once, setup) -> tuple:
    """The end-to-end metrics of a run, at the reference machine speed.

    The machine is shared and its speed changes within seconds, so each
    invocation's wall time is divided by its ``slowdown``, and each timed
    operation's time is the median of these over the run's passes; setup_s
    is the median over the set-up launches. error_rate is failed / attempted
    operations, each counted once (see ``outcomes``). The rates divide a
    pass's work by wall_s, the time of the whole pass, so each of them rests
    on every invocation's time. Returns these metrics and the same ones from
    unscaled wall times.
    """
    ops = [op for op, _ in passes[0]]
    rows = []
    for k in range(len(ops)):
        good = [p[k][1] for p in passes if p[k][1].error is None]
        rows.append(wl.data_rows(good[0].stdout) if good else 0)
    judged = outcomes(passes, once)
    error_rate = sum(res.error is not None for _, res in judged) / len(judged)
    peak = max(res.rss_mb for p in passes for _, res in p)

    def metrics(seconds) -> dict:
        wall = sum(statistics.median(seconds(p[k][1]) for p in passes)
                   for k in range(len(ops)))
        return {
            "setup_s": statistics.median(seconds(res) for res in setup),
            "wall_s": wall,
            "quad_sizes_per_s": sum(op.sizes for op in ops) / wall,
            "mc_values_per_s": sum(op.values for op in ops) / wall,
            "batch_rows_per_s": sum(rows) / wall,
            "peak_rss_mb": peak,
            "error_rate": error_rate,
        }

    return metrics(lambda res: res.wall / res.slowdown), metrics(lambda res: res.wall)


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "optmean")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".csv")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, workload, env) -> dict:
    versions = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy, scipy, optmean.cli; print(sys.version.split()[0], "
         "numpy.__version__, scipy.__version__, optmean.cli.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if versions.returncode != 0:
        raise SystemExit(f"cannot import optmean from {SRC}:\n{versions.stderr}")
    python, numpy_v, scipy_v, cli_file = versions.stdout.split()
    if not os.path.samefile(os.path.dirname(cli_file), os.path.join(SRC, "optmean")):
        raise SystemExit(f"optmean resolves to {cli_file}, not to {SRC}")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": python, "numpy": numpy_v, "scipy": scipy_v,
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
            "source_sha256": source_digest(), **workload.props}


def measure(args, workload, workdir, env) -> tuple:
    """--trace 0: the once-per-run operations, then timed passes.

    The run ends within about --seconds of its start: passes repeat while
    the next one, as long as the last, would end by then (at least one pass
    runs). Set-up launches are spread over the run, two at the start and one
    before each pass. Every timed invocation runs between two probes.
    """
    deadline = time.perf_counter() + args.seconds
    pin_to_one_cpu()
    probe = Probe(env)
    try:
        probed = Probed(probe)
        setup = []
        spawn_probed = probed.wrap(lambda argv: spawn(argv, workdir, env))

        def launch():
            res = spawn_probed([sys.executable, "-c", "import optmean.cli"])
            if res.code != 0:
                raise SystemExit(f"import optmean.cli failed:\n{res.stderr}")
            setup.append(res)

        run = probed.wrap(cli_subprocess(workdir, env))
        launch()
        launch()
        once = run_once(workload, run)
        passes = []
        while True:
            t = time.perf_counter()
            launch()
            passes.append(run_pass(workload, run, workdir))
            now = time.perf_counter()
            if now + (now - t) > deadline:
                break
    finally:
        probe.close()
    metrics, raw = end_to_end(passes, once, setup)
    results = outcomes(passes, once)
    valid_ok = all(res.error is None for op, res in results if not op.refusal)
    op_wall = {op.label: [p[k][1].wall for p in passes] for k, op in enumerate(workload.ops)}
    return metrics, END_TO_END_UNITS, results, valid_ok, {
        "passes": len(passes), "op_wall_s": op_wall,
        "op_slowdown": {op.label: [round(p[k][1].slowdown, 3) for p in passes]
                        for k, op in enumerate(workload.ops)},
        "setup_wall_s": [res.wall for res in setup],
        "setup_slowdown": [round(res.slowdown, 3) for res in setup], "unscaled": raw}


def trace(workload, workdir) -> tuple:
    """--trace 1: one pass untraced, then traced, both in this process.

    The once-per-run operations run traced before the pass and contribute
    only to the ``<layer>.errors`` counters, so the work counters describe the
    timed pass.
    """
    sys.path.insert(0, SRC)
    import tracing
    from optmean import order_stats

    run = cli_inprocess(order_stats.moments_quadrature.cache_clear)
    run_once(workload, run)     # warms up the CLI paths before timing
    untraced = run_pass(workload, run, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = cli_inprocess(tracer.end_invocation)
        once = run_once(workload, run)
        tracer.keep_errors_only()
        traced = run_pass(workload, run, workdir)
    finally:
        tracer.remove()
    traced_wall = sum(res.wall for _, res in traced)
    untraced_wall = sum(res.wall for _, res in untraced)
    metrics = tracer.metrics(traced_wall, untraced_wall)
    same = [a.stdout == b.stdout for (_, a), (_, b) in zip(untraced, traced)]
    for (op, res), ok in zip(traced, same):
        if not ok and res.error is None:
            res.error = "traced stdout differs from the untraced run"
    results = traced + once
    valid_ok = all(res.error is None for op, res in untraced + results if not op.refusal)
    return metrics, tracing.METRICS, results, valid_ok, {
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "optmean", "cli.py")):
        print(f"perfbench: no optmean sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = wl.build(args.workload, args.seed, workdir)
        info = provenance(args, workload, env)
        if args.trace:
            metrics, units, results, valid_ok, extra = trace(workload, workdir)
        else:
            metrics, units, results, valid_ok, extra = measure(args, workload, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(extra)
    info["failures"] = [f"{op.label}: {res.error}" for op, res in results if res.error]
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({
        "correct": valid_ok,
        "attempted": len(results),
        "failed": sum(res.error is not None for _, res in results),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
