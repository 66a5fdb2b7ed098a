"""Workload definitions for the optmean benchmark: inputs, invocations, checks.

A workload is a fixed list of ``optmean`` CLI invocations (one *pass*) built
from the workload seed. Every valid invocation carries a check that parses
its stdout and compares it against an independent re-computation or a
reference stored under ``perfbench/data``. Operations that run once per run,
outside the timed passes, are the refusal set (invalid invocations whose only
correct outcome is the documented exit code 2, 3 or 4 without a traceback)
and, on batch, the bundled-table checks.

Each invocation also declares the work it stands for, which the end-to-end
rates divide by the wall time of the invocations that carry that work:
``sizes`` (distinct sample sizes whose exact weights it tabulates),
``values`` (Monte Carlo variates, replicates x n) and the data rows it writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

WORKLOADS = ("quad_table", "monte_carlo", "batch")

# Golden optimal weights (the package's acceptance criterion 1).
GOLD_S1 = {5: 0.5514, 25: 0.2642, 101: 0.1114, 501: 0.0338}
GOLD_S2 = {5: 0.7786, 25: 0.7150, 101: 0.7028, 501: 0.6997}
GOLD_S3 = {5: (0.4000, 0.4000), 25: (0.1643, 0.5713),
           101: (0.0671, 0.6467), 501: (0.0206, 0.6831)}
GOLD_TOL = 0.002

# Quadrature moments converge to a 1e-8 panel difference and are documented
# as accurate well under 1e-6; the weights are ratios of moment
# combinations whose error amplification stays below 100 for n <= 501, so
# 1e-6 separates a real change in the weights from quadrature noise.
QUAD_WEIGHT_TOL = 1e-6
# MC weights against the quadrature reference, in units of the reported
# moment std_error. Over 360 seeds at 10,000 replicates and n <= 101 the
# largest ratio seen was 2.4.
MC_SE_MULTIPLE = 5.0
# `estimate --backend mc` prints no std_error; 0.025 bounds the reported
# moment std_error at 10,000 replicates for n <= 101.
MC_WEIGHT_TOL_MIN_REPS = MC_SE_MULTIPLE * 0.025
# RMSE rows against the stored high-replicate reference, in units of the
# combined standard error. The run's share of it is the reference's
# batch-means standard error (19 degrees of freedom) scaled to the run's
# replicates, not the run's own: at 4,000 replicates a run has only 8 cells
# of 512, so its own estimate rests on 7 degrees of freedom and passes 7 with
# probability 2e-4 per row; on 19 it is 1e-6 (a run makes ~250 such checks).
RMSE_SE_MULTIPLE = 7.0
# Printed values carry 10 significant digits.
PRINT_RTOL = 1e-8
PRINT_ATOL = 1e-9

# ---------------------------------------------------------------------------
# workload shapes, shared with make_references.py

# The stride keeps both ends of 5..501 while a pass stays short enough to
# repeat within a run. Each size is its own invocation: the machine's speed
# changes within seconds, and a run keeps each invocation's best time, which
# a short invocation reaches far more often than a long one. batch checks
# the golden weights at n = 5, 25, 101 and 501 for all three scenarios.
QUAD_GRID = "5:501:124"

# The sizes 5, 37, 69 and 101 in two invocations of equal work (sum of n),
# each short for the reason given at QUAD_GRID.
MC_WEIGHT_GRIDS = ("5:101:96", "37:69:32")
MC_WEIGHT_REPS = 56_000
SIM_GRID = "5:101:16"
SIM_REPS = {"normal": 14_000, "lognormal": 14_000, "beta": 4_000,
            "exponential": 14_000}
# beta, the slowest per variate, runs SIM_GRID in two invocations.
SIM_SPLIT = {"beta": ("5:101:32", "21:85:32")}
SIM_METHODS = ("sample_mean", "hozo", "optimal_approx")

BATCH_APPROX_SIZES = (5, 9, 13, 17, 25, 33, 41, 57, 101, 201, 301, 501)
BATCH_APPROX_ROWS = 12_000
# The golden sizes, in two files of two sizes each so that every
# invocation stays short (see QUAD_GRID).
BATCH_QUAD_SIZES = ((5, 501), (25, 101))
BATCH_QUAD_ROWS = 1_000                 # per file
BATCH_MC_SIZES = (5, 13, 25)
BATCH_MC_ROWS = 24
BATCH_MC_REPS = 10_000          # the CLI's minimum
BATCH_STUDIES = 2_000


def parse_grid(text: str) -> list[int]:
    start, stop, step = (int(p) for p in text.split(":"))
    return list(range(start, stop + 1, step))


# ---------------------------------------------------------------------------
# stored references


def load_reference_weights() -> dict[int, dict[str, float]]:
    """Quadrature weights at every n = 4Q+1 in 5..501: s1, s2, s3_w1, s3_w2."""
    with open(os.path.join(DATA, "reference_weights.csv"), newline="") as fh:
        return {int(r["n"]): {k: float(v) for k, v in r.items() if k != "n"}
                for r in csv.DictReader(fh)}


def load_reference_rmse() -> dict[tuple[str, int, str], tuple[float, float, int]]:
    """(rmse, mc_std_error, replicates) by (distribution, n, method)."""
    with open(os.path.join(DATA, "reference_rmse.csv"), newline="") as fh:
        return {(r["distribution"], int(r["n"]), r["method"]):
                (float(r["rmse"]), float(r["mc_std_error"]), int(r["replicates"]))
                for r in csv.DictReader(fh)}


def load_reference_json() -> dict:
    with open(os.path.join(DATA, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output parsing and checks


class CheckError(Exception):
    """An invocation's output failed its correctness check."""


@dataclass
class CsvOutput:
    rows: list          # one dict per data row, keyed by the column header
    footer: dict        # `# key=value` lines after the data rows


def parse_csv(text: str) -> CsvOutput:
    """Split optmean CSV output into data rows and footer."""
    footer, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if sep and body:
                footer[key] = value
        elif line:
            body.append(line)
    if not body:
        raise CheckError("no CSV column header in output")
    reader = csv.reader(body)
    fields = next(reader)
    return CsvOutput([dict(zip(fields, row)) for row in reader], footer)


def data_rows(text: str) -> int:
    """Data rows an invocation wrote (CSV body rows, or 1 for a JSON fit)."""
    if text.lstrip().startswith("{"):
        return 1
    return len(parse_csv(text).rows)


def close(got: float, want: float, rtol: float = PRINT_RTOL,
          atol: float = PRINT_ATOL) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def expect(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def approx_weights(scenario: str, n: int) -> tuple[float, Optional[float]]:
    """The closed-form weights, written out independently of the package."""
    if scenario == "s1":
        return 4.0 / (4.0 + n ** 0.75), None
    if scenario == "s2":
        return 0.7 + 0.39 / n, None
    return 2.2 / (2.2 + n ** 0.75), 0.7 - 0.72 / n ** 0.55


def reference_pair(ref: dict, scenario: str, n: int) -> tuple[float, Optional[float]]:
    row = ref[n]
    if scenario == "s3":
        return row["s3_w1"], row["s3_w2"]
    return row[scenario], None


def _num(text: str) -> Optional[float]:
    return float(text) if text != "" else None


def check_weight_table(scenario: str, grid: list[int], backend: str,
                       ref: dict, tol_se: Optional[float] = None):
    """Check for `optmean weights`: grid, closed forms, reference, golden."""

    def check(text: str):
        out = parse_csv(text)
        expect([int(r["n"]) for r in out.rows] == grid,
               f"weights rows {[r['n'] for r in out.rows]} != grid {grid}")
        for r in out.rows:
            n = int(r["n"])
            expect(r["scenario"] == scenario and r["backend"] == backend,
                   f"n={n}: wrong scenario/backend {r['scenario']}/{r['backend']}")
            a1, a2 = approx_weights(scenario, n)
            expect(close(float(r["approx_w1"]), a1)
                   and (a2 is None or close(float(r["approx_w2"]), a2)),
                   f"n={n}: approximate weights differ from the closed form")
            got = (float(r["exact_w1"]), _num(r["exact_w2"]))
            want = reference_pair(ref, scenario, n)
            se = float(r["std_error"])
            tol = QUAD_WEIGHT_TOL if tol_se is None else tol_se * se
            expect(math.isfinite(se) and se > 0, f"n={n}: bad std_error {se}")
            for g, w in zip(got, want):
                if w is not None:
                    expect(g is not None and abs(g - w) <= tol,
                           f"n={n}: exact weight {g} vs reference {w} (tol {tol:.3g})")
            if backend == "quad":
                check_golden(scenario, n, got)
    return check


def check_golden(scenario: str, n: int, weights: tuple):
    gold = {"s1": GOLD_S1, "s2": GOLD_S2, "s3": GOLD_S3}[scenario].get(n)
    if gold is None:
        return
    for g, w in zip(weights, gold if isinstance(gold, tuple) else (gold,)):
        expect(abs(g - w) <= GOLD_TOL, f"{scenario} n={n}: weight {g} vs golden {w}")


def check_fit(reference_fit: dict, table_grid: list[int], ref: dict):
    """Check for `optmean fit --scenario s3`: stored fit and its residual."""

    def check(text: str):
        fit = json.loads(text)["fit"]
        expect(fit["n_points"] == len(table_grid),
               f"fit used {fit['n_points']} points, table has {len(table_grid)}")
        for key in ("c1", "c2", "c3", "c4"):
            expect(close(fit[key], reference_fit[key], rtol=1e-6, atol=1e-9),
                   f"fit {key}={fit[key]} vs reference {reference_fit[key]}")
        c1, c2, c3, c4 = (fit[k] for k in ("c1", "c2", "c3", "c4"))
        sse = sum((c1 / (c1 + n ** c2) - ref[n]["s3_w1"]) ** 2
                  + (0.7 - c3 * n ** -c4 - ref[n]["s3_w2"]) ** 2
                  for n in table_grid)
        expect(close(fit["residual"], sse, rtol=1e-5, atol=1e-12),
               f"fit residual {fit['residual']} vs recomputed {sse}")
    return check


def check_rmse(distribution: str, grid: list[int], reps: int, ref: dict):
    """Check for `optmean simulate`: rows against the stored reference."""

    def check(text: str):
        out = parse_csv(text)
        want = [(n, m) for n in grid for m in SIM_METHODS]
        got = [(int(r["n"]), r["method"]) for r in out.rows]
        expect(got == want, f"simulate rows {got} != {want}")
        for r in out.rows:
            n, method = int(r["n"]), r["method"]
            rmse, se = float(r["rmse"]), float(r["mc_std_error"])
            expect(r["distribution"] == distribution and int(r["replicates"]) == reps,
                   f"{distribution} n={n}: wrong distribution or replicates")
            if method == "sample_mean":
                expect(rmse == 1.0 and se == 0.0,
                       f"{distribution} n={n}: control row {rmse}, {se}")
                continue
            ref_rmse, ref_se, ref_reps = ref[(distribution, n, method)]
            tol = RMSE_SE_MULTIPLE * math.hypot(ref_se * math.sqrt(ref_reps / reps), ref_se)
            expect(se > 0 and abs(rmse - ref_rmse) <= tol,
                   f"{distribution} n={n} {method}: rmse {rmse} vs reference "
                   f"{ref_rmse} (tol {tol:.3g})")
    return check


def _estimate_value(row: dict, w1: float, w2: Optional[float]) -> float:
    mn, q1, med, q3, mx = (_num(row[k]) for k in ("min", "q1", "median", "q3", "max"))
    s = row["scenario"]
    if s == "s1":
        return w1 * (mn + mx) / 2 + (1 - w1) * med
    if s == "s2":
        return w1 * (q1 + q3) / 2 + (1 - w1) * med
    return w1 * (mn + mx) / 2 + w2 * (q1 + q3) / 2 + (1 - w1 - w2) * med


def check_estimates(summaries: list[dict], source: str, ref: dict):
    """Check for `optmean estimate --input`: rows, weights and values.

    ``source`` is ``approx`` (closed forms), ``quad`` (stored reference
    weights) or ``mc`` (reference within the MC tolerance, and identical
    weights for every row of the same n, since the streams are seeded).
    """

    def check(text: str):
        out = parse_csv(text)
        expect(len(out.rows) == len(summaries),
               f"estimate wrote {len(out.rows)} rows for {len(summaries)} inputs")
        seen = {}
        for k, (row, given) in enumerate(zip(out.rows, summaries)):
            n, s = int(row["n"]), row["scenario"]
            expect(n == given["n"] and s == given["scenario"],
                   f"row {k}: echoes {s}/n={n}, input was {given['scenario']}/{given['n']}")
            for key in ("min", "q1", "median", "q3", "max"):
                expect(_num(row[key]) == given[key], f"row {k}: {key} echo differs")
            w1, w2 = float(row["w1"]), _num(row["w2"])
            if source == "approx":
                want, tol = approx_weights(s, n), None
            else:
                want = reference_pair(ref, s, n)
                tol = QUAD_WEIGHT_TOL if source == "quad" else MC_WEIGHT_TOL_MIN_REPS
            for g, w in zip((w1, w2), want):
                if w is None:
                    continue
                ok = close(g, w) if tol is None else abs(g - w) <= tol
                expect(g is not None and ok, f"row {k}: weight {g} vs {w}")
            if source == "quad":
                check_golden(s, n, (w1, w2))
            if source == "mc":
                expect(seen.setdefault((s, n), (w1, w2)) == (w1, w2),
                       f"row {k}: MC weights for {s}/n={n} differ between rows")
            value = float(row["value"])
            expect(close(value, _estimate_value(row, w1, w2), rtol=1e-7),
                   f"row {k}: value {value} is not the weighted combination")
    return check


def _cohens_d(m_c, sd_c, n_c, m_t, sd_t, n_t) -> float:
    pooled = ((n_c - 1) * sd_c ** 2 + (n_t - 1) * sd_t ** 2) / (n_c + n_t - 2)
    return (m_t - m_c) / math.sqrt(pooled)


def check_meta(studies: Optional[list[dict]], stored: Optional[dict]):
    """Check for `optmean meta`.

    Generated files: one row per study, the closed-form effects of the meansd
    and odds-ratio rows, and a DerSimonian-Laird re-pooling of the printed
    effects. The bundled table: its stored pooled_d, Q and I^2.
    """

    def check(text: str):
        out = parse_csv(text)
        f = {k: float(v) for k, v in out.footer.items()}
        if stored is not None:
            expect(len(out.rows) == stored["rows"], "bundled table row count")
            for key in ("pooled_d", "q", "i_squared"):
                expect(close(f[key], stored[key]),
                       f"bundled {key}={f[key]} vs stored {stored[key]}")
            return
        expect(len(out.rows) == len(studies),
               f"meta wrote {len(out.rows)} rows for {len(studies)} studies")
        d = [float(r["d"]) for r in out.rows]
        v = [float(r["var_d"]) for r in out.rows]
        for row, st, dk in zip(out.rows, studies, d):
            expect(int(row["index"]) == st["index"], "study order differs")
            if st["payload_type"] == "meansd":
                m_c, sd_c, m_t, sd_t = st["f"][:4]
                want = _cohens_d(m_c, sd_c, st["n_cases"], m_t, sd_t, st["n_controls"])
            elif st["payload_type"] == "or":
                want = math.log(st["f"][0]) * math.sqrt(3.0) / math.pi
            else:
                continue
            expect(close(dk, want), f"study {st['index']}: d={dk} vs {want}")
        w = [1.0 / x for x in v]
        sw = sum(w)
        q = max(sum(wi * di * di for wi, di in zip(w, d))
                - sum(wi * di for wi, di in zip(w, d)) ** 2 / sw, 0.0)
        df = len(d) - 1
        denom = sw - sum(wi * wi for wi in w) / sw
        tau2 = max(0.0, (q - df) / denom)
        star = [1.0 / (x + tau2) for x in v]
        pooled = sum(s * di for s, di in zip(star, d)) / sum(star)
        i2 = 100.0 * max(0.0, (q - df) / q) if q > 0 else 0.0
        for key, want in (("q", q), ("pooled_d", pooled), ("i_squared", i2),
                          ("tau_squared", tau2)):
            expect(close(f[key], want, rtol=1e-6, atol=1e-8),
                   f"{key}={f[key]} vs re-pooled {want}")
    return check


# ---------------------------------------------------------------------------
# seeded input generators


def _ordered_values(rng: random.Random) -> list[float]:
    centre, spread = rng.uniform(20.0, 80.0), rng.uniform(2.0, 20.0)
    return sorted(round(rng.gauss(centre, spread), 2) for _ in range(5))


def gen_summaries(rng: random.Random, sizes, rows: int) -> list[dict]:
    """Summary rows over a fixed multiset of sizes, shuffled by the seed."""
    ns = [sizes[k % len(sizes)] for k in range(rows)]
    rng.shuffle(ns)
    out = []
    for n in ns:
        scenario = rng.choice(("s1", "s2", "s3"))
        mn, q1, med, q3, mx = _ordered_values(rng)
        keep = {"s1": ("min", "median", "max"), "s2": ("q1", "median", "q3"),
                "s3": ("min", "q1", "median", "q3", "max")}[scenario]
        vals = dict(min=mn, q1=q1, median=med, q3=q3, max=mx)
        out.append({"scenario": scenario, "n": n,
                    **{k: (vals[k] if k in keep else None) for k in vals}})
    return out


def summaries_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["scenario", "n", "min", "q1", "median", "q3", "max"])
    for r in rows:
        w.writerow([r["scenario"], r["n"]] + ["" if r[k] is None else repr(r[k])
                                             for k in ("min", "q1", "median", "q3", "max")])
    return buf.getvalue()


def gen_studies(rng: random.Random, count: int, fivenum_scenarios) -> list[dict]:
    """Study rows cycling through the four payload types."""
    kinds = ("fivenum", "meansd", "or", "meanrange")
    out = []
    for k in range(count):
        kind = kinds[k % 4]
        # above 15 per arm, where Hozo's range rule needs no median
        n_c, n_t = rng.randint(16, 200), rng.randint(16, 200)
        if kind == "fivenum":
            s = rng.choice(fivenum_scenarios)
            keep = {"s1": (0, 2, 4), "s2": (1, 2, 3), "s3": (0, 1, 2, 3, 4)}[s]
            arms = [[v if i in keep else None for i, v in enumerate(_ordered_values(rng))]
                    for _ in range(2)]
            f = [s] + arms[0] + arms[1]
        elif kind == "meansd":
            f = [round(rng.uniform(20, 80), 2), round(rng.uniform(5, 25), 2),
                 round(rng.uniform(20, 80), 2), round(rng.uniform(5, 25), 2)]
        elif kind == "or":
            odds = round(rng.uniform(0.3, 4.0), 3)
            f = [odds, round(odds * rng.uniform(0.3, 0.9), 3),
                 round(odds * rng.uniform(1.1, 3.0), 3)]
        else:
            lo_c, hi_c = sorted(round(rng.uniform(0, 150), 2) for _ in range(2))
            lo_t, hi_t = sorted(round(rng.uniform(0, 150), 2) for _ in range(2))
            f = [round(rng.uniform(lo_c, hi_c), 2), lo_c, hi_c + 1.0,
                 round(rng.uniform(lo_t, hi_t), 2), lo_t, hi_t + 1.0]
        out.append({"index": k + 1, "label": f"study {k + 1}", "n_cases": n_c,
                    "n_controls": n_t, "payload_type": kind, "f": f})
    return out


def studies_csv(studies: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "label", "n_cases", "n_controls", "payload_type"]
               + [f"f{k:02d}" for k in range(1, 12)] + ["note"])
    for st in studies:
        f = ["" if v is None else (v if isinstance(v, str) else repr(v)) for v in st["f"]]
        w.writerow([st["index"], st["label"], st["n_cases"], st["n_controls"],
                    st["payload_type"]] + f + [""] * (11 - len(f)) + [""])
    return buf.getvalue()


def repeated_n_share(rows: list[dict]) -> float:
    """Share of rows whose n already appeared on an earlier row of the file."""
    return 1.0 - len({r["n"] for r in rows}) / len(rows)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    """One optmean invocation with its check and the work it stands for."""

    label: str
    argv: list
    check: Optional[Callable[[str], None]] = None
    sizes: int = 0
    values: int = 0
    # labels of earlier ops whose stdout tables, merged, become this op's --input
    input_from: tuple = ()
    # invalid on purpose: correct only with exit code 2, 3 or 4
    refusal: bool = False


@dataclass
class Workload:
    name: str
    ops: list           # one timed pass
    once: list          # run once per run, outside the passes
    props: dict = field(default_factory=dict)


def refusal_ops(workdir: str) -> list:
    """Invalid invocations that must end with exit code 2, 3 or 4."""
    missing = os.path.join(workdir, "no-such-dir", "out.csv")
    argvs = {
        "refuse.weights_n_505": ["weights", "--scenario", "s1", "--n", "505"],
        "refuse.mc_reps_100": ["weights", "--scenario", "s1", "--n", "5",
                               "--backend", "mc", "--reps", "100"],
        "refuse.median_nan": ["estimate", "--scenario", "s1", "--n", "25",
                              "--min", "1", "--median", "nan", "--max", "3"],
        "refuse.output_missing_dir": ["estimate", "--scenario", "s1", "--n", "25",
                                      "--min", "1", "--median", "2", "--max", "3",
                                      "--output", missing],
    }
    return [Op(label, argv, refusal=True) for label, argv in argvs.items()]


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` into ``workdir``."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    ref = load_reference_weights()
    stored = load_reference_json()
    seed_arg = ["--seed", str(seed)]
    once = []
    if name == "quad_table":
        grid = parse_grid(QUAD_GRID)
        # quad_table draws no variates. Its quadrature counts as one exact
        # replicate per size (values = n), so that mc_values_per_s stays a
        # measured, non-zero rate here; it tracks quadrature speed.
        ops = [Op(f"weights.quad.s3.n{n}", ["weights", "--scenario", "s3", "--backend",
                                            "quad", "--n", str(n)] + seed_arg,
                  check_weight_table("s3", [n], "quad", ref), sizes=1, values=n)
               for n in grid]
        ops.append(Op("fit.s3", ["fit", "--scenario", "s3"] + seed_arg,
                      check_fit(stored["fit_s3"], grid, ref),
                      input_from=tuple(op.label for op in ops)))
        props = {"repeated_n_share": 0.0}
    elif name == "monte_carlo":
        ops = [Op(f"weights.mc.s3.{k}", ["weights", "--scenario", "s3", "--backend", "mc",
                                         "--grid", text,
                                         "--reps", str(MC_WEIGHT_REPS)] + seed_arg,
                  check_weight_table("s3", grid, "mc", ref, tol_se=MC_SE_MULTIPLE),
                  sizes=len(grid), values=MC_WEIGHT_REPS * sum(grid))
               for k, (text, grid) in enumerate((t, parse_grid(t)) for t in MC_WEIGHT_GRIDS)]
        sim_grid = parse_grid(SIM_GRID)
        rmse_ref = load_reference_rmse()
        for dist, reps in SIM_REPS.items():
            grids = SIM_SPLIT.get(dist, (SIM_GRID,))
            for k, text in enumerate(grids):
                grid = parse_grid(text)
                ops.append(Op(f"simulate.{dist}" + (f".{k}" if len(grids) > 1 else ""),
                              ["simulate", "--distribution", dist, "--scenario", "s1",
                               "--grid", text, "--reps", str(reps)] + seed_arg,
                              check_rmse(dist, grid, reps, rmse_ref),
                              values=reps * sum(grid)))
        props = {"repeated_n_share": 0.0}
    elif name == "batch":
        approx = gen_summaries(rng, BATCH_APPROX_SIZES, BATCH_APPROX_ROWS)
        quads = [gen_summaries(rng, sizes, BATCH_QUAD_ROWS) for sizes in BATCH_QUAD_SIZES]
        mc = gen_summaries(rng, BATCH_MC_SIZES, BATCH_MC_ROWS)
        studies = gen_studies(rng, BATCH_STUDIES, ("s1",))
        mixed = gen_studies(rng, BATCH_STUDIES, ("s1", "s2", "s3"))
        paths = {k: _write(workdir, f"{k}.csv", text) for k, text in (
            ("summaries_approx", summaries_csv(approx)),
            *((f"summaries_quad{k}", summaries_csv(q)) for k, q in enumerate(quads)),
            ("summaries_mc", summaries_csv(mc)),
            ("studies", studies_csv(studies)),
            ("studies_mixed", studies_csv(mixed)))}
        est = ["estimate", "--method"]
        ops = [
            Op("estimate.approx", est + ["optimal-approx", "--input",
                                         paths["summaries_approx"]] + seed_arg,
               check_estimates(approx, "approx", ref)),
            *(Op(f"estimate.exact.quad{k}", est + ["optimal-exact", "--input",
                                                   paths[f"summaries_quad{k}"]] + seed_arg,
                 check_estimates(q, "quad", ref), sizes=len(sizes))
              for k, (q, sizes) in enumerate(zip(quads, BATCH_QUAD_SIZES))),
            Op("estimate.exact.mc", est + ["optimal-exact", "--backend", "mc",
                                           "--reps", str(BATCH_MC_REPS), "--input",
                                           paths["summaries_mc"]] + seed_arg,
               check_estimates(mc, "mc", ref), sizes=len(BATCH_MC_SIZES),
               values=BATCH_MC_REPS * sum(r["n"] for r in mc)),
        ]
        for profile in ("table2", "table3"):
            ops.append(Op(f"meta.{profile}", ["meta", "--input", paths["studies"],
                                              "--profile", profile] + seed_arg,
                          check_meta(studies, None)))
        ops.append(Op("meta.table3.mixed", ["meta", "--input", paths["studies_mixed"],
                                            "--profile", "table3"] + seed_arg,
                      check_meta(mixed, None)))
        once = [Op(f"meta.{profile}.bundled", ["meta", "--profile", profile] + seed_arg,
                   check_meta(None, stored["bundled"][profile]))
                for profile in ("table2", "table3")]
        files = {"summaries_approx": approx, "summaries_mc": mc,
                 **{f"summaries_quad{k}": q for k, q in enumerate(quads)}}
        summaries = [row for rows in files.values() for row in rows]
        props = {
            "repeated_n_share": {
                **{k: repeated_n_share(rows) for k, rows in files.items()},
                "all_summary_rows": sum(len(rows) * repeated_n_share(rows)
                                        for rows in files.values()) / len(summaries),
            },
            "summary_rows": len(summaries),
            "study_rows": 2 * len(studies) + len(mixed),
        }
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(name, ops, once + refusal_ops(workdir), props)
