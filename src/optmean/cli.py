"""Command-line interface.

Subcommands: estimate, weights, fit, simulate, meta. Every output embeds
the effective configuration (seed, replicate counts, backend) in comment
lines or a JSON config block, so any result can be regenerated from its
own header. Runs with the same flags and seed produce byte-identical
output.

Exit codes follow where a refused value came from: 0 success, 2 a flag
(usage error), 3 an ``--input`` file or the output, 4 a numerical failure
or an unallocatable draw. `main` alone maps an exception to its code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import re
import sys

import numpy
import scipy

from ._table import cell_float, read_table
from .errors import FitConvergenceError, NumericalError
from .estimators import METHODS, SD_METHODS, SUMMARY_METHODS, Estimate, \
    FiveNumberSummary, estimate_mean, mean_weighted, sd_estimate
from .meta import PROFILES, load_bundled_studies, read_study_csv, run_case_study
from .order_stats import SUMMARY_FIELDS, check_moment_domain, moments_mc, \
    moments_quadrature
from .simulation import SimulationConfig, DISTRIBUTION_KINDS, distribution, \
    run_rmse
from .weights import Scenario, WeightSet, approx_weight, fit_power_law, \
    optimal_weights

DEFAULT_SEED = 7081
SEED_ENV_VAR = "OPTMEAN_SEED"
DEFAULT_WEIGHT_REPS = 2_000_000
DEFAULT_SIM_REPS = 100_000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# the MC bits rest on numpy's Philox and scipy's special functions
_LIBRARIES = {"python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # ten digits, unless they round past the float range and read back as inf
        text = format(value, ".10g")
        return text if abs(float(text)) <= sys.float_info.max else repr(value)
    return str(value)


def _default_seed():
    # a string default goes through --seed's type like a typed value, so a
    # malformed environment seed is refused as a usage error
    return os.environ.get(SEED_ENV_VAR, "").strip() or DEFAULT_SEED


def _method_name(text: str) -> str:
    """Canonical `METHODS` spelling of a method name; hyphens are accepted."""
    return text.strip().replace("-", "_")


def _parse_grid(text: str) -> tuple[int, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:step, got {text!r}")
    start, stop, step = (int(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    if (stop - start) // step >= sys.maxsize:
        raise ValueError(f"grid {text!r} has more than {sys.maxsize} sizes")
    return tuple(range(start, stop + 1, step))


# what reading or using an --input file may raise on a refused value; a power
# law that does not converge on a read weight table is the table's fault
_INPUT_ERRORS = (OSError, ValueError, ArithmeticError, csv.Error, FitConvergenceError)


class _InputError(Exception):
    """A refused value that came from an ``--input`` file (exit 3)."""


@contextlib.contextmanager
def _reading():
    """Mark an `_INPUT_ERRORS` exception raised inside as an `_InputError`."""
    try:
        yield
    except _INPUT_ERRORS as exc:
        raise _InputError(exc) from exc


def _emit(args, settings: dict, fields, rows, document=None, footer=()):
    """Write the configuration header, then the CSV table and its ``footer``
    lines, or the JSON ``document`` (default ``{"rows": [...]}``)."""
    from . import __version__
    if args.format == "json":
        body = document or {"rows": [dict(zip(fields, row)) for row in rows]}
        text = json.dumps({"command": args.command, "version": __version__,
                           "config": {**settings, "libraries": _LIBRARIES}, **body},
                          indent=2, sort_keys=True) + "\n"
    else:
        libraries = ", ".join(f"{name} {v}" for name, v in _LIBRARIES.items())
        buffer = io.StringIO()
        buffer.write(f"# optmean {__version__} {args.command} ({libraries})\n")
        buffer.writelines(f"# {key}={_fmt(settings[key])}\n" for key in sorted(settings))
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        buffer.writelines(line + "\n" for line in footer)
        text = buffer.getvalue()
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _read_table(path, what: str, columns: tuple, parse_row) -> list:
    """`read_table` on the ``--input`` file at ``path``."""
    with _reading(), open(path, "r", encoding="utf-8", newline="") as handle:
        return read_table(handle, what, columns, parse_row)


def _mc_reps(args):
    """``--reps`` under ``--backend mc``; None (quadrature) otherwise."""
    return args.reps if args.backend == "mc" else None


# ---------------------------------------------------------------------------
# estimate

_MEAN_METHODS = tuple(m.replace("_", "-") for m in SUMMARY_METHODS) + ("weighted",)
_SD_METHODS = tuple(f"{name}-sd" for name in SD_METHODS)

# the value flags and CSV columns, one per `SUMMARY_FIELDS` entry by position
_VALUE_COLUMNS = ("min", "q1", "median", "q3", "max")
_SUMMARY_COLUMNS = ("scenario", "n", *_VALUE_COLUMNS)


def _summary_from_values(scenario, n, values) -> FiveNumberSummary:
    return FiveNumberSummary(scenario=scenario, n=n, **dict(zip(SUMMARY_FIELDS, values)))


def _run_estimate_method(args, summary: FiveNumberSummary) -> Estimate:
    method = args.method
    if method in _SD_METHODS:
        return sd_estimate(summary, method.removesuffix("-sd"))
    if method == "weighted":
        if args.weight is None:
            raise ValueError("--method weighted requires --weight")
        weights = WeightSet(summary.scenario, summary.n, args.weight, args.w2,
                            source="custom")
        return mean_weighted(summary, weights)
    moments = _moments(args, summary.n) if method == "optimal-exact" else None
    return estimate_mean(summary, _method_name(method), moments)


def _estimate_row(summary: FiveNumberSummary, estimate: Estimate) -> list:
    ws = estimate.weight_set
    return [summary.scenario.value, summary.n, *summary.values(), estimate.method,
            estimate.value,
            *((None,) * 4 if ws is None else (ws.w1, ws.w2, ws.median_weight, ws.source))]


def _estimate_record(args, record) -> list:
    values = [cell_float(record[key]) for key in _VALUE_COLUMNS]
    summary = _summary_from_values(record["scenario"], int(record["n"]), values)
    return _estimate_row(summary, _run_estimate_method(args, summary))


def _cmd_estimate(args):
    settings = {"method": args.method, "seed": args.seed,
                "backend": args.backend, "reps": args.reps}
    out_fields = list(_SUMMARY_COLUMNS) + [
        "method", "value", "w1", "w2", "median_weight", "weight_source"]
    if args.method == "optimal-exact":
        check_moment_domain((), _mc_reps(args))
    if args.input is not None:
        rows = _read_table(args.input, "summary", _SUMMARY_COLUMNS,
                           lambda record: _estimate_record(args, record))
        _emit(args, {**settings, "input": args.input}, out_fields, rows)
        return
    if args.scenario is None or args.n is None:
        raise ValueError("--scenario and --n are required without --input")
    values = [getattr(args, column) for column in _VALUE_COLUMNS]
    summary = _summary_from_values(args.scenario, args.n, values)
    row = _estimate_row(summary, _run_estimate_method(args, summary))
    _emit(args, settings, out_fields, [row], {"result": dict(zip(out_fields, row))})


# ---------------------------------------------------------------------------
# weights

def _moments(args, n: int):
    if args.backend != "mc":
        return moments_quadrature(n)
    # a batch repeats n; one main() call draws each (n, reps, seed) once
    key = (n, args.reps, args.seed)
    if key not in args.mc_moments:
        args.mc_moments[key] = moments_mc(*key)
    return args.mc_moments[key]


def _weight_table_rows(args, scenario, grid):
    rows = []
    for n in grid:
        moments = _moments(args, n)
        exact = optimal_weights(moments, scenario)
        approx = approx_weight(scenario, n)
        rows.append([n, scenario.value, exact.w1, exact.w2,
                     approx.w1, approx.w2, args.backend, moments.std_error])
    return rows


_WEIGHT_FIELDS = ("n", "scenario", "exact_w1", "exact_w2", "approx_w1",
                  "approx_w2", "backend", "std_error")


def _cmd_weights(args):
    scenario = Scenario.parse(args.scenario)
    if (args.n is None) == (args.grid is None):
        raise ValueError("give exactly one of --n or --grid")
    grid = (args.n,) if args.n is not None else _parse_grid(args.grid)
    check_moment_domain(grid, _mc_reps(args))
    settings = {"scenario": scenario.value, "backend": args.backend,
                "seed": args.seed, "reps": _mc_reps(args)}
    _emit(args, settings, _WEIGHT_FIELDS, _weight_table_rows(args, scenario, grid))


# ---------------------------------------------------------------------------
# fit

def _read_weight_table(path, scenario: Scenario):
    # one weight per reported part but the median
    weights = tuple(f"exact_w{k}" for k in range(1, len(scenario.parts)))

    def parse_row(record):
        if Scenario.parse(record["scenario"]) is not scenario:
            return None
        return (float(int(record["n"])), *(float(record[key]) for key in weights))
    grid = _read_table(path, "weight-table", ("n", "scenario", *weights), parse_row)
    if not grid:
        raise ValueError(f"no rows for scenario {scenario.value} in {path}")
    return grid


def _cmd_fit(args):
    scenario = Scenario.parse(args.scenario)
    settings = {"scenario": scenario.value, "seed": args.seed}
    if args.input is not None:
        settings["input"] = args.input
        with _reading():
            grid = _read_weight_table(args.input, scenario)
            coeff = fit_power_law(grid, scenario)
    else:
        grid_ns = _parse_grid(args.grid)
        check_moment_domain(grid_ns, _mc_reps(args))
        settings.update({"backend": args.backend, "grid": args.grid,
                         "reps": _mc_reps(args)})
        rows = _weight_table_rows(args, scenario, grid_ns)
        grid = [(r[0], *(w for w in r[2:4] if w is not None)) for r in rows]
        coeff = fit_power_law(grid, scenario)
    result = {"scenario": scenario.value, "model": coeff.model, "c1": coeff.c1,
              "c2": coeff.c2, "c3": coeff.c3, "c4": coeff.c4,
              "residual": coeff.residual, "n_points": len(grid)}
    _emit(args, settings, tuple(result), [list(result.values())], {"fit": result})


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args):
    spec = distribution(args.distribution)
    scenario = Scenario.parse(args.scenario)
    methods = tuple(_method_name(m) for m in (args.methods or "").split(",")
                    if m.strip())
    config = SimulationConfig(
        distribution=spec, scenario=scenario, methods=methods,
        n_grid=_parse_grid(args.grid), replicates=args.reps, seed=args.seed)
    settings = {"distribution": args.distribution, "scenario": scenario.value,
                "methods": ",".join(config.methods), "grid": args.grid,
                "reps": args.reps, "seed": args.seed}
    report = run_rmse(config)
    fields = ("distribution", "scenario", "n", "method", "rmse",
              "mc_std_error", "replicates")
    rows = [[r.distribution, r.scenario, r.n, r.method, r.rmse,
             r.mc_std_error, r.replicates] for r in report.rows]
    _emit(args, settings, fields, rows)


# ---------------------------------------------------------------------------
# meta

def _cmd_meta(args):
    profile_mean, profile_sd = PROFILES[args.profile]
    mean_method = args.mean_method or profile_mean
    sd_method = args.sd_method or profile_sd
    settings = {"input": args.input or "<bundled table1.csv>",
                "profile": args.profile, "mean_method": mean_method,
                "sd_method": sd_method}
    with _reading():
        records = load_bundled_studies() if args.input is None \
            else read_study_csv(args.input)
        result = run_case_study(records, mean_method, sd_method)
    study_fields = ("index", "label", "n_cases", "n_controls")
    payload = result.to_dict()
    for record, effect in zip(records, payload["effects"]):
        effect.update({key: getattr(record, key) for key in study_fields})
    fields = (*study_fields, "d", "var_d", "weight", "ci_low", "ci_high")
    rows = [[*(getattr(record, key) for key in study_fields), effect.d, effect.var_d,
             effect.weight, *effect.ci95] for record, effect in zip(records, result.effects)]
    low, high = result.pooled_ci95
    stats = {"pooled_d": result.pooled_d, "pooled_ci_low": low, "pooled_ci_high": high,
             **{key: getattr(result, key)
                for key in ("q", "df", "p_value", "i_squared", "tau_squared")}}
    _emit(args, settings, fields, rows, {"result": payload},
          [f"# {key}={_fmt(value)}" for key, value in stats.items()])


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any float syntax, -1e+300 included, as a
    value after a space; argparse alone takes only -5 and -2.5 forms. Its
    subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optmean",
        description="Estimate sample means from five-number-summary fragments, "
                    "tabulate optimal weights, refit their approximations, run "
                    "RMSE simulations, and pool study effect sizes.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()
    scenarios = tuple(scenario.value for scenario in Scenario)

    def common(p, default_format="csv"):
        p.add_argument("--seed", type=int, default=seed,
                       help=f"RNG seed (default {seed}; env {SEED_ENV_VAR})")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.set_defaults(parser=p)

    def moment_flags(p, backend_help=None):
        p.add_argument("--backend", choices=("quad", "mc"), default="quad",
                       help=backend_help)
        p.add_argument("--reps", type=int, default=DEFAULT_WEIGHT_REPS)

    p = sub.add_parser("estimate", help="estimate a mean or SD from a summary")
    p.add_argument("--scenario", choices=scenarios)
    p.add_argument("--n", type=int)
    for column in _VALUE_COLUMNS:
        p.add_argument(f"--{column}", type=float)
    p.add_argument("--method", choices=_MEAN_METHODS + _SD_METHODS,
                   default="optimal-approx")
    p.add_argument("--weight", type=float, help="w1 for --method weighted")
    p.add_argument("--w2", type=float, help="w2 for --method weighted (s3)")
    moment_flags(p, "moment backend for --method optimal-exact")
    p.add_argument("--input", default=None,
                   help=f"batch mode: CSV of summaries ({','.join(_SUMMARY_COLUMNS)})")
    common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("weights", help="tabulate exact and approximate weights")
    p.add_argument("--scenario", required=True, choices=scenarios)
    p.add_argument("--n", type=int)
    p.add_argument("--grid", help="inclusive start:stop:step, e.g. 5:501:4")
    moment_flags(p)
    common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("fit", help="refit the power-law weight approximations")
    p.add_argument("--scenario", required=True, choices=scenarios)
    p.add_argument("--input", default=None,
                   help="weight-table CSV from `optmean weights`")
    p.add_argument("--grid", default="5:101:4",
                   help="grid to regenerate when --input is absent")
    moment_flags(p)
    common(p, default_format="json")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="relative-MSE comparison of estimators")
    p.add_argument("--distribution", required=True, choices=DISTRIBUTION_KINDS)
    p.add_argument("--scenario", required=True, choices=scenarios)
    p.add_argument("--methods", default=None,
                   help=f"comma list of {', '.join(METHODS)}; "
                        "default: control, legacy, optimal-approx")
    p.add_argument("--grid", default="5:101:4")
    p.add_argument("--reps", type=int, default=DEFAULT_SIM_REPS)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("meta", help="pool study effect sizes")
    p.add_argument("--input", default=None,
                   help="study CSV (default: the bundled seven-study table)")
    p.add_argument("--profile", choices=tuple(PROFILES), default="table3")
    p.add_argument("--mean-method", type=_method_name, choices=SUMMARY_METHODS,
                   default=None, help="override the profile's mean estimator")
    p.add_argument("--sd-method", choices=tuple(SD_METHODS), default=None)
    common(p)
    p.set_defaults(func=_cmd_meta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.mc_moments = {}
    try:
        args.func(args)
        return EXIT_OK
    except _InputError as exc:
        print(f"optmean {args.command}: input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # any other refused value came from a flag
        args.parser.error(str(exc))
    except OSError as exc:
        # input files are read under `_reading`, so this is the output
        print(f"optmean {args.command}: output error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, ArithmeticError) as exc:
        print(f"optmean {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # e.g. a sample size whose draws cannot be allocated
        print(f"optmean {args.command}: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
