"""Command-line interface.

Subcommands: estimate, weights, fit, simulate, meta. Every output's header
(its ``#`` lines, or the JSON ``config`` block) names each flag but
``--output`` and ``--format`` that has a value, with its effective value:
the header is the invocation that regenerates the output. Every command
names its seed; `meta` on the bundled table names no input. A flag the
chosen path would not read is refused, and the same flags give the same bytes.

Exit codes follow where a refused value came from: 0 success, 2 a flag
(usage error), 3 an ``--input`` file or the output, 4 a numerical failure
or an unallocatable draw. `main` alone maps an exception to its code.

A command loads only the modules it runs: `simulate` and `meta` import theirs
when called, so a process that runs neither does not pay for them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import platform
import re
import sys

import numpy
import scipy

from . import __version__
from ._table import cell_float, read_table
from .errors import FitConvergenceError, NumericalError
from .estimators import DISTRIBUTION_KINDS, METHODS, PROFILES, SD_METHODS, \
    SUMMARY_METHODS, FiveNumberSummary, estimate_mean, mean_weighted, sd_estimate
from .order_stats import SUMMARY_FIELDS, check_moment_domain, moments_mc, \
    moments_quadrature
from .weights import Scenario, WeightSet, approx_weight, fit_power_law, \
    optimal_weights

DEFAULT_SEED = 7081
SEED_ENV_VAR = "OPTMEAN_SEED"
DEFAULT_WEIGHT_REPS = 2_000_000
DEFAULT_FIT_GRID = "5:101:4"
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


def _refuse_unread(reader: str, given: dict):
    """Refuse the flags that ``given`` maps to True, which are read only ``reader``."""
    flags = [flag for flag, is_given in given.items() if is_given]
    if flags:
        raise ValueError(f"{', '.join(flags)}: read only {reader}")


def _header(args) -> dict:
    """Each flag of ``args`` but --output and --format that is not None."""
    flags = {action.dest for action in args.parser._actions} - {"output", "format"}
    return {k: v for k, v in vars(args).items() if k in flags and v is not None}


def _emit(args, fields, rows, document=None, footer=()):
    """Write the `_header` (each value by `str`, so ``--key=value`` reruns it),
    then the CSV table and its ``footer`` lines, or the JSON ``document``
    (default ``{"rows": [...]}``)."""
    config = _header(args)
    if args.format == "json":
        body = document or {"rows": [dict(zip(fields, row)) for row in rows]}
        text = json.dumps({"command": args.command, "version": __version__,
                           "config": {**config, "libraries": _LIBRARIES}, **body},
                          indent=2, sort_keys=True) + "\n"
    else:
        libraries = ", ".join(f"{name} {v}" for name, v in _LIBRARIES.items())
        buffer = io.StringIO()
        buffer.write(f"# optmean {__version__} {args.command} ({libraries})\n")
        buffer.writelines(f"# {key}={config[key]}\n" for key in sorted(config))
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


# ---------------------------------------------------------------------------
# estimate

_MEAN_METHODS = tuple(m.replace("_", "-") for m in SUMMARY_METHODS) + ("weighted",)
_SD_METHODS = tuple(f"{name}-sd" for name in SD_METHODS)

# the value flags and CSV columns, one per `SUMMARY_FIELDS` entry by position
_VALUE_COLUMNS = ("min", "q1", "median", "q3", "max")
_SUMMARY_COLUMNS = ("scenario", "n", *_VALUE_COLUMNS)


def _estimate_row(args, scenario, n, values) -> list:
    """The output row of one summary's estimate; ``values`` by `_VALUE_COLUMNS`."""
    summary = FiveNumberSummary(scenario=scenario, n=n,
                                **dict(zip(SUMMARY_FIELDS, values)))
    if args.method in _SD_METHODS:
        estimate = sd_estimate(summary, args.method.removesuffix("-sd"))
    elif args.method == "weighted":
        estimate = mean_weighted(summary, WeightSet(
            summary.scenario, summary.n, args.weight, args.w2, source="custom"))
    else:
        moments = _moments(args, summary.n) if args.method == "optimal-exact" else None
        estimate = estimate_mean(summary, _method_name(args.method), moments)
    ws = estimate.weight_set
    return [summary.scenario.value, summary.n, *summary.values(), estimate.method,
            estimate.value,
            *((None,) * 4 if ws is None else (ws.w1, ws.w2, ws.median_weight, ws.source))]


def _cmd_estimate(args):
    out_fields = list(_SUMMARY_COLUMNS) + [
        "method", "value", "w1", "w2", "median_weight", "weight_source"]
    # every flag is checked before an --input row is read
    if args.method == "optimal-exact":
        check_moment_domain((), args.reps)
    else:
        _refuse_unread("by --method optimal-exact",
                       {"--backend mc": args.backend == "mc"})
    if args.method == "weighted":
        if args.weight is None:
            raise ValueError("--method weighted requires --weight")
        # an S3 set, --w2 or 0, checks the rule every scenario's weights follow
        WeightSet(Scenario.S3, 5, args.weight, args.w2 or 0.0, source="custom")
    else:
        _refuse_unread("by --method weighted", {"--weight": args.weight is not None,
                                             "--w2": args.w2 is not None})
    given = [f"--{key}" for key in _SUMMARY_COLUMNS if getattr(args, key) is not None]
    if args.input is not None and given:
        raise ValueError(f"--input reads the summaries; drop {', '.join(given)}")
    if args.input is not None:
        # a row's values are read before its n, so a bad value is named first
        with _reading():
            rows = read_table(args.input, "summary", _SUMMARY_COLUMNS, lambda record: (
                _estimate_row(args, values=[cell_float(record[k]) for k in _VALUE_COLUMNS],
                              scenario=record["scenario"], n=int(record["n"]))))
        _emit(args, out_fields, rows)
        return
    if args.scenario is None or args.n is None:
        raise ValueError("--scenario and --n are required without --input")
    row = _estimate_row(args, args.scenario, args.n,
                        [getattr(args, column) for column in _VALUE_COLUMNS])
    _emit(args, out_fields, [row], {"result": dict(zip(out_fields, row))})


# ---------------------------------------------------------------------------
# weights

def _moments(args, n: int):
    if args.backend != "mc":
        return moments_quadrature(n)
    # one main() call has one --reps and one --seed, so a batch draws each n once
    if n not in args.mc_moments:
        args.mc_moments[n] = moments_mc(n, args.reps, args.seed)
    return args.mc_moments[n]


_WEIGHT_FIELDS = ("n", "scenario", "exact_w1", "exact_w2", "approx_w1",
                  "approx_w2", "backend", "std_error")


def _cmd_weights(args):
    scenario = Scenario.parse(args.scenario)
    if (args.n is None) == (args.grid is None):
        raise ValueError("give exactly one of --n or --grid")
    grid = (args.n,) if args.n is not None else _parse_grid(args.grid)
    check_moment_domain(grid, args.reps)
    rows = []
    for n in grid:
        moments = _moments(args, n)
        exact, approx = optimal_weights(moments, scenario), approx_weight(scenario, n)
        rows.append([n, scenario.value, exact.w1, exact.w2,
                     approx.w1, approx.w2, args.backend, moments.std_error])
    _emit(args, _WEIGHT_FIELDS, rows)


# ---------------------------------------------------------------------------
# fit

def _read_weight_table(path, scenario: Scenario):
    # one weight per reported part but the median
    weights = tuple(f"exact_w{k}" for k in range(1, len(scenario.parts)))

    def parse_row(record):
        if Scenario.parse(record["scenario"]) is not scenario:
            return None
        return (float(int(record["n"])), *(float(record[key]) for key in weights))
    grid = read_table(path, "weight-table", ("n", "scenario", *weights), parse_row)
    if not grid:
        raise ValueError(f"no rows for scenario {scenario.value} in {path}")
    return grid


def _cmd_fit(args):
    scenario = Scenario.parse(args.scenario)
    if args.input is not None:
        _refuse_unread("without --input", {"--grid": args.grid is not None,
                                           "--backend mc": args.backend == "mc"})
        args.backend = None
        with _reading():
            grid = _read_weight_table(args.input, scenario)
            coeff = fit_power_law(grid, scenario)
    else:
        args.grid = args.grid or DEFAULT_FIT_GRID
        grid_ns = _parse_grid(args.grid)
        check_moment_domain(grid_ns, args.reps)
        grid = [(n, *optimal_weights(_moments(args, n), scenario).part_weights[:-1])
                for n in grid_ns]
        coeff = fit_power_law(grid, scenario)
    result = {**vars(coeff), "scenario": scenario.value, "n_points": len(grid)}
    _emit(args, tuple(result), [list(result.values())], {"fit": result})


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args):
    from .simulation import RmseRow, SimulationConfig, distribution, run_rmse

    spec = distribution(args.distribution)
    scenario = Scenario.parse(args.scenario)
    methods = tuple(_method_name(m) for m in (args.methods or "").split(",")
                    if m.strip())
    config = SimulationConfig(
        distribution=spec, scenario=scenario, methods=methods,
        n_grid=_parse_grid(args.grid), replicates=args.reps, seed=args.seed)
    args.methods = ",".join(config.methods)
    report = run_rmse(config)
    _emit(args, [field.name for field in dataclasses.fields(RmseRow)],
          [dataclasses.astuple(row) for row in report.rows])


# ---------------------------------------------------------------------------
# meta

def _cmd_meta(args):
    from .meta import bundled_table1, read_study_csv, run_case_study

    args.mean_method = args.mean_method or PROFILES[args.profile][0]
    args.sd_method = args.sd_method or PROFILES[args.profile][1]
    # a bundled study the chosen methods cannot convert is the flags' fault
    with _reading() if args.input is not None else contextlib.nullcontext():
        records = read_study_csv(bundled_table1() if args.input is None else args.input)
        result = run_case_study(records, args.mean_method, args.sd_method)
    study_fields = ("index", "label", "n_cases", "n_controls")
    payload = result.to_dict()
    for record, effect in zip(records, payload["effects"]):
        effect.update({key: getattr(record, key) for key in study_fields})
    fields = (*study_fields, "d", "var_d", "weight", "ci_low", "ci_high")
    rows = [[*(effect[key] for key in fields[:-2]), *effect["ci95"]]
            for effect in payload["effects"]]
    low, high = result.pooled_ci95
    stats = {"pooled_d": result.pooled_d, "pooled_ci_low": low, "pooled_ci_high": high,
             **{key: getattr(result, key)
                for key in ("q", "df", "p_value", "i_squared", "tau_squared")}}
    _emit(args, fields, rows, {"result": payload},
          [f"# {key}={_fmt(value)}" for key, value in stats.items()])


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any float syntax, -1e+300 included, as a value
    after a space (argparse alone takes only -5 and -2.5), as do its subparsers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optmean", description="Estimate sample means from five-"
                     "number-summary fragments, tabulate optimal weights, refit their "
                     "approximations, run RMSE simulations, and pool study effect sizes.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()
    scenarios = tuple(scenario.value for scenario in Scenario)

    def common(p, func, default_format="csv"):
        p.add_argument("--seed", type=int, default=seed,
                       help=f"RNG seed (default {seed}; env {SEED_ENV_VAR})")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.set_defaults(func=func, parser=p)

    def moment_flags(p, backend_help=None):
        p.add_argument("--backend", choices=("quad", "mc"), default="quad",
                       help=backend_help)
        p.add_argument("--reps", type=int,
                       help=f"replicates of --backend mc (default {DEFAULT_WEIGHT_REPS})")

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
    common(p, _cmd_estimate)

    p = sub.add_parser("weights", help="tabulate exact and approximate weights")
    p.add_argument("--scenario", required=True, choices=scenarios)
    p.add_argument("--n", type=int)
    p.add_argument("--grid", help="inclusive start:stop:step, e.g. 5:501:4")
    moment_flags(p)
    common(p, _cmd_weights)

    p = sub.add_parser("fit", help="refit the power-law weight approximations")
    p.add_argument("--scenario", required=True, choices=scenarios)
    p.add_argument("--input", help="weight-table CSV from `optmean weights`")
    p.add_argument("--grid", help=f"grid without --input (default {DEFAULT_FIT_GRID})")
    moment_flags(p)
    common(p, _cmd_fit, default_format="json")

    p = sub.add_parser("simulate", help="relative-MSE comparison of estimators")
    p.add_argument("--distribution", required=True, choices=DISTRIBUTION_KINDS)
    p.add_argument("--scenario", required=True, choices=scenarios)
    p.add_argument("--methods", default=None,
                   help=f"comma list of {', '.join(METHODS)}; "
                        "default: control, legacy, optimal-approx")
    p.add_argument("--grid", default="5:101:4")
    p.add_argument("--reps", type=int, default=DEFAULT_SIM_REPS)
    common(p, _cmd_simulate)

    p = sub.add_parser("meta", help="pool study effect sizes")
    p.add_argument("--input", help="study CSV (default: the bundled seven-study table)")
    p.add_argument("--profile", choices=tuple(PROFILES), default="table3")
    p.add_argument("--mean-method", type=_method_name, choices=SUMMARY_METHODS,
                   default=None, help="override the profile's mean estimator")
    p.add_argument("--sd-method", choices=tuple(SD_METHODS), default=None)
    common(p, _cmd_meta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.mc_moments = {}
    try:
        if abs(args.seed) > sys.float_info.max:  # every header prints it, as a number
            raise ValueError(f"--seed must be finite as a float, got {args.seed}")
        for key, value in _header(args).items():  # a header line holds one value
            text = str(value)
            if text.splitlines() not in ([], [text]):
                raise ValueError(f"--{key.replace('_', '-')} must hold no line break, "
                                 f"got {text!r}")
        if getattr(args, "backend", None) == "mc":  # the moment flags' --reps
            args.reps = DEFAULT_WEIGHT_REPS if args.reps is None else args.reps
        elif hasattr(args, "backend"):
            _refuse_unread("by --backend mc", {"--reps": args.reps is not None})
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
