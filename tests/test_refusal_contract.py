"""Refusal contract: any finite input gets a clean answer or a documented refusal.

For generated `estimate` flag inputs and `--input` summary tables (every
method), `meta` study rows of every payload kind (fivenum and meanrange under
both profiles), `fit --input` weight tables, and the `--grid`, `--reps`,
`--seed` and `--n` flags of `weights`, `simulate` and `fit`, `main` must not
raise; it exits 0 with well-formed output holding no inf or nan, or exits 2
(usage) or 3 (input data) with its message on a line that starts with
``optmean `` (argparse puts its usage lines before it; a `meta` conversion
error lists the studies after it, one indented line each). An `estimate` run
answers the same whether a value follows its flag after ``=`` or after a
space.

Every generated run is cheap: grids of a few sizes of at most 41 and at
most 20,000 replicates, or a size, grid or replicate count so large that it
is refused before any work.
"""

import csv
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from optmean.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _MEAN_METHODS, _SD_METHODS, \
    main
from optmean.estimators import METHODS, SD_METHODS
from optmean.meta import PROFILES
from optmean.simulation import DISTRIBUTION_KINDS
from optmean.weights import Scenario, approx_weight

CONTRACT = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def mostly(usual, rare):
    """Draw from ``usual`` three times in four and from ``rare`` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: usual if k else rare)


# finite floats, mostly moderate, else anywhere in the float range including
# its ends, subnormals and signed zeros
FINITE = mostly(st.floats(min_value=-1e6, max_value=1e6), st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, -0.0, 0.0])))
SIZES = mostly(st.integers(min_value=5, max_value=10**6),
               st.sampled_from([-2, 2, 4, 10**154, 10**308, 10**400]))
WELL_FORMED = mostly(st.just(True), st.just(False))
VALUE_FLAGS = ("--min", "--q1", "--median", "--q3", "--max")
# the positions of the summary values each scenario reports
SCENARIO_FIELDS = {"s1": (0, 2, 4), "s2": (1, 2, 3), "s3": range(5)}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"JSON output holds {name}")


def check_contract(argv):
    """Run ``argv`` under the contract; returns its exit code and stdout."""
    code, out, err = run(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (argv, code, err)
    if code != EXIT_OK:
        assert out == ""
        message = [line for line in err.splitlines() if not line.startswith(" ")]
        assert message and message[-1].startswith("optmean "), (argv, err)
        return code, out
    if "json" in argv:
        json.loads(out, parse_constant=_refuse_constant)
    else:
        table = list(csv.reader(line for line in out.splitlines()
                                if not line.startswith("#")))
        assert len(table) >= 2 and all(len(row) == len(table[0]) for row in table)
    for line in out.splitlines():
        for token in line.replace("=", ",").replace(":", ",").split(","):
            try:
                value = float(token.strip().strip('"'))
            except ValueError:
                continue
            assert math.isfinite(value), (argv, line)
    return code, out


def _scenarios(method):
    """The scenarios ``estimate --method`` applies to."""
    if method.endswith("-sd"):
        row = SD_METHODS[method.removesuffix("-sd")]
    else:
        row = METHODS.get(method.replace("-", "_"))  # None: weighted
    return sorted(s.value for s in (Scenario if row is None else row.scenarios))


@st.composite
def summary_fields(draw, method):
    """``(well_formed, scenario, n, {position: value})`` of one summary for
    ``estimate --method``: mostly a scenario the method applies to, with its
    own fields in order, sometimes any scenario, any subset and any order."""
    well_formed = draw(WELL_FORMED)
    scenario = draw(st.sampled_from(_scenarios(method) if well_formed
                                    else ["s1", "s2", "s3"]))
    n = draw(st.sampled_from([5, 9, 13]) if method == "optimal-exact" else SIZES)
    values = draw(st.lists(FINITE, min_size=5, max_size=5))
    if draw(WELL_FORMED):
        values.sort()
    present = SCENARIO_FIELDS[scenario] if draw(WELL_FORMED) \
        else [k for k in range(5) if draw(st.booleans())]
    return well_formed, scenario, n, {k: values[k] for k in present}


@st.composite
def method_flags(draw, method, scenario, well_formed):
    """The flags of an `estimate` run besides its summary."""
    argv = ["--method", method]
    if method == "weighted":
        count = (2 if scenario == "s3" else 1) if well_formed else draw(st.integers(0, 2))
        weights = draw(st.lists(mostly(st.floats(0.0, 0.5), FINITE),
                                min_size=count, max_size=count))
        argv += [f"{flag}={w!r}" for flag, w in zip(("--weight", "--w2"), weights)]
    if method == "optimal-exact" and draw(st.booleans()):
        argv += ["--backend", "mc", "--reps", "10000"]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


@st.composite
def estimate_argv(draw, method):
    well_formed, scenario, n, values = draw(summary_fields(method))
    argv = ["estimate", "--scenario", scenario, "--n", str(n)]
    argv += [f"{VALUE_FLAGS[k]}={v!r}" for k, v in values.items()]
    return argv + draw(method_flags(method, scenario, well_formed))


@pytest.mark.parametrize("method", _MEAN_METHODS + _SD_METHODS)
@CONTRACT
@given(data=st.data())
def test_estimate(method, data):
    argv = data.draw(estimate_argv(method))
    result = check_contract(argv)
    # a negative value such as -1e+300 after a space is a value, not an option
    spaced = [part for arg in argv for part in arg.split("=", 1)]
    assert run(spaced)[:2] == result, (argv, spaced)


def check_table(command, header, rows, options):
    """Run ``command --input`` on a CSV of ``header`` and ``rows`` under the
    contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header + "\n".join(rows) + "\n")
        return check_contract([command, "--input", path, *options])


@pytest.mark.parametrize("method", _MEAN_METHODS + _SD_METHODS)
@CONTRACT
@given(data=st.data())
def test_estimate_input(method, data):
    summaries = [data.draw(summary_fields(method))
                 for _ in range(data.draw(mostly(st.integers(1, 2), st.just(3))))]
    rows = [",".join([scenario, str(n), *(repr(values[k]) if k in values else ""
                                          for k in range(5))])
            for _, scenario, n, values in summaries]
    well_formed, scenario, _, _ = summaries[0]
    check_table("estimate", "scenario,n,min,q1,median,q3,max\n", rows,
                data.draw(method_flags(method, scenario, well_formed)))


STUDY_HEADER = ("index,label,n_cases,n_controls,payload_type,"
                "f01,f02,f03,f04,f05,f06,f07,f08,f09,f10,f11,note\n")


def _profile_scenarios(profile):
    """The scenarios both of a `meta` profile's estimators apply to."""
    mean_method, sd_method = PROFILES[profile]
    return sorted(s.value for s in
                  METHODS[mean_method].scenarios & SD_METHODS[sd_method].scenarios)


@st.composite
def study_fields(draw, kind, profile):
    """One study's f-columns of payload ``kind``, mostly well-formed (for
    ``profile``'s estimators)."""
    if kind == "fivenum":
        # a scenario and two arms of five values; a well-formed study has the
        # scenario's fields, moderate and in order (a run holds up to three
        # studies, and one bad study refuses it), else each part is drawn as
        # `estimate_argv` draws it
        well_formed = draw(WELL_FORMED)
        scenario = draw(st.sampled_from(_profile_scenarios(profile) if well_formed
                                        else ["s1", "s2", "s3"]))
        present = SCENARIO_FIELDS[scenario] if well_formed or draw(WELL_FORMED) \
            else [k for k in range(5) if draw(st.booleans())]
        values = st.floats(min_value=-1e6, max_value=1e6) if well_formed else FINITE
        arms = [draw(st.lists(values, min_size=5, max_size=5)) for _ in range(2)]
        if well_formed or draw(WELL_FORMED):
            arms = [sorted(arm) for arm in arms]
        return [scenario, *(repr(v) if k in present else ""
                            for arm in arms for k, v in enumerate(arm))]
    width = {"meansd": 4, "or": 3, "meanrange": 6}[kind]
    values = [draw(FINITE) for _ in range(width)]
    if draw(WELL_FORMED):  # positive SDs, positive and ordered OR bounds, or
        # each arm's mean inside its range
        if kind == "or":
            values = [abs(values[0]), *sorted(map(abs, values[1:]))]
        elif kind == "meansd":
            values = [abs(v) if k % 2 else v for k, v in enumerate(values)]
        else:
            values = [v for arm in (values[:3], values[3:])
                      for v in (sorted(arm)[1], min(arm), max(arm))]
    return [repr(v) for v in values]


@st.composite
def study_rows(draw, kind, profile="table3"):
    rows = []
    for index in range(1, draw(mostly(st.integers(2, 3), st.just(1))) + 1):
        values = draw(study_fields(kind, profile))
        # summaries need n >= 5, and a range alone gives a Hozo SD only above 15
        valid = {"fivenum": st.integers(5, 10**6), "meanrange": st.integers(16, 10**6)}
        sizes = mostly(valid[kind], SIZES) if kind in valid else SIZES
        n_cases, n_controls = draw(sizes), draw(sizes)
        rows.append(",".join([str(index), f"s{index}", str(n_cases), str(n_controls),
                              kind, *values, *[""] * (11 - len(values)), ""]))
    return rows


@pytest.mark.parametrize("kind", ["meansd", "or"])
@CONTRACT
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_meta(kind, data, fmt):
    check_table("meta", STUDY_HEADER, data.draw(study_rows(kind)), ["--format", fmt])


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("kind", ["fivenum", "meanrange"])
@CONTRACT
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_meta_summaries(kind, profile, data, fmt):
    check_table("meta", STUDY_HEADER, data.draw(study_rows(kind, profile)),
                ["--profile", profile, "--format", fmt])


HUGE = 10**400 + 1
# sizes of the form 4Q+1 up to 41, else ones refused before any work: not of
# that form, or with windows past the Philox counter space at any replicate count
SMALL_SIZES = mostly(st.integers(1, 10).map(lambda q: 4 * q + 1),
                     st.sampled_from([-1, 0, 2, 6, 40, 10**154 + 1, HUGE]))
# at most 20,000 replicates, else too few or past the counter space
REPS = mostly(st.integers(1_000, 20_000), st.sampled_from([-1, 0, 2**63, 10**400]))
SEEDS = mostly(st.integers(0, 2**32), st.sampled_from([-1, 2**64, 10**400]))
ODD_GRIDS = ["5:9", "5:9:4:4", "x:9:4", f"5:{10**30}:4", f"{HUGE}:{HUGE}:4",
             f"5:{HUGE}:{10**399}", "5:1" + "0" * 5000 + ":4"]
SCENARIOS = st.sampled_from(["s1", "s2", "s3"])
FORMATS = st.sampled_from(["csv", "json"])


@st.composite
def grids(draw, most):
    """``--grid`` text: mostly at most ``most`` sizes of at most 41, of the form
    4Q+1 when well-formed, else a malformed or huge grid."""
    count = draw(st.integers(1, most))
    if draw(WELL_FORMED):  # count sizes from 5 up to 41
        step = 4 * draw(st.integers(1, 9 // max(1, count - 1)))
        start = 4 * draw(st.integers(1, 10 - step // 4 * (count - 1))) + 1
    else:
        start, step = draw(st.integers(-3, 41)), draw(st.integers(-2, 20))
    stop = min(start + step * (count - 1), 41)
    return draw(mostly(st.just(f"{start}:{stop}:{step}"), st.sampled_from(ODD_GRIDS)))


@st.composite
def moment_flags(draw):
    """A scenario, a moment backend, ``--reps``, ``--seed`` and a format."""
    return ["--scenario", draw(SCENARIOS), "--backend", draw(st.sampled_from(["quad", "mc"])),
            "--reps", str(draw(REPS)), "--seed", str(draw(SEEDS)), "--format", draw(FORMATS)]


@CONTRACT
@given(data=st.data())
def test_weights_flags(data):
    # --grid or --n, sometimes both
    argv = ["weights"]
    if data.draw(st.booleans()):
        argv += ["--grid", data.draw(grids(3))]
    if "--grid" not in argv or not data.draw(WELL_FORMED):
        argv += ["--n", str(data.draw(SMALL_SIZES))]
    check_contract(argv + data.draw(moment_flags()))


@CONTRACT
@given(data=st.data())
def test_fit_flags(data):
    # a fit needs four sizes, so its grids run to ten
    check_contract(["fit", "--grid", data.draw(grids(10)), *data.draw(moment_flags())])


@st.composite
def quad_flags(draw):
    """A scenario, ``--backend quad`` or no backend, ``--seed`` and a format:
    `moment_flags` always gives ``--reps``, which quadrature refuses."""
    backend = draw(st.sampled_from([[], ["--backend", "quad"]]))
    return ["--scenario", draw(SCENARIOS), *backend, "--seed", str(draw(SEEDS)),
            "--format", draw(FORMATS)]


@CONTRACT
@given(data=st.data())
def test_weights_quad_flags(data):
    argv = ["weights"]
    if data.draw(st.booleans()):
        argv += ["--grid", data.draw(grids(3))]
    if "--grid" not in argv or not data.draw(WELL_FORMED):
        argv += ["--n", str(data.draw(SMALL_SIZES))]
    check_contract(argv + data.draw(quad_flags()))


@CONTRACT
@given(data=st.data())
def test_fit_quad_flags(data):
    check_contract(["fit", "--grid", data.draw(grids(10)), *data.draw(quad_flags())])


@CONTRACT
@given(data=st.data())
def test_simulate_flags(data):
    check_contract(["simulate", "--distribution",
                    data.draw(st.sampled_from(DISTRIBUTION_KINDS)),
                    "--scenario", data.draw(SCENARIOS), "--grid", data.draw(grids(3)),
                    "--reps", str(data.draw(REPS)), "--seed", str(data.draw(SEEDS)),
                    "--format", data.draw(FORMATS)])


@st.composite
def weight_rows(draw, scenario):
    """Weight-table rows: mostly sizes of the form 4Q+1 up to 501, in order,
    with their approximate weights scaled by up to 1% (which a power law
    mostly follows), else any sizes, scenarios and finite weights."""
    rows = []
    for _ in range(draw(mostly(st.integers(4, 8), st.integers(0, 3)))):
        if draw(WELL_FORMED):
            n = 4 * draw(st.integers(1, 125)) + 1
            weights = [w * draw(st.floats(0.99, 1.01))
                       for w in approx_weight(scenario, n).part_weights[:-1]]
            rows.append((n, scenario, weights))
        else:
            rows.append((draw(SIZES), draw(SCENARIOS),
                         [draw(FINITE) for _ in range(2)]))
    if draw(WELL_FORMED):
        rows.sort()
    return [",".join([str(n), s, *map(repr, w), *[""] * (2 - len(w))])
            for n, s, w in rows]


@pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
@CONTRACT
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_fit_input(scenario, data, fmt):
    check_table("fit", "n,scenario,exact_w1,exact_w2\n",
                data.draw(weight_rows(Scenario(scenario))),
                ["--scenario", scenario, "--format", fmt])
