"""Regenerate ``tests/data/corpus.json``, the CLI byte-identity corpus.

    PYTHONPATH=src python tests/make_corpus.py

Each entry is one ``optmean`` argv with the exit code and exact stdout it
gave, and for a refusal its stderr too. The ``--input`` files are stored in
the corpus and read by a relative path from the working directory, so the
``# input=`` headers do not depend on where the corpus was made.
`tests/test_corpus.py` replays every entry through `cli.main` and compares.
The corpus is the contract of a change that must not move any output:
regenerate it only for a change that is meant to. Such a change bumps
``optmean.__version__``: under the library versions the corpus was made
with, this script refuses to write (exit 1, naming the moved entries) when a
stored entry's exit code, stdout or stderr moved while the package still
prints the stored version. New entries are appended at the end of `ARGVS`, so
the stored entries keep their place.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile

import numpy
import scipy

from optmean import __version__, cli
from optmean.meta import bundled_table1

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "corpus.json")

# argparse wraps its usage lines to the terminal width
COLUMNS = "80"

STUDIES = bundled_table1().read_text(encoding="utf-8")
SUMMARIES = {
    "s1.csv": "scenario,n,min,q1,median,q3,max\n"
              "s1,5,1.5,,4.25,,9.0\ns1,25,2.25,,16.0,,74.25\ns1,41,-3.5,,0.75,,6.0\n",
    "s2.csv": "scenario,n,min,q1,median,q3,max\n"
              "s2,9,,1.0,2.0,3.5,\ns2,25,,10.5,14.0,19.25,\ns2,41,,-2.0,0.5,1.25,\n",
    "s3.csv": "scenario,n,min,q1,median,q3,max\n"
              "s3,5,0.5,1.0,2.0,3.5,8.0\ns3,29,1.0,4.5,6.0,9.0,20.0\n"
              "s3,41,-7.0,-1.5,0.25,2.0,6.5\n",
}
INPUTS = {
    **SUMMARIES,
    "mixed.csv": SUMMARIES["s1.csv"] + "".join(
        SUMMARIES[name].split("\n", 1)[1] for name in ("s2.csv", "s3.csv")),
    "bad_row.csv": "scenario,n,min,q1,median,q3,max\n"
                   "s1,25,2.25,,16.0,,74.25\ns1,4,2.25,,16.0,,74.25\n",
    "studies.csv": STUDIES,
    "bad_studies.csv": STUDIES.replace(
        "1,Davies 1985,40,40,fivenum,s1,", "1,Davies 1985,40,40,fivenum,,"),
    "weights.json": '{"rows": []}\n',
    "nl\nname.csv": SUMMARIES["s1.csv"],
}

# the fit input is the weight table that `weights` writes
WEIGHT_TABLE_ARGV = ["weights", "--scenario", "s3", "--grid", "5:41:4"]

ESTIMATE_FLAGS = {
    "s1": ["--scenario", "s1", "--n", "25", "--min", "2.25", "--median", "16",
           "--max", "74.25"],
    "s2": ["--scenario", "s2", "--n", "25", "--q1", "10.5", "--median", "14",
           "--q3", "19.25"],
    "s3": ["--scenario", "s3", "--n", "29", "--min", "1", "--q1", "4.5",
           "--median", "6", "--q3", "9", "--max", "20"],
}

# (method, scenario, extra flags); each runs on its scenario's flags and file
ESTIMATE_RUNS = [
    ("hozo", "s1", []),
    ("hozo-as-applied", "s1", []),
    ("wan", "s2", []),
    ("bland", "s3", []),
    ("optimal-approx", "mixed", []),
    ("optimal-exact", "mixed", []),
    ("optimal-exact", "s2", ["--backend", "mc", "--reps", "10000"]),
    ("weighted", "s1", ["--weight", "0.25"]),
    ("weighted", "s3", ["--weight", "0.2", "--w2", "0.5"]),
    ("wan-sd", "s3", []),
    ("hozo-sd", "s1", []),
]


def _estimate_argvs():
    argvs = []
    for k, (method, scenario, extra) in enumerate(ESTIMATE_RUNS):
        fmt = ["--format", "json"] if k % 2 else []
        flags = ESTIMATE_FLAGS["s3" if scenario == "mixed" else scenario]
        argvs.append(["estimate", *flags, "--method", method, *extra, *fmt])
        argvs.append(["estimate", "--input", f"{scenario}.csv", "--method", method,
                      *extra, *(["--format", "json"] if not k % 2 else [])])
    return argvs


ARGVS = [
    # weights: quadrature at n <= 41, Monte Carlo at 10^4 replicates
    ["weights", "--scenario", "s1", "--grid", "5:41:4"],
    ["weights", "--scenario", "s2", "--n", "25", "--format", "json"],
    ["weights", "--scenario", "s3", "--grid", "5:41:36", "--format", "json"],
    ["weights", "--scenario", "s1", "--n", "9", "--backend", "mc", "--reps", "10000",
     "--seed", "11"],
    ["weights", "--scenario", "s3", "--n", "13", "--backend", "mc", "--reps", "10000",
     "--format", "json"],
    # fit: regenerated grid and weight-table input
    ["fit", "--scenario", "s1", "--grid", "5:41:4"],
    ["fit", "--scenario", "s2", "--grid", "5:41:4", "--format", "csv"],
    ["fit", "--scenario", "s3", "--input", "weights.csv"],
    ["fit", "--scenario", "s3", "--input", "weights.csv", "--format", "csv"],
    # simulate: every distribution at 1,000-2,000 replicates
    ["simulate", "--distribution", "normal", "--scenario", "s1", "--grid", "5:21:8",
     "--reps", "2000"],
    ["simulate", "--distribution", "lognormal", "--scenario", "s2", "--grid", "5:21:8",
     "--reps", "1500", "--format", "json"],
    ["simulate", "--distribution", "beta", "--scenario", "s3", "--grid", "5:21:16",
     "--reps", "1000", "--seed", "3"],
    ["simulate", "--distribution", "exponential", "--scenario", "s1", "--grid", "9:9:4",
     "--reps", "2000", "--methods", "sample_mean,hozo,optimal_approx,optimal_exact",
     "--format", "json"],
    ["simulate", "--distribution", "weibull", "--scenario", "s3", "--grid", "5:13:8",
     "--reps", "1000"],
    # meta: both profiles, a study file and the method overrides
    ["meta", "--profile", "table2"],
    ["meta", "--profile", "table3", "--format", "json"],
    ["meta", "--input", "studies.csv", "--profile", "table2", "--format", "json"],
    ["meta", "--input", "studies.csv", "--mean-method", "hozo", "--sd-method", "wan"],
    ["meta", "--mean-method", "optimal-exact", "--format", "json"],
    # estimate: every method, on flags and on an --input file
    *_estimate_argvs(),
    # refusals: exit 2 for a flag, exit 3 for an --input file
    ["estimate", "--n", "25", "--min", "1", "--median", "2", "--max", "3"],
    ["estimate", "--scenario", "s1", "--n", "25", "--min", "1", "--max", "3"],
    ["estimate", "--scenario", "s1", "--n", "25", "--min", "1", "--median", "2",
     "--max", "3", "--method", "weighted"],
    ["estimate", "--scenario", "s2", "--n", "25", "--q1", "1", "--median", "2",
     "--q3", "3", "--method", "hozo"],
    ["weights", "--scenario", "s1", "--n", "6"],
    ["weights", "--scenario", "s1", "--n", "505"],
    ["weights", "--scenario", "s1", "--n", "9", "--backend", "mc", "--reps", "100"],
    ["weights", "--scenario", "s4", "--n", "9"],
    ["fit", "--scenario", "s1", "--grid", "5:9:4"],
    ["simulate", "--distribution", "normal", "--scenario", "s1", "--reps", "10"],
    ["simulate", "--distribution", "cauchy", "--scenario", "s1"],
    ["estimate", "--input", "missing.csv"],
    ["estimate", "--input", "bad_row.csv", "--format", "json"],
    ["estimate", "--input", "s2.csv", "--method", "hozo"],
    ["fit", "--scenario", "s1", "--input", "weights.json"],
    ["fit", "--scenario", "s1", "--input", "weights.csv"],
    ["meta", "--input", "bad_studies.csv"],
    ["meta", "--profile", "table9"],
    # exit 2 for a header value with a line break, before its rows are read
    ["estimate", "--input", "nl\nname.csv"],
    # exit 2 for a method named twice, before any draw
    ["simulate", "--distribution", "normal", "--scenario", "s1", "--grid", "5:9:4",
     "--reps", "1000", "--methods", "hozo,hozo"],
]


def run(argv) -> tuple[int, str, str]:
    """`cli.main` on ``argv`` in the working directory: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# the package version in an optmean CSV's first line or a JSON document
_VERSION = re.compile(r'^# optmean (\S+) |^  "version": "([^"]+)"', re.MULTILINE)


# what an entry holds of its argv's run; a success has no "stderr"
_OUTCOME = ("exit", "stdout", "stderr")


def moved_under_stored_version(stored, entries, inputs) -> list:
    """Each argv whose exit code, stdout or stderr moved from the ``stored``
    corpus, with the parts that moved (and each moved input's name), if the
    package still prints a version the stored outputs print; empty otherwise."""
    versions = {a or b for entry in stored["entries"]
                for a, b in _VERSION.findall(entry["stdout"])}
    if __version__ not in versions:
        return []
    before = {tuple(entry["argv"]): entry for entry in stored["entries"]}
    moved = []
    for entry in entries:
        old = before.get(tuple(entry["argv"]), entry)
        parts = [part for part in _OUTCOME if old.get(part) != entry.get(part)]
        if parts:
            moved.append(f"{' '.join(entry['argv'])} ({', '.join(parts)})")
    return [*moved, *(f"input {name}" for name, text in inputs.items()
                      if stored["inputs"].get(name, text) != text)]


def write_inputs(directory, inputs) -> None:
    for name, text in inputs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(text)


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    os.environ.pop(cli.SEED_ENV_VAR, None)
    inputs = dict(INPUTS)
    entries = []
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        code, inputs["weights.csv"], _ = run(WEIGHT_TABLE_ARGV)
        assert code == cli.EXIT_OK
        write_inputs(directory, inputs)
        for argv in ARGVS:
            code, out, err = run(argv)
            entry = {"argv": argv, "exit": code, "stdout": out}
            if code != cli.EXIT_OK:
                entry["stderr"] = err
            elif err:
                raise AssertionError(f"{argv} succeeded with stderr {err!r}")
            entries.append(entry)
    corpus = {"made_under": {"python": platform.python_version(),
                             "numpy": numpy.__version__, "scipy": scipy.__version__},
              "inputs": inputs, "entries": entries}
    if os.path.exists(CORPUS):
        with open(CORPUS, encoding="utf-8") as handle:
            stored = json.load(handle)
        # other library versions may move the last bits of a number
        moved = stored["made_under"] == corpus["made_under"] and \
            moved_under_stored_version(stored, entries, inputs)
        if moved:
            sys.exit(f"output moved under the stored version {__version__}; bump "
                     f"optmean.__version__ to regenerate:\n  " + "\n  ".join(moved))
    with open(CORPUS, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=1)
        handle.write("\n")
    codes = sorted({entry["exit"] for entry in entries})
    print(f"wrote {len(entries)} entries (exit codes {codes}) to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
