"""Byte identity of the CLI against the stored corpus ``tests/data/corpus.json``.

Every entry replays one argv through `cli.main` in a temporary working
directory holding the corpus's ``--input`` files, and must give the stored
exit code and stdout (and, for a refusal, stderr) byte for byte. Where the
running python, numpy or scipy version differs from the one the corpus was
made under, the version header and the JSON ``libraries`` block are masked,
every number is compared within `RTOL` and `ATOL` (a library's special
functions may move the last bits), and stderr is compared by its last line
(argparse's usage lines may wrap differently). `make_corpus.py` regenerates
the corpus, and refuses to when a stored entry moved under the stored
version. Every successful entry's header also reruns it: the flags its ``#``
lines or JSON ``config`` block name, with its ``--format``, give the same
stdout.
"""

import copy
import itertools
import json
import math
import platform
import re

import numpy
import pytest
import scipy

from make_corpus import CORPUS, COLUMNS, moved_under_stored_version, run, write_inputs
from optmean import __version__
from optmean.cli import SEED_ENV_VAR

with open(CORPUS, encoding="utf-8") as _handle:
    CORPUS_DATA = json.load(_handle)

RUNNING = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
SAME_LIBRARIES = CORPUS_DATA["made_under"] == RUNNING

RTOL = 1e-6
ATOL = 1e-12

_LIBRARIES = re.compile(r'\(python [^)]*\)|"libraries": \{[^}]*\}')
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def matches(want: str, got: str, exact: bool) -> bool:
    """``got`` equals ``want``; unless ``exact``, with the library versions
    masked and each number within `RTOL` and `ATOL`."""
    if exact:
        return got == want
    want, got = _LIBRARIES.sub("<libraries>", want), _LIBRARIES.sub("<libraries>", got)
    if _NUMBER.split(want) != _NUMBER.split(got):
        return False
    pairs = zip(_NUMBER.findall(want), _NUMBER.findall(got))
    return all(a == b or math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
               for a, b in pairs)


def _last_line(text: str) -> str:
    return text.rstrip("\n").rpartition("\n")[2]


@pytest.mark.parametrize("entry", CORPUS_DATA["entries"], ids=[
    f"{k:02d}-{entry['argv'][0]}" for k, entry in enumerate(CORPUS_DATA["entries"])])
def test_cli_output_matches_corpus(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    write_inputs(tmp_path, CORPUS_DATA["inputs"])
    code, out, err = run(entry["argv"])
    assert code == entry["exit"]
    assert matches(entry["stdout"], out, SAME_LIBRARIES), out
    if SAME_LIBRARIES:
        assert err == entry.get("stderr", "")
    else:
        assert _last_line(err) == _last_line(entry.get("stderr", ""))


def header_argv(stdout: str) -> list:
    """The argv that an output's header names: its command, then ``--key=value``
    for each ``# key=value`` line between the version line and the column row
    (or each JSON ``config`` entry but ``libraries``), then its ``--format``."""
    if stdout.startswith("{"):
        document = json.loads(stdout)
        command, fmt = document["command"], "json"
        config = {k: str(v) for k, v in document["config"].items() if k != "libraries"}
    else:
        first, *lines = stdout.splitlines()
        command, fmt = first.split()[3], "csv"
        header = [line[2:] for line in itertools.takewhile(
            lambda line: line.startswith("# "), lines)]
        config = dict(line.split("=", 1) for line in header)
    return [command, *(f"--{k.replace('_', '-')}={v}" for k, v in config.items()),
            "--format", fmt]


SUCCEEDED = {f"{k:02d}-{entry['argv'][0]}": entry
             for k, entry in enumerate(CORPUS_DATA["entries"]) if entry["exit"] == 0}


@pytest.mark.parametrize("entry", SUCCEEDED.values(), ids=SUCCEEDED.keys())
def test_header_reruns_the_output(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    write_inputs(tmp_path, CORPUS_DATA["inputs"])
    code, out, err = run(header_argv(entry["stdout"]))
    assert (code, err) == (0, "")
    assert matches(entry["stdout"], out, SAME_LIBRARIES), out


def test_corpus_covers_every_command_format_and_refusal():
    entries = CORPUS_DATA["entries"]
    seen = {(e["argv"][0], "json" if e["stdout"].startswith("{") else "csv")
            for e in entries if e["exit"] == 0}
    commands = ("estimate", "weights", "fit", "simulate", "meta")
    assert seen == {(c, f) for c in commands for f in ("csv", "json")}
    assert {e["exit"] for e in entries} == {0, 2, 3}


class TestMaskedComparison:
    """The comparison used when the running library versions differ."""

    WANT = ('# optmean 0.1.0 weights (python 3.11.7, numpy 2.4.6, scipy 1.17.1)\n'
            'n,exact_w1\n5,0.551626219\n')

    def test_versions_and_last_digits_are_forgiven(self):
        got = self.WANT.replace("3.11.7", "3.12.1").replace("0.551626219", "0.5516262191")
        assert matches(self.WANT, got, exact=False)
        assert not matches(self.WANT, got, exact=True)

    def test_json_libraries_block_is_masked(self):
        want = '"libraries": {\n  "numpy": "2.4.6"\n},\n"value": 2.5\n'
        assert matches(want, want.replace("2.4.6", "1.26.4"), exact=False)

    @pytest.mark.parametrize("old, new", [
        ("0.551626219", "0.5516"), ("weights", "weight"), ("5,", "9,")])
    def test_a_moved_number_or_word_is_not(self, old, new):
        assert not matches(self.WANT, self.WANT.replace(old, new), exact=False)


class TestMovedUnderStoredVersion:
    """`make_corpus.py` names each entry whose exit code, stdout or stderr
    moved while the package prints the stored version, and none after a bump."""

    @staticmethod
    def stored(version=__version__):
        return {"inputs": {"s1.csv": "scenario,n\n"}, "entries": [
            {"argv": ["weights", "--n", "9"], "exit": 0,
             "stdout": f"# optmean {version} weights (python 3.11.7)\nn\n9\n"},
            {"argv": ["weights", "--n", "6"], "exit": 2, "stdout": "",
             "stderr": "usage: optmean weights\nerror: n=6\n"},
        ]}

    def rerun(self, entry, part, value):
        entries = copy.deepcopy(self.stored()["entries"])
        entries[entry][part] = value
        return entries

    @pytest.mark.parametrize("entry, part, value, named", [
        (0, "stdout", f"# optmean {__version__} weights (python 3.11.7)\nn\n8\n",
         "weights --n 9 (stdout)"),
        (1, "stderr", "usage: optmean weights\nerror: n=6 is refused\n",
         "weights --n 6 (stderr)"),
        (1, "exit", 3, "weights --n 6 (exit)"),
    ])
    def test_a_moved_part_is_named(self, entry, part, value, named):
        stored = self.stored()
        entries = self.rerun(entry, part, value)
        assert moved_under_stored_version(stored, entries, stored["inputs"]) == [named]

    def test_nothing_is_named_after_a_bump_or_when_nothing_moved(self):
        stored = self.stored()
        assert moved_under_stored_version(stored, stored["entries"], stored["inputs"]) == []
        bumped = self.stored(version="0.0.1")
        assert moved_under_stored_version(
            bumped, self.rerun(1, "exit", 3), bumped["inputs"]) == []
