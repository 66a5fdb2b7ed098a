"""The one table format and opener: every ``--input`` CSV, both data files."""

from __future__ import annotations

import csv
import math
import os
import re
from importlib import resources
from typing import Optional

_UNDECODED = re.compile("[\udc80-\udcff]")  # a non-UTF-8 byte under surrogateescape


def packaged(name: str):
    """The packaged data file ``data/<name>``, a `read_table` source."""
    return resources.files("optmean").joinpath(f"data/{name}")


def read_table(source, what: str, columns: tuple, parse_row) -> list:
    """The rows that ``parse_row`` makes of the records of the UTF-8 CSV at
    ``source`` (a path or a `packaged` file; a leading byte-order mark is
    ignored), ``None`` dropped. Lines that start with ``#``, as the header
    of every optmean CSV does, are skipped; the column header must start
    with ``columns``, and a refused row or byte that is not UTF-8 is named
    by its line in the file."""
    opener = open if isinstance(source, (str, os.PathLike)) else type(source).open
    with opener(source, encoding="utf-8-sig", errors="surrogateescape",
                newline="") as handle:
        lines = list(enumerate(handle, start=1))
    for k, line in lines:
        if bad := _UNDECODED.search(line):
            byte = ord(bad[0]) - 0xDC00
            raise ValueError(f"{handle.name} line {k}: byte {byte:#x} is not UTF-8")
    numbered = [(k, line) for k, line in lines if not line.startswith("#")]
    reader = csv.DictReader((line for _, line in numbered), restval="")
    if (reader.fieldnames or [])[:len(columns)] != list(columns):
        raise ValueError(f"{handle.name} is not a {what} CSV: its columns must "
                         f"start with {','.join(columns)}")
    rows = []
    for record in reader:
        try:
            row = parse_row(record)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"line {numbered[reader.line_num - 1][0]}: {exc}") from exc
        if row is not None:
            rows.append(row)
    return rows


def cell_float(text: str, name: Optional[str] = None) -> Optional[float]:
    """The finite float in a table cell. An empty cell is ``None``, or
    refused as a missing required field when it is ``name``d."""
    if not text.strip():
        if name is not None:
            raise ValueError(f"missing required field {name}")
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text.strip()!r}")
    return value
