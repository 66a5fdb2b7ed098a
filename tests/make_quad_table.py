"""Regenerate ``src/optmean/data/quad_moments.csv``, the quadrature moment table.

    PYTHONPATH=src python tests/make_quad_table.py

`moments_quadrature` serves its moments from this table. Each row is the
output of the integrating kernel, ``moments_quadrature.__wrapped__(n)``, for
one n of 5..501 step 4, written with ``repr`` so that every value reads back
exactly. The first line names the python, numpy and scipy versions that wrote
it. `tests/test_quad_table.py` checks every row against the kernel: bit for
bit under those versions, within `ATOL` under any other. When the script
replaces a table it names the rows that moved; a change that moves any says
which and why.
"""

from __future__ import annotations

import os
import platform
import re
import sys

import numpy
import scipy

from optmean.order_stats import MAX_QUADRATURE_SIZE, _QUAD_COLUMNS, _rank_pairs, \
    _read_quad_table, moments_quadrature

TABLE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "src", "optmean", "data", "quad_moments.csv")
SIZES = range(5, MAX_QUADRATURE_SIZE + 1, 4)

# the largest difference from the kernel allowed under other library versions
ATOL = 1e-12

_MADE_UNDER = re.compile(r"\(python \S+, numpy \S+, scipy \S+\)")


def libraries() -> str:
    """The running versions, as the table's first line names them."""
    return (f"(python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__})")


def made_under(handle) -> str | None:
    """The versions named on the first line of the table open on ``handle``."""
    found = _MADE_UNDER.search(handle.readline())
    return found and found.group()


def kernel_row(n: int) -> list[float]:
    """The 20 values of n's row, integrated, in the order of the table's columns."""
    m = moments_quadrature.__wrapped__(n)
    ranks = m.index_set.indices
    return [m.means[i] for i in ranks] + [m.second_moments[p] for p in _rank_pairs(ranks)]


def main() -> None:
    rows = {n: kernel_row(n) for n in SIZES}
    old = _read_quad_table(TABLE) if os.path.exists(TABLE) else {}
    with open(TABLE, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# optmean quadrature moments of the five summary order statistics, "
                     f"written by tests/make_quad_table.py {libraries()}\n")
        handle.write(",".join(_QUAD_COLUMNS) + "\n")
        for n, values in rows.items():
            handle.write(",".join([str(n), *map(repr, values)]) + "\n")
    for n in sorted(old.keys() | rows.keys() if old else ()):
        if n not in old or n not in rows:
            print(f"n={n}: row {'added' if n in rows else 'removed'}", file=sys.stderr)
        elif old[n] != rows[n]:
            moved = [abs(a - b) for a, b in zip(old[n], rows[n]) if a != b]
            print(f"n={n}: {len(moved)} of 20 values moved, by up to {max(moved):.3g}",
                  file=sys.stderr)
    print(f"wrote {len(rows)} rows to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    main()
