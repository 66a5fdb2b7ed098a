"""The shipped quadrature moment table against the kernel that wrote it.

`moments_quadrature` serves ``data/quad_moments.csv``; every row must be
``moments_quadrature.__wrapped__(n)``, the integrating kernel: bit for bit
when the running python, numpy and scipy are the versions the table's first
line names, and within `ATOL` under any other (a library's special functions
may move the last bits). `make_quad_table.py` regenerates the table.
"""

import pytest

from make_quad_table import ATOL, SIZES, kernel_row, libraries, made_under
from optmean import order_stats

with order_stats._quad_table_file().open("r", encoding="utf-8") as _handle:
    MADE_UNDER = made_under(_handle)

SAME_LIBRARIES = MADE_UNDER == libraries()


def test_table_names_its_libraries_and_covers_the_domain():
    assert MADE_UNDER is not None
    assert list(order_stats._quad_table()) == list(SIZES)


@pytest.mark.parametrize("n", SIZES)
def test_row_is_the_kernel_output(n):
    row, integrated = order_stats._quad_table()[n], kernel_row(n)
    if SAME_LIBRARIES:
        assert row == integrated
    else:
        assert row == pytest.approx(integrated, rel=0, abs=ATOL)


def test_empty_size_cell_is_a_missing_field(tmp_path):
    lines = order_stats._quad_table_file().read_text(encoding="utf-8").splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("5,"))
    lines[first] = lines[first][1:]
    table = tmp_path / "quad_moments.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^line {first + 1}: missing required field n$"):
        order_stats._read_quad_table(table)
