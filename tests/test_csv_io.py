"""CSV round trips: what ``format_matrix`` writes, ``load_csv`` reads back.

``format_matrix`` must write exactly the bytes of a per-cell ``%`` format,
for any double at any precision and any slice size. Property tests draw
finite matrices, extreme values included, and vary the file's layout:
header or none, quoted cells, CRLF line ends, blank lines and a trailing
text label column, and read every column or a selection. Values must come
back bit for bit; a cell that is not a finite number must be named by its
row and column.
"""

import math
import re
import struct
import sys
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mvskew import DataError, PreconditionError, data, load_csv
from mvskew.data import format_matrix

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, 3.0, -17.0, 0.1)
FINITE = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))
LABELS = st.sampled_from(["alpha", "beta", '"gamma, delta"', '"x ""y"""'])
# the tests overwrite one file per example; its directory is not inspected
REUSED_FILE = settings(max_examples=60, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def matrices(draw):
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    return np.array(draw(st.lists(FINITE, min_size=n * d, max_size=n * d))).reshape(n, d)


def bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values).view(np.int64).ravel().tolist()


def per_cell(values, precision: int) -> str:
    return "".join(",".join(f"%.{precision}g" % x for x in row) + "\n"
                   for row in np.atleast_2d(values))


@pytest.mark.parametrize("precision", [1, 6, 15, 17])
def test_format_matrix_matches_per_cell_format(precision):
    values = np.array([[-0.0, 5e-324, 1e308, -1e308],
                       [3.0, -2.0, 1e16, 0.0],
                       [1 / 3, -2.5e-300, 123456789.0, 0.1]])
    values = np.vstack([values, np.random.default_rng(precision).standard_normal((5, 4))])
    assert format_matrix(values, precision) == per_cell(values, precision)
    assert format_matrix(values[0], precision) == per_cell(values[0], precision)
    assert format_matrix(values[:, :1], precision) == per_cell(values[:, :1], precision)
    assert format_matrix(values[:, :0], precision) == per_cell(values[:, :0], precision)


@pytest.mark.parametrize("cells", [8, 2 ** 14])
def test_format_matrix_refuses_more_than_two_dimensions(cells):
    with pytest.raises(DataError, match="ndim=3$"):
        format_matrix(np.ones((2, 2, cells // 4)), 6)


@pytest.mark.parametrize("precision", [-1, 1.5, True, 18])
def test_format_matrix_refuses_a_precision_out_of_range(precision):
    with pytest.raises(PreconditionError, match="precision"):
        format_matrix(np.ones((2, 2)), precision)


def _near_power_of_ten(k: int, step: int) -> float:
    value = 10.0 ** k
    for _ in range(abs(step)):
        value = math.nextafter(value, math.inf if step > 0 else 0.0)
    return value


# every double, by its bits; values one ulp around powers of ten; and the
# edges of %g's fixed notation, where the rounding moves the exponent
CELLS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.builds(_near_power_of_ten, st.integers(-6, 18), st.integers(-1, 1)),
    st.sampled_from([9.9999999999999995e-5, 999999999999999.5, 1e-4, 9.5e-5, 9.49e-5,
                     99999.5, 9.9999995, 0.5, 0.0, -0.0, math.nan, math.inf, -math.inf,
                     5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(picks=st.data(), d=st.integers(1, 4), n=st.integers(1, 12),
       precision=st.integers(1, 17), slice_cells=st.integers(1, 9))
def test_format_matrix_is_the_percent_format_of_every_double(picks, d, n, precision,
                                                             slice_cells):
    values = np.array(picks.draw(st.lists(CELLS, min_size=n * d, max_size=n * d)))
    values = values.reshape(n, d) * picks.draw(st.sampled_from([1.0, -1.0]))
    with mock.patch.object(data, "FORMAT_CELLS", slice_cells):
        assert format_matrix(values, precision) == per_cell(values, precision)
        assert format_matrix(values[0], precision) == per_cell(values[0], precision)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_row_counts_around_the_slice_size(offset):
    d = 3
    rng = np.random.default_rng(offset + 1)
    values = rng.standard_normal((data.FORMAT_CELLS // d + offset, d))
    values *= 10.0 ** rng.integers(-6, 17, values.shape)
    assert format_matrix(values, 15) == per_cell(values, 15)


@pytest.mark.parametrize("value, precision, text", [
    (2.5, 1, "2"), (1.5, 1, "2"), (0.125, 2, "0.12"), (0.375, 2, "0.38"), (0.15, 1, "0.1"),
])
def test_exact_ties_round_half_even(value, precision, text):
    # 2.5, 1.5, 0.125 and 0.375 are exact doubles; 0.15 lies below its decimal
    assert f"%.{precision}g" % value == text
    assert format_matrix([value, -value], precision) == f"{text},-{text}\n"


def _within_ulps(value: float, ulps: int) -> list[float]:
    below, above = [value], [value]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _carry_boundary(k: int, p: int, half: Decimal = Decimal(5)) -> float:
    """The double nearest 10^(k+1) (1 - half 10^(-p-1)): at half = 5 the
    least value %.{p}g rounds up to 10^(k+1); the decimals are exact."""
    return float(Decimal(10) ** (k + 1) * (1 - half * Decimal(10) ** (-p - 1)))


@pytest.mark.parametrize("precision", range(1, 16))
def test_cells_next_to_powers_of_ten_and_carries_are_the_percent_format(precision):
    # 10^k, and the carry boundary, where %g's rounding reaches 10^(k+1),
    # each within 3 ulps
    p = precision
    cells = []
    for k in range(-5, p + 1):
        cells += _within_ulps(float(Decimal(10) ** k), 3)
        cells += _within_ulps(_carry_boundary(k, p), 3)
    values = np.array([cells, [-c for c in cells]])
    assert format_matrix(values, p) == per_cell(values, p)


@pytest.mark.parametrize("precision", range(1, 14))
def test_a_carry_to_the_next_power_of_ten_takes_the_percent_route(precision):
    # halfway between the carry boundary and 10^(k+1): %g prints 10^(k+1),
    # and one pass gives n = 10^p, so the kernel leaves the cell to the %
    # route. At p = 14 and 15 the midpoint lies within an ulp or two of
    # 10^(k+1), where the scaled product can round to exactly 10^(p-1) and
    # one pass settles the cell; the test above covers those.
    p = precision
    powers = [float(Decimal(10) ** (k + 1)) for k in range(-5, p - 1)]
    cells = [_carry_boundary(k, p, Decimal("2.5")) for k in range(-5, p - 1)]
    x = np.array(cells + [-c for c in cells])
    assert per_cell(x, p) == per_cell(powers + [-c for c in powers], p)
    assert not data._fixed_digits(x, p)[0].any()
    assert format_matrix(x, p) == per_cell(x, p)


@pytest.mark.parametrize("precision, calls", [(1, 1), (15, 1), (16, 0), (17, 0)])
def test_the_kernel_route_depends_on_the_precision_alone(precision, calls):
    # one cell is as much the kernel's as a million: no slice is too small
    with mock.patch.object(data, "_fixed_cells", wraps=data._fixed_cells) as kernel:
        assert format_matrix([[0.5]], precision) == f"%.{precision}g\n" % 0.5
    assert kernel.call_count == calls


def test_format_matrix_memory_is_one_slice():
    values = np.random.default_rng(0).standard_normal((2 ** 18, 4))
    tracemalloc.start()
    try:
        text = format_matrix(values, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sys.getsizeof(text) < 6 * 2 ** 20


@REUSED_FILE
@given(values=matrices(), header=st.booleans(), label=st.booleans(),
       eol=st.sampled_from(["\n", "\r\n"]), data=st.data())
def test_round_trip_is_bit_exact(tmp_path, values, header, label, eol, data):
    n, d = values.shape
    quoted = data.draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))
    blank = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cells = [f'"{c}"' if q else c for c, q in
             zip(format_matrix(values, 17).replace("\n", ",").split(","), quoted)]
    lines = [",".join(cells[i * d:(i + 1) * d]) for i in range(n)]
    if label:
        lines = [f"{line},{data.draw(LABELS)}" for line in lines]
    lines = [line + eol * (1 + gap) for line, gap in zip(lines, blank)]
    if header:
        names = [f"c{j + 1}" for j in range(d)] + ["kind"] * label
        lines.insert(0, ",".join(names) + eol)
    path = tmp_path / "matrix.csv"
    path.write_bytes("".join(lines).encode())

    # every numeric column by auto-detection, or a selection in any order
    select = data.draw(st.booleans())
    order = (data.draw(st.permutations(range(d)))[:data.draw(st.integers(1, d))] if select
             else list(range(d)))
    loaded = load_csv(path, columns=[j + 1 for j in order] if select else None,
                      header=False if label and not header else None)
    assert bits(loaded.values) == bits(values[:, order])
    assert loaded.values.flags.c_contiguous
    prefix = "c" if header else "x"
    assert loaded.names == tuple(f"{prefix}{j + 1}" for j in order)


@REUSED_FILE
@given(values=matrices(), bad=st.sampled_from(["nan", "-NaN", "inf", "-Infinity",
                                               "1e999", "1_000", "NA", ""]),
       select=st.booleans(), data=st.data())
def test_bad_cell_is_named(tmp_path, values, bad, select, data):
    n, d = values.shape
    assume(d > 1 or bad != "")  # an empty one-cell row is a blank line
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
    rows = [line.split(",") for line in format_matrix(values, 17).splitlines()]
    rows[i][j] = bad
    header = ",".join(f"c{k + 1}" for k in range(d))
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")

    columns = list(range(1, d + 1)) if select else None
    message = f"non-numeric cell {bad!r} at row {i + 2}, column {j + 1}"
    with pytest.raises(DataError, match=re.escape(message) + "$"):
        load_csv(path, columns=columns)


def test_selected_columns_are_parsed_without_python_converters(tmp_path, monkeypatch):
    path = tmp_path / "labelled.csv"
    path.write_text("a,b,kind\n1,2,alpha\n3,4,beta\n5,6,\"gamma, delta\"\n")
    calls = []

    def recorded(*args, _real=np.loadtxt, **kwargs):
        calls.append(kwargs.get("converters"))
        return _real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recorded)
    assert load_csv(path, columns=["b", "a"]).values.tolist() == [[2, 1], [4, 3], [6, 5]]
    # auto-detection reads the label column as strings, in C, too
    assert load_csv(path).values.tolist() == [[1, 2], [3, 4], [5, 6]]
    assert calls == [None, None]
