"""The table formatter behind evolve's CSV, against FLOAT_FORMAT value by value."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statesphere.serialize import _csv_rows, format_float

TINY, SMALLEST_NORMAL, LARGEST = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308


def rendered(values) -> list:
    """Each value's text as _csv_rows writes the values as one row."""
    buf = io.StringIO()
    _csv_rows(buf, [np.asarray(values, dtype=float).ravel()])
    text = buf.getvalue()
    assert text.endswith("\r\n") and text.count("\r\n") == 1
    return text[:-2].split(",")


def assert_formats(values) -> None:
    values = np.asarray(values, dtype=float).ravel()
    got = rendered(values)
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != format_float(v)]
    assert len(got) == values.size and not bad, bad[:5]


def signed(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def ties() -> list:
    """Doubles whose exact decimal expansion has 18 digits, the last a 5.

    Such a value is j * 2**-k with j odd, whose digits are those of j * 5**k;
    j < 2**53 leaves k from 2 to 25.
    """
    rng = np.random.default_rng(5)
    out = [2.0**-25]
    for k in range(2, 26):
        low, high = -(-(10**17) // 5**k), min((10**18 - 1) // 5**k, 2**53 - 1)
        for j in rng.integers(low, high, 40, endpoint=True).tolist():
            j |= 1
            if j <= high and len(str(j * 5**k)) == 18:
                out.append(math.ldexp(j, -k))
    return out


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_formats(signed([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]))


def test_extremes_and_specials():
    assert_formats([0.0, -0.0, math.nan, math.inf, -math.inf])
    assert_formats(signed([TINY, SMALLEST_NORMAL, LARGEST, 1e20, 1e22, 1e23]))
    assert rendered([-0.0, TINY, 1e23]) == ["-0", "4.9406564584124654e-324", "9.9999999999999992e+22"]


def test_exact_decimal_ties_round_half_even():
    values = ties()
    assert len(values) > 200
    assert_formats(signed(values))
    assert rendered([2.0**-25]) == ["2.9802322387695312e-08"]


def test_integers_up_to_1e17():
    rng = np.random.default_rng(3)
    edges = [10**k + d for k in range(18) for d in (-1, 0, 1)]
    assert_formats(signed(list(range(1001)) + edges + rng.integers(0, 10**17, 2000).tolist()))


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    assert_formats(bits.view(np.float64))


def test_every_decimal_layout():
    # positional from 1e-4 up to 1e17, scientific outside, with 1 to 17 digits
    rng = np.random.default_rng(4)
    digits = rng.integers(1, 10**17, 600) // 10 ** rng.integers(0, 17, 600)
    scales = 10.0 ** rng.integers(-30, 30, 600)
    assert_formats(signed(digits * scales))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 64), elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_matches_format_float(values):
    assert_formats(values)


def test_rows_end_in_crlf():
    table = np.arange(12.0).reshape(3, 4) / 8
    buf = io.StringIO()
    _csv_rows(buf, table)
    assert buf.getvalue() == "".join(
        ",".join(format_float(v) for v in row) + "\r\n" for row in table.tolist()
    )


@pytest.mark.parametrize("width", [1, 3, 4095, 4096, 4097, 9000])
def test_blocks_split_rows_anywhere(width):
    # rows narrower and wider than a block, and blocks of whole rows
    table = np.random.default_rng(width).standard_normal((3, width))
    buf = io.StringIO()
    _csv_rows(buf, iter(table))
    lines = buf.getvalue().split("\r\n")
    assert lines[-1] == "" and len(lines) == 4
    assert [line.split(",") for line in lines[:-1]] == [
        [format_float(v) for v in row] for row in table.tolist()
    ]
