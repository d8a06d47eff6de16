"""Deterministic JSON/CSV rendering.

Floats are rendered at 17 significant digits (FLOAT_FORMAT) and dict
insertion order is preserved, so identical inputs produce byte-identical
output.  `dumps` formats value by value, for JSON and a report's CSV row.
A table of floats, such as evolve's CSV, goes through `_write_table`, which
finds the same 17 digits for a block of values at a time in numpy: each
value's bytes are those of FLOAT_FORMAT, and a value whose rounding numpy
could not decide with certainty is formatted by FLOAT_FORMAT itself.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np

# 17 significant digits round-trip every double.
FLOAT_FORMAT = "{:.17g}"
format_float = FLOAT_FORMAT.format


def dumps(obj) -> str:
    """Single-line deterministic JSON with fixed float formatting."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(dumps, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# Values per block of _write_table: its working arrays stay a few hundred kB
# whatever the table's shape.
_BLOCK_VALUES = 4096
# _significands' scaled value errs by under 2**-46 units of the 17th digit;
# within this margin of a rounding tie or of 10**16 a value is left to
# FLOAT_FORMAT.
_MARGIN = 2.0**-20

# Each value of a _write_table block is laid out in 48 bytes, six uint64
# words, and the bytes its text does not use are zeroed and dropped:
#   0 "-", 1-5 "0.000", digit j at 6 + 2j with a "." after it, 40-44 "e",
#   the exponent's sign and three digits, 45 ",", 46-47 CRLF.
_SLOTS = 48
_EXPONENTS = range(-324, 309)  # every decimal exponent of a nonzero double
# Layout forms: positional for 10**-4 <= |x| < 10**17 (form e + 4), then
# scientific with a two- and with a three-digit exponent.
_FORMS = 23


@cache
def _pow10(k: int) -> tuple:
    """(hi, lo, s) with 10**k = (hi + lo) * 2**s to 106 bits and 1 <= hi <= 2.

    Computed from exact integers, once per exponent, on first use; a
    quotient of Python integers is correctly rounded.
    """
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    s = num.bit_length() - den.bit_length()
    if num << max(-s, 0) < den << max(s, 0):
        s -= 1
    num, den = num << max(-s, 0), den << max(s, 0)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b), s


def _words(texts) -> np.ndarray:
    """Equal-length byte strings as one uint64 array, eight bytes a word."""
    return np.frombuffer(b"".join(texts), dtype=np.uint64)


@cache
def _tables() -> tuple:
    """Lookup tables of _render_block, built once, on first use.

    For a leading digit g, the word "-0.000g."; for each four-digit group
    0000-9999, the word "d.d.d.d." and its count of trailing zeros; for each
    exponent, the word "e+ddd,CRLF"; and the mask of the 48 bytes each
    layout key ((form * 18 + digits shown) * 2 + minus sign) * 2 + row end
    shows, as six words.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of 0000-9999
    leads = _words(b"-0.000%d." % g for g in range(10))
    quads = np.full((10_000, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = digits.T + ord("0")
    quads = quads.view(np.uint64).ravel()
    zeros = np.cumprod(digits[::-1] == 0, axis=0).sum(axis=0, dtype=np.int8)
    tails = _words(b"e%+04d,\r\n" % k for k in _EXPONENTS)

    slot = np.arange(_SLOTS)
    form = np.arange(_FORMS)[:, None, None]
    shown = np.arange(18)[:, None]
    e = form - 4
    sci = form >= 21
    small = ~sci & (e < 0)
    point_after = np.where(sci, 0, np.where(small, 17, e))
    pair = (slot - 6) // 2
    body = (
        ((slot >= 1) & (slot <= 5) & small & (slot <= 1 - e))
        | ((slot >= 6) & (slot < 40) & (slot % 2 == 0) & (pair < shown))
        | (
            (slot >= 6) & (slot < 40) & (slot % 2 == 1)
            & (pair == point_after) & (shown > point_after + 1)
        )
        | ((slot >= 40) & (slot <= 44) & sci & ((slot != 42) | (form == 22)))
    )
    sign = np.stack([np.zeros(_SLOTS, dtype=bool), slot == 0])
    end = np.stack([slot == 45, slot >= 46])
    masks = body[:, :, None, None] | sign[:, None] | end
    masks = np.where(masks, 255, 0).astype(np.uint8).reshape(-1, _SLOTS).view(np.uint64)
    return leads, quads, zeros, tails, masks


def _split(a: np.ndarray) -> tuple:
    """a = hi + lo with each half 26 bits wide (Veltkamp's splitting)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(m: np.ndarray, q: np.ndarray, e: np.ndarray) -> tuple:
    """m * 2**q * 10**(16 - e) as a float64 integer part plus a small remainder.

    The product of m with the high half of the power is exact (Dekker,
    Numer. Math. 18, 224, 1971); with the low half it is rounded once.
    """
    k = 16 - e
    first = int(k.min())
    k -= first
    present = np.flatnonzero(np.bincount(k))
    table = np.zeros((3, present[-1] + 1))
    table[:, present] = np.array([_pow10(j + first) for j in present.tolist()]).T
    hi, lo, s = (np.take(row, k) for row in table)
    p = m * hi
    (mh, ml), (hh, hl) = _split(m), _split(hi)
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    # 2**(q + s), which lies near 2**55, from its exponent bits
    scale = ((q + s.astype(np.int64) + 1023) << 52).view(np.float64)
    return p * scale, err * scale + m * lo * scale


def _significands(x: np.ndarray) -> tuple:
    """The 17-digit significand D and decimal exponent E of each |x|.

    |x| rounds to D * 10**(E - 16) with 10**16 <= D < 10**17, ties to even,
    as FLOAT_FORMAT rounds it; a zero has D = E = 0.  Also returns a mask of
    the values so decided.  The others are left to FLOAT_FORMAT: non-finite
    values, and values whose scaled magnitude lies within _MARGIN of a tie
    or below 10**16 + _MARGIN, where the 2**-46 error could change the
    digits or the exponent.
    """
    a = np.abs(x)
    finite = np.isfinite(a)
    nonzero = finite & (a > 0)
    a = np.where(nonzero, a, 1.0)
    m, q = np.frexp(a)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, rest = _scaled(m, q, e)
    # log10 may be one off next to a power of ten
    shift = (whole >= 1e17).astype(np.int64) - (whole < 1e16)
    if shift.any():
        moved = shift != 0
        e[moved] += shift[moved]
        whole[moved], rest[moved] = _scaled(m[moved], q[moved], e[moved])
    floor = np.floor(rest)
    frac = rest - floor
    d = whole.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    doubt = (whole < 1e16) | (whole >= 1e17) | (np.abs(frac - 0.5) <= _MARGIN)
    doubt |= (whole == 1e16) & (rest < _MARGIN)
    return d * nonzero, e * nonzero, finite & ~(nonzero & doubt)


def _quarters(v: np.ndarray) -> list:
    """The two four-digit halves of each v < 10**8."""
    high = v // 10**4
    return [high, v - high * 10**4]


def _render_block(x: np.ndarray, row_end: np.ndarray) -> str:
    """FLOAT_FORMAT of each value, each followed by "," or, where row_end, CRLF."""
    leads, quads, zeros, tails, masks = _tables()
    d, e, exact = _significands(x)
    n = x.size
    # D as its leading digit and four groups of four digits
    high = d // 10**8
    lead = high // 10**8
    groups = _quarters(high - lead * 10**8) + _quarters(d - high * 10**8)
    trailing = np.zeros(n, dtype=np.int64)
    for k, g in enumerate(reversed(groups)):
        trailing += (trailing == 4 * k) * np.take(zeros, g)
    kept = 17 - trailing

    sci = (e < -4) | (e >= 17)
    form = np.where(sci, 21 + (np.abs(e) >= 100), e + 4)
    shown = np.where(sci | (e < 0), kept, np.maximum(kept, e + 1))
    key = ((form * 18 + shown) * 2 + np.signbit(x)) * 2 + row_end

    words = np.empty((n, _SLOTS // 8), dtype=np.uint64)
    words[:, 0] = np.take(leads, lead)
    for k, g in enumerate(groups, 1):
        words[:, k] = np.take(quads, g)
    words[:, 5] = np.take(tails, e - _EXPONENTS.start)
    words &= np.take(masks, key, axis=0)
    fallback = np.flatnonzero(~exact)
    if fallback.size:
        # the text, then the separator in the last three bytes
        texts = (format_float(v).encode().ljust(_SLOTS - 3, b"\0") for v in x[fallback].tolist())
        seps = (b"\0\r\n" if end else b",\0\0" for end in row_end[fallback].tolist())
        words[fallback] = _words(map(bytes.__add__, texts, seps)).reshape(-1, _SLOTS // 8)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _write_table(fileobj, header, columns) -> None:
    """Write the header names, then the columns' rows, as CSV lines ending in CRLF.

    Row i holds entry i of each float column (a value of a 1-D column, a row
    of a 2-D one), each value as FLOAT_FORMAT writes it, byte for byte.
    Blocks of _BLOCK_VALUES values (one row where a row is wider) are stacked
    and rendered _BLOCK_VALUES values at a time, and a chunk may end inside a
    row, since every value carries its own separator; so the working memory
    is one block and one chunk, whatever the number of rows.
    """
    fileobj.write(",".join(header) + "\r\n")
    width = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    step = max(1, _BLOCK_VALUES // width)
    for first in range(0, len(columns[0]), step):
        values = np.column_stack([c[first : first + step] for c in columns]).ravel()
        for start in range(0, values.size, _BLOCK_VALUES):
            chunk = values[start : start + _BLOCK_VALUES]
            row_end = np.arange(start, start + chunk.size) % width == width - 1
            fileobj.write(_render_block(chunk, row_end))
