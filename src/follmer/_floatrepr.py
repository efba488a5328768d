"""CSV cell text of float64 arrays, computed block by block in numpy.

``repr`` prints a double as the shortest decimal that reads back as the same
double (the nearest one when several are shortest, the even one on a tie), laid
out positionally when its decimal point position ``decpt`` meets
``-4 < decpt <= 16`` and as ``d[.ddd]e±XX`` otherwise.  ``float_text`` finds
those digits with Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) on uint64 arrays.  Subnormals, infinities and NaN are left to
``repr``: Schubfach's shortest digits for a subnormal are not always CPython's
(``4.9e-323`` against ``5e-323``).  So are arrays of fewer than ``_SHORT``
values, where ``repr`` costs less than the kernel's numpy calls.

The text comes as a uint8 matrix with one row per value: the sign, the digits
and point, and the exponent, at fixed columns with NUL bytes around them.
Dropping every NUL of a row leaves the value's text.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["BLOCK", "float_text"]

BLOCK = 4096  # values formatted per pass; the CSV writer's rows per block
# Arrays shorter than this go through ``repr``, one value at a time: the
# kernel's fixed cost is about 140 us a call, ``repr`` costs about 1.6 us a
# value, and the two met at 80 to 90 values (numpy 2.4, Python 3.11, 2 CPUs).
_SHORT = 64
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_POW10 = np.array([10**j for j in range(1, 20)], dtype=_U)
_EXP0 = 400  # the exponent table's row for e = 0
# The digit string of m·10**k: "000", m's 18 digits, "0"; the point goes in
# front of one of its columns, so a float row is a column for the sign before
# the first digit, 23 columns of digits and point, and 5 of exponent.
_Z = 22
_FLOAT_WIDTH = 1 + _Z + 1 + 5


def _floor_log10_pow2(q, three_quarters=0):
    """floor(log10(2**q)), or of (3/4)·2**q; exact for |q| <= 2620."""
    return (q * 1262611 - three_quarters * 524031) >> 22


def _floor_log2_pow10(e):
    """floor(log2(10**e)); exact for |e| <= 1233."""
    return (e * 1741647) >> 19


def _g(e: int) -> int:
    """floor(10**e · 2**-r) + 1 for the r that puts 10**e · 2**-r in [2**127, 2**128)."""
    r = _floor_log2_pow10(e) - 127
    return (10**e >> r if r >= 0 else 10**e << -r) + 1 if e >= 0 else (1 << -r) // 10**-e + 1


def _shifted(hi, lo, s):
    """The three 64-bit words of (hi·2**64 + lo)·2**s, low word first, for 0 < s < 64."""
    return lo << s, (hi << s) | (lo >> (_U(64) - s)), hi >> (_U(64) - s)


def _decimals(width: int) -> np.ndarray:
    """The ASCII digits of 0 .. 10**width - 1, zero-padded, one row each."""
    j = np.arange(10**width)[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10
    return (j + ord("0")).astype(np.uint8)


class _Tables(NamedTuple):
    schubfach: np.ndarray  # Schubfach's constants, one row each (see _build_tables)
    exponents: np.ndarray  # row _EXP0 + e: "e±XX" for e; row 0 blank
    pairs: np.ndarray  # the two ASCII digits of 0 .. 99 as one uint16
    quads: np.ndarray  # the four ASCII digits of 0 .. 9999 as one uint32
    ranges: np.ndarray  # row 24·a + b: 1 in the columns [a, b), else 0


def _build_tables() -> _Tables:
    """The constant tables.  ``schubfach`` has a column per ``2·(biased
    exponent) + (lower neighbour closer)`` and these rows: k; the shift h + 2;
    g's four 32-bit limbs; the three words of g·2**h·(4c - cbl) and of
    g·2**h·(cbr - 4c), the distances from the middle product to the ends of
    the rounding interval."""
    closer = np.tile([0, 1], 2048)
    q = np.clip(np.arange(2048), 1, 2046).repeat(2) - 1075
    k = _floor_log10_pow2(q, closer)
    h = q + _floor_log2_pow10(-k) + 1
    g = [_g(e) for e in range(-k.max(), -k.min() + 1)]
    g_hi = np.array([v >> 64 for v in g], dtype=_U)[k.max() - k]
    g_lo = np.array([v & (2**64 - 1) for v in g], dtype=_U)[k.max() - k]
    h, closer = h.astype(_U), closer.astype(_U)
    schubfach = np.array(
        [k.astype(_U), h + _U(2), g_lo & _M32, g_lo >> _U(32), g_hi & _M32, g_hi >> _U(32),
         *_shifted(g_hi, g_lo, h + _U(1) - closer), *_shifted(g_hi, g_lo, h + _U(1))]
    )
    exps = [""] + [f"e{e:+03d}" for e in range(1 - _EXP0, _EXP0)]
    exponents = np.frombuffer("".join(s.ljust(5, "\0") for s in exps).encode(), np.uint8).reshape(-1, 5)
    j = np.arange(_Z + 2)
    ranges = (j[:, None, None] <= j[:-1]) & (j[:-1] < j[:, None])
    return _Tables(
        schubfach,
        exponents,
        _decimals(2).view(np.uint16)[:, 0],
        _decimals(4).view(np.uint32)[:, 0],
        ranges.reshape(-1, _Z + 1).astype(np.uint8),
    )


# Built at import, while the heap holds nothing large: built at the first
# CSV write, they took heap space that large arrays had just freed, and
# certify-dense's peak RSS read about 0.6 MB higher (3 runs of 3).
_TABLES = _build_tables()


def _product(cp, b0, b1, b2, b3):
    """The 64-bit words w0, w1, w2 of cp·g for g = b3:b2:b1:b0 in 32-bit limbs
    and cp < 2**59, summed column by column."""
    a0, a1 = cp & _M32, cp >> _U(32)
    p = a0 * b0
    w0 = p & _M32
    c = p >> _U(32)
    p = a0 * b1
    c += p & _M32
    hi = p >> _U(32)
    p = a1 * b0
    c += p & _M32
    hi += p >> _U(32)
    w0 |= c << _U(32)
    c >>= _U(32)
    c += hi
    p = a0 * b2
    c += p & _M32
    hi = p >> _U(32)
    p = a1 * b1
    c += p & _M32
    hi += p >> _U(32)
    w1 = c & _M32
    c >>= _U(32)
    c += hi
    p = a0 * b3
    c += p & _M32
    hi = p >> _U(32)
    p = a1 * b2
    c += p & _M32
    hi += p >> _U(32)
    w1 |= c << _U(32)
    c >>= _U(32)
    c += hi
    c += a1 * b3
    return w0, w1, c


def _interval(w0, w1, w2, l0, l1, l2, r0, r1, r2, odd):
    """The ends of the rounding interval: the top words of P - L and P + R,
    rounded to odd (the last bit set when the word below is more than 1), and
    moved in by one for an odd significand, whose interval is open."""
    borrow = w0 < l0
    t = w1 - l1 - borrow
    borrow = (w1 < l1) | ((w1 == l1) & borrow)
    lower = (w2 - l2 - borrow) | (t > _U(1))
    s = w1 + r1
    t = s + ((w0 + r0) < w0)
    upper = (w2 + r2 + ((s < w1) | (t < s))) | (t > _U(1))
    return lower + odd, upper - odd


def _shortest(bits):
    """(m, k) with m·10**k the shortest decimal that rounds to each normal
    double of ``bits``; (0, 0) for a zero."""
    f = bits & _U((1 << 52) - 1)
    be = (bits >> _U(52)) & _U(0x7FF)
    row = ((be << _U(1)) | ((f == 0) & (be > 1))).astype(np.intp)
    k, h2, b0, b1, b2, b3, *ends = _TABLES.schubfach.take(row, axis=1)
    w0, w1, w2 = _product((f | _U(1 << 52)) << h2, b0, b1, b2, b3)
    vb = w2 | (w1 > _U(1))
    lower, upper = _interval(w0, w1, w2, *ends, f & _U(1))
    # the one multiple of 10 in the interval, else the nearer of s and s + 1
    s4 = vb & ~_U(3)
    sp40 = s4 // _U(40) * _U(40)
    wpin = sp40 + _U(40) <= upper
    tens = (lower <= sp40) != wpin
    win = s4 + _U(4) <= upper
    s4 += _U(2)
    up = np.where((lower <= s4 - _U(2)) != win, win, (vb > s4) | ((vb == s4) & (s4 & _U(4) != 0)))
    m = np.where(tens, (sp40 >> _U(2)) + wpin * _U(10), (s4 >> _U(2)) + up)
    zero = (bits << _U(1)) == 0
    m[zero] = 0
    k = k.astype(np.int64)
    k[zero] = 0
    return m, k


def _digits(m, out):
    """Write the 18 decimal digits of each m < 10**18 into the columns of ``out``."""
    hi = m // _U(10**8)
    lo = (m - hi * _U(10**8)).astype(np.uint32)
    top = hi // _U(10**8)
    mid = (hi - top * _U(10**8)).astype(np.uint32)
    groups = np.empty((len(m), 4), np.intp)
    groups[:, 0], groups[:, 1] = mid // np.uint32(10**4), mid % np.uint32(10**4)
    groups[:, 2], groups[:, 3] = lo // np.uint32(10**4), lo % np.uint32(10**4)
    out[:, :2] = _TABLES.pairs.take(top.astype(np.intp)).view(np.uint8).reshape(-1, 2)
    out[:, 2:] = _TABLES.quads.take(groups).view(np.uint8)


def _float_rows(a, out) -> tuple:
    """Fill ``out``'s rows with the text of the normal and zero doubles of
    ``a``; return the range of columns that hold any of it."""
    ranges = _TABLES.ranges
    bits = a.view(_U)
    m, k = _shortest(bits)
    z = np.zeros((len(a), _Z + 2), np.uint8)  # the digit string between two NUL columns
    z[:, 1:4] = z[:, -2] = ord("0")
    _digits(m, z[:, 4:-2])
    n = np.searchsorted(_POW10, m, side="right") + 1
    trail = np.argmax(z[:, -3:3:-1] != ord("0"), axis=1)
    decpt = n + k
    sci = (decpt < -3) | (decpt > 16)
    # the digit string's columns [start, point) go before the point, [point, end)
    # after it; in ``out`` they move one column right, and the sign goes in front
    point = 21 - n + np.where(sci, 1, decpt)
    start = np.minimum(21 - n, point - 1)
    end = np.where(sci, 21 - trail, np.maximum(21 - trail, point + 1))
    out[:, 0] = 0
    body = out[:, 1 : 2 + _Z]
    np.multiply(z[:, 1:], ranges.take(start * (_Z + 2) + point, axis=0), out=body)
    body += z[:, :-1] * ranges.take((point + 1) * (_Z + 2) + end + 1, axis=0)
    rows = np.arange(0, out.size, out.shape[1])
    flat = out.ravel()
    flat[rows + 1 + point] = (end > point) * ord(".")
    flat[rows + start] = (bits >> _U(63)) * _U(ord("-"))
    if sci.any():
        out[:, 2 + _Z :] = _TABLES.exponents.take(np.where(sci, decpt - 1 + _EXP0, 0), axis=0)
        return int(start.min()), _FLOAT_WIDTH
    out[:, 2 + _Z :] = 0
    return int(start.min()), 2 + int(end.max())


def _patch(out, values, rows) -> None:
    """Write ``repr`` of ``values[i]`` into row i of ``out`` for each i in ``rows``."""
    for i in rows.tolist():
        text = repr(float(values[i])).encode()
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)


def float_text(a) -> np.ndarray:
    """The rows of ``repr(v)`` for the values v of a one-dimensional float
    array; from ``_SHORT`` values on, only the columns some row uses."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if len(a) < _SHORT:
        out = np.zeros((len(a), _FLOAT_WIDTH), np.uint8)
        _patch(out, a, np.arange(len(a)))
        return out
    out = np.empty((len(a), _FLOAT_WIDTH), np.uint8)
    lo, hi = _FLOAT_WIDTH, 0
    for i in range(0, len(a), BLOCK):
        used = _float_rows(a[i : i + BLOCK], out[i : i + BLOCK])
        lo, hi = min(lo, used[0]), max(hi, used[1])
    be = (a.view(_U) >> _U(52)) & _U(0x7FF)
    special = np.flatnonzero((be == 0x7FF) | ((be == 0) & (a != 0)))
    if len(special):
        _patch(out, a, special)
        lo, hi = 0, _FLOAT_WIDTH
    return out[:, lo:hi]
