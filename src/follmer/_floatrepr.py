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

Every pass over such a matrix runs over whole contiguous rows, 32 bytes each.
numpy runs a 2-D op on a column slice (``z[:, 1:]``) as one short inner loop
per row: a 4,096 × 23 uint8 multiply took 55.7 us on such slices and 5.4 us
on contiguous arrays.  So the digits are written one uint32 word per row, the
point goes in by shifting the flattened block one byte under two masks taken
from one table of prefixes, and the trailing zeros are counted from a table
on the 4-digit groups.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["BLOCK", "float_text"]

BLOCK = 4096  # values formatted per pass; the CSV writer's rows per block
# Arrays shorter than this go through ``repr``, one value at a time: the
# kernel's fixed cost is about 150 us a call, ``repr`` costs about 1.7 us a
# value of 16 or 17 digits (less for fewer), and the two met at 88 to 96
# values of 16 or 17 digits (numpy 2.4, Python 3.11, 2 CPUs).
_SHORT = 88
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_EXP0 = 331  # the exponent table's row for e = 0; it holds e = -330 .. 330
# A text row is 32 bytes.  The digit string of m·10**k sits in its columns
# [3, 25): "000" from column 3, m's 18 digits from column 6 (so that each
# group of four starts a uint32 word), and "0" in column 24.  The point goes
# in front of one of its columns, everything after it moves one column right,
# and the exponent takes columns 25 to 29.
_W = 32
_WORD0 = np.frombuffer(bytes(3) + b"0", np.uint32)[0]  # columns 0-3: NUL, NUL, NUL, "0"
_WORD6 = np.frombuffer(b"0" + bytes(7), _U)[0]  # columns 24-31: "0", then NUL


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
    exponents: np.ndarray  # entry _EXP0 + e: columns 24-31 as a uint64 word, "e±XX" for e from 25; entry 0 blank
    quads: np.ndarray  # the four ASCII digits of 0 .. 9999 as one uint32
    zeros: np.ndarray  # the trailing zero digits of 0 .. 9999 written with four; 4 for 0
    prefixes: np.ndarray  # row r: 1 in the columns [0, r) of a text row, else 0


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
    schubfach = np.column_stack(
        [k.astype(_U), h + _U(2), g_lo & _M32, g_lo >> _U(32), g_hi & _M32, g_hi >> _U(32),
         *_shifted(g_hi, g_lo, h + _U(1) - closer), *_shifted(g_hi, g_lo, h + _U(1))]
    )
    e = np.arange(1 - _EXP0, _EXP0)
    two = np.abs(e) < 100
    exponents = np.zeros((len(e) + 1, 8), np.uint8)
    exponents[1:, 1] = ord("e")
    exponents[1:, 2] = np.where(e < 0, ord("-"), ord("+"))
    exponents[1:, 3:6] = _decimals(3)[np.abs(e)]
    exponents[1:][two, 3:6] = np.pad(_decimals(2)[np.abs(e[two])], ((0, 0), (0, 1)))
    j = np.arange(10**4)
    zeros = (j % 10 == 0).astype(np.uint8) + (j % 100 == 0) + (j % 1000 == 0) + (j == 0)
    return _Tables(
        schubfach,
        exponents.view(_U)[:, 0],
        _decimals(4).view(np.uint32)[:, 0],
        zeros,
        (np.arange(_W) < np.arange(_W + 1)[:, None]).astype(np.uint8),
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
    double of ``bits``, m of 16 or 17 digits (m is about c·2**q / 10**k for
    the significand c in [2**52, 2**53) and 2**q / 10**k in [1, 40/3));
    (0, -15) for a zero, which reads as 1 digit before the point."""
    f = bits & _U((1 << 52) - 1)
    be = (bits >> _U(52)) & _U(0x7FF)
    row = ((be << _U(1)) | ((f == 0) & (be > 1))).astype(np.intp)
    k, h2, b0, b1, b2, b3, *ends = _TABLES.schubfach.take(row, axis=0).T
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
    k[zero] = -15
    return m, k


def _groups(m) -> list:
    """The five 4-digit groups of each m < 10**18, most significant first."""
    hi = m // _U(10**8)
    lo = (m - hi * _U(10**8)).astype(np.uint32)
    top = hi // _U(10**8)
    mid = (hi - top * _U(10**8)).astype(np.uint32)
    groups = [top.astype(np.uint32)]
    for g in (mid, lo):
        q = g // np.uint32(10**4)
        groups += [q, g - q * np.uint32(10**4)]  # numpy's uint32 % took 8 us a block, this 3.7
    return groups


def _float_rows(a, out) -> tuple:
    """Fill ``out``'s rows with the text of the normal and zero doubles of
    ``a``; return the range of columns that hold any of it.  Every pass over
    a matrix runs over whole contiguous rows, or writes one word per row."""
    bits = a.view(_U)
    m, k = _shortest(bits)
    groups = _groups(m)
    # the digit string in the rows of z; the byte before z's first row is NUL
    buf = np.empty(_W * (len(a) + 1), np.uint8)
    buf[_W - 1] = 0
    z = buf[_W:].reshape(-1, _W)
    z32 = z.view(np.uint32)
    z32[:, 0] = _WORD0
    for j, g in enumerate(groups, 1):  # the top group's two leading zeros are columns 4 and 5
        z32[:, j] = _TABLES.quads.take(g)
    z.view(_U)[:, 3] = _WORD6
    # m's trailing zero digits up to each group: the group's own, and if the
    # group is 0, those up to the group before it as well.  The top group
    # adds none: it is a digit from 1 to 9, or 0 when m < 10**16, and then the
    # group after it is not 0.
    trail = _TABLES.zeros.take(groups[1])
    for g in groups[2:]:
        trail = _TABLES.zeros.take(g) + (g == 0) * trail
    first = 8 - (m >= _U(10**16))  # the column of m's first digit
    decpt = 24 - first + k
    sci = (decpt < -3) | (decpt > 16)
    # the integer part goes to columns [start + 1, point) unmoved, the point
    # to ``point`` and the fraction to [point + 1, end), one column right: z
    # under one mask plus z shifted by one byte under another
    point = first + np.where(sci, 1, decpt)
    start = np.minimum(first, point - 1) - 1
    last = 25 - trail
    end = np.where(sci, last, np.maximum(last, point + 2))
    prefixes = _TABLES.prefixes
    part = np.empty_like(out)  # mode="clip" takes straight into an out array, "raise" through a copy
    np.take(prefixes, point, axis=0, out=out, mode="clip")
    np.take(prefixes, start + 1, axis=0, out=part, mode="clip")
    out -= part
    out *= z
    np.take(prefixes, end, axis=0, out=part, mode="clip")
    part -= prefixes.take(point + 1, axis=0)
    part *= buf[_W - 1 : -1].reshape(-1, _W)
    out += part
    rows = np.arange(0, out.size, _W)
    flat = out.ravel()
    flat[rows + point] = ord(".")
    bare = np.flatnonzero(end == point + 1)  # one digit and an exponent: no point
    flat[rows[bare] + point[bare]] = 0
    neg = np.flatnonzero(np.signbit(a))
    flat[rows[neg] + start[neg]] = ord("-")
    lo = min(int(start.min()) + 1, int(start[neg].min(initial=_W)))  # a sign column or the first digit's
    if sci.any():
        out.view(_U)[:, 3] |= _TABLES.exponents.take(np.where(sci, decpt - 1 + _EXP0, 0))
        return lo, 29 + bool(((decpt > 100) | (decpt < -98)).any())
    return lo, int(end.max())


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
        out = np.zeros((len(a), _W), np.uint8)
        _patch(out, a, np.arange(len(a)))
        return out
    out = np.empty((len(a), _W), np.uint8)
    lo, hi = _W, 0
    for i in range(0, len(a), BLOCK):
        used = _float_rows(a[i : i + BLOCK], out[i : i + BLOCK])
        lo, hi = min(lo, used[0]), max(hi, used[1])
    be = (a.view(_U) >> _U(52)) & _U(0x7FF)
    special = np.flatnonzero((be == 0x7FF) | ((be == 0) & (a != 0)))
    if len(special):
        _patch(out, a, special)
        lo, hi = 0, _W
    return out[:, lo:hi]
