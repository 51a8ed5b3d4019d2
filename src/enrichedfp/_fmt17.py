"""Exact vectorised ``"%.17g" % x`` for float64 arrays, for the trace CSV.

A finite x with 1e-11 < |x| < 2**53 is m * 2**(E - 1075), with m < 2**53 and
E its biased exponent field.  With P = 16 - floor(log10 |x|),
|x| * 10**P = m * 5**P / 2**s for s = 1075 - E - P, and its floor q lies in
[1e16, 1e17): rounded half to even, q is the 17 significant digits, as
CPython's correctly rounded ``%.17g`` has them.  m * 5**P < 2**116 is formed
from 32x32-bit products and shifted right by s in 1..63, the remainder
deciding the rounding.  The arithmetic uses uint64 operands only, so numpy
1.x and 2.x promote alike, and no float decides a digit.  A floor outside the
range means the log10 estimate was off near a power of ten; such x, and every
x outside the fast range but ±0, are formatted one by one.

Slots of one formatted value, 0 where the value has no character::

    0 sign | 1-2 "0." | 3-5 zeros | 6 + 2j digit j | 7 + 2j "." after digit j
    | 39-42 "e-XX" | 43 always 0, for a caller's separator

The module is imported on first use, which also builds its layout table.
"""

from __future__ import annotations

import numpy as np

SLOTS = 44
_EXP_MIN, _EXP_MAX = -11, 15  # decimal exponents of the fast range, after rounding
_POW5 = np.uint64(5) ** np.arange(28, dtype=np.uint64)
_U1, _U10, _U32, _U52, _U64 = (np.uint64(v) for v in (1, 10, 32, 52, 64))
_LOW32 = np.uint64(2**32 - 1)
_MANTISSA, _HIDDEN_BIT = np.uint64(2**52 - 1), np.uint64(2**52)
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)


def _layout(exp10, nd, neg):
    """Row of _LAYOUTS for decimal exponent ``exp10``, ``nd`` digits and the sign."""
    return ((exp10 - _EXP_MIN) * 17 + nd - 1) * 2 + neg


def _layout_row(exp10: int, nd: int, neg: int) -> bytes:
    """Slot bytes of "%.17g" for a decimal exponent, ``nd`` significant digits and
    the sign: its sign, "0.", zero, "." and "e-XX" characters, "0" in each
    digit slot it uses and 0 elsewhere.
    """
    row = bytearray(SLOTS)
    row[0] = ord("-") * neg
    if exp10 >= -4:
        # fixed notation keeps every integer digit, trailing zeros included
        used = max(nd, exp10 + 1)
        if exp10 < 0:
            row[1:2 - exp10] = b"0.000"[:1 - exp10]
        elif nd > exp10 + 1:
            row[7 + 2 * exp10] = ord(".")
    else:
        used = nd
        if nd > 1:
            row[7] = ord(".")
        row[39:43] = b"e-%02d" % -exp10
    row[6:6 + 2 * used:2] = b"0" * used
    return bytes(row)


# Every layout, then the all-0 row _EMPTY.  A digit slot a layout does not use
# holds a trailing zero digit, so OR-ing the digit values into the slots
# completes the text.  Built in plain Python: array code would map in more of
# numpy than it saves time, for a table built once.
_LAYOUTS = np.frombuffer(
    b"".join(_layout_row(exp10, nd, neg) for exp10 in range(_EXP_MIN, _EXP_MAX + 1)
             for nd in range(1, 18) for neg in (0, 1)) + bytes(SLOTS),
    np.uint8,
).reshape(-1, SLOTS)
_EMPTY = len(_LAYOUTS) - 1


def _decimal17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each v, 1e-11 < v < 2**53: (q, exponent, ok).

    Where ok, v rounded half to even to 17 digits is q * 10**(exponent - 16);
    elsewhere the log10 estimate of the exponent was off.
    """
    # p <= 27 keeps 5**p in uint64; a p clamped there gives a floor out of range
    p = np.minimum(16 - np.floor(np.log10(v)).astype(np.int64), 27)
    bits = v.view(np.uint64)
    m = (bits & _MANTISSA) | _HIDDEN_BIT
    s = 1075 - (bits >> _U52).astype(np.int64) - p
    # s < 1 only near 2**53: shifting m left keeps s at 1 and m below 2**56
    m <<= np.maximum(1 - s, 0).astype(np.uint64)
    s = np.maximum(s, 1).astype(np.uint64)
    p5 = _POW5[p]
    ml, mh, pl, ph = m & _LOW32, m >> _U32, p5 & _LOW32, p5 >> _U32
    ll, lh, hl = ml * pl, ml * ph, mh * pl
    mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    lo = (mid << _U32) | (ll & _LOW32)
    q = ((mh * ph + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)) << (_U64 - s)) | (lo >> s)
    # the range test, 1e16 <= q < 1e17, is on the floor: a rounded q of 1e16 may
    # come from a floor below it.  q - 1e16 wraps around below 1e16.  Every uint64
    # test here is ">": one comparison loop, so a first call maps in less of numpy
    ok = _E17 - _E16 > q - _E16
    # half to even: up when the remainder is above half, or at half with q odd
    rem = lo & ((_U1 << s) - _U1)
    q += (rem + (q & _U1) > _U1 << (s - _U1)).astype(np.uint64)
    carry = q > _E17 - _U1  # q == 1e17
    q[carry] = _E16
    return q, 16 - p + carry, ok


def fmt_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``"%.17g" % v`` for each v in the 1-D float64 ``x``, in ASCII slots.

    Row i of the (len(x), SLOTS) uint8 result, ``out`` if given, holds the
    characters of the formatted x[i] in order and 0 in its other slots.
    """
    ax = np.abs(x)
    neg = np.signbit(x)
    # ±0 is "0" or "-0", the one-digit layout with no digit to add
    code = np.where(ax == 0, _layout(0, 1, neg), _EMPTY)
    fast = np.flatnonzero((ax > 1e-11) & (ax < 2.0**53))
    q, exp10, ok = _decimal17(ax[fast])
    fast, exp10 = fast[ok], exp10[ok]
    # digit j of x[i] in digits[j, i], all 0 off the fast path
    r = np.zeros(len(x), np.uint64)
    r[fast] = q[ok]
    digits = np.empty((17, len(x)), np.uint8)
    for j in range(16, -1, -1):
        r, d = r // _U10, r
        digits[j] = d - r * _U10
    # significant digits: up to the last nonzero one
    nd = 17 - (digits[::-1] != 0).argmax(axis=0)
    code[fast] = _layout(exp10, nd[fast], neg[fast])
    # every code is in range: "clip" only spares take a buffered copy into out
    out = _LAYOUTS.take(code, axis=0, out=out, mode="clip")
    out[:, 6:40:2] |= digits.T
    # every formatted value has its first digit in slot 6; the rest are "%.17g" one by one
    slow = np.flatnonzero(out[:, 6] == 0)
    text = np.fromiter((f"{v:.17g}" for v in x[slow].tolist()), "S24", len(slow))
    out[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    return out
