"""Numeric CSV tables in exactly the bytes of ``"%.17g" %``, at array speed.

CPython's ``%`` conversion is correctly rounded (Gay, 1990) but costs about
a microsecond per double. Here each value x != 0 is scaled in
``np.longdouble`` to s = |x| * 10**(16 - e), e = floor(log10 |x|), so that s
lies in [1e16, 1e17); its nearest integer N holds the 17 significant digits
(the scaled-integer idea of Ryu, Adams 2018). s carries two roundings (the
power and the product), so where the fraction of s lies within ``MARGIN`` of
0.5 the rounding of N is uncertain, and that value, like every non-finite
value and ±0, is formatted by ``%`` itself. So is every value where
``np.longdouble`` has fewer than 63 mantissa bits (where it is ``float64``):
there the output is the same, only slower.

Digits come from a base-10000 lookup table and are laid out by the C ``%g``
rules (fixed notation for exponents -4 <= X < 17, else ``e±XX``; trailing
zeros and a bare ``.`` dropped) into fixed-width cells whose unused bytes are
0, which ``bytes.translate`` removes. The tables are built on first use.
"""

from __future__ import annotations

from functools import cache
from types import SimpleNamespace

import numpy as np

FMT = "%.17g"
# rows formatted per pass; the temporaries cost about 200 B per cell
CHUNK = 256
# 63 on x87 extended precision; with fewer (float64) the scaled s cannot
# hold 17 digits and a rounding fraction
MANTISSA_BITS = np.finfo(np.longdouble).nmant
# two roundings of at most eps/2 each, and s < 2**57:
# |s_computed - s| <= s * (eps + eps**2 / 4) < 2**57 * eps
MARGIN = 2 ** 57 * float(np.finfo(np.longdouble).eps)

# decimal exponents e of finite doubles (-324..308), one more on each side
# for the correction of floor(log10 |x|); the tables are indexed by e - _E_MIN
_E_MIN, _E_MAX = -325, 309

# Each value's 32-byte source row: bytes 0-7 the constants 0 '.' '0' 'e',
# the sign ('-' or 0), the point ('.', or 0 with no fraction digit left) and
# the delimiter; bytes 8-11 the exponent text; byte 15 the leading digit and
# bytes 16-31 the other 16, as four base-10000 groups.
_NUL, _POINT, _ZERO, _E, _SIGN, _DOT, _DELIM = range(7)
_EXP, _DIGITS = 8, 15
_ROW = 32
_WIDTH = 25  # sign, 23 body bytes at most ('d.' 16 digits 'e-308'), delimiter


def _template(x_exp):
    """Source-row indices of a cell of decimal exponent ``x_exp``
    (``None``: exponential notation)."""
    digits = [_DIGITS + j for j in range(17)]
    if x_exp is None:
        body = [digits[0], _DOT, *digits[1:], _E, *range(_EXP, _EXP + 4)]
    elif x_exp >= 0:
        body = [*digits[:x_exp + 1], _DOT, *digits[x_exp + 1:]]
    else:
        body = [_ZERO, _POINT, *[_ZERO] * (-x_exp - 1), *digits]
    cell = [_SIGN, *body]
    return cell + [_NUL] * (_WIDTH - 1 - len(cell)) + [_DELIM]


@cache
def _tables():
    """The lookup tables, built on the first vectorized call."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (-4 <= e) & (e < 17)
    # the four ASCII digits of 0..9999 (as one little-endian uint32 each, so
    # the first digit is the low byte)
    ascii4 = np.ascontiguousarray(
        np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0"))
    # the exponent text, '+'/'-' and three digits; C prints at least two,
    # so a 0 byte stands for the third when it would be a leading zero
    exp_text = np.column_stack([np.where(e < 0, ord("-"), ord("+")),
                                ascii4[np.abs(e), 1:]]).astype(np.uint8)
    exp_text[np.abs(e) < 100, 1] = 0
    return SimpleNamespace(
        # 10**(16 - e), parsed (so correctly rounded) from its decimal string
        pow10=np.array([f"1e{16 - k}" for k in e], dtype=np.longdouble),
        # digits before the point: e + 1 in fixed notation (<= 0 below 1)
        point_at=np.where(fixed, e + 1, 1),
        exp_text=exp_text.view("<u4").ravel(),
        quad=ascii4.view("<u4").ravel(),
        trailing_zeros=sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5)),
        # [n]: the masks keeping the first n - 1 - 4j bytes (0..4) of group j
        keep=((1 << 8 * np.clip(np.arange(18)[:, None] - 1 - 4 * np.arange(4),
                                0, 4)) - 1).astype("<u4"),
        # one per exponent: fixed notation's 21 templates, else exponential
        templates=np.array([_template(x) for x in range(-4, 17)]
                           + [_template(None)], dtype=np.intp)[
                               np.where(fixed, e + 4, 21)],
    )


def _scaled_digits(x, pow10):
    """(N, e, fallback) of the flat ``x``: 17 significant digits N, decimal
    exponent e, and the mask of values that ``%`` must format."""
    a = np.abs(x)
    fallback = ~np.isfinite(a) | (a == 0)
    a[fallback] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    a = a.astype(np.longdouble)
    s = a * pow10[e - _E_MIN]
    off = (s >= 1e17).astype(np.intp) - (s < 1e16)
    if off.any():  # log10 rounded across a power of ten
        e += off
        s = a * pow10[e - _E_MIN]
    n = s.astype(np.int64)
    frac = (s - n).astype(np.float64)
    fallback |= np.abs(frac - 0.5) <= MARGIN
    n += frac > 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    return n, e, fallback


def format_rows(table):
    """Yields the bytes of ``table`` (2-D, real) as CSV lines, ``CHUNK``
    rows at a time: cells ``"%.17g" % v`` separated by ``,``, each row ended
    by a newline."""
    table = np.asarray(table, dtype=np.float64)
    if MANTISSA_BITS < 63:
        yield "".join(",".join(FMT % v for v in row) + "\n"
                      for row in table.tolist()).encode()
        return
    t = _tables()
    n_cols = table.shape[1]
    size = min(CHUNK, len(table)) * n_cols
    # bytes 0-7 of the source rows of one table row
    heads = np.zeros((n_cols, 8), np.uint8)
    heads[:, _POINT], heads[:, _ZERO], heads[:, _E] = b".0e"
    heads[:, _DELIM] = ord(",")
    heads[-1, _DELIM] = ord("\n")
    heads = np.tile(heads.view("<u8").ravel(), size // n_cols)
    rows = np.empty((size, _ROW), np.uint8)
    words = rows.view("<u4")
    index = np.empty((size, _WIDTH), np.intp)
    starts = (np.arange(size) * _ROW)[:, None]
    for start in range(0, len(table), CHUNK):
        x = table[start:start + CHUNK].ravel()
        m = len(x)
        n, e, fallback = _scaled_digits(x, t.pow10)
        rows[:m].view("<u8")[:, 0] = heads[:m]
        rows[:m, _SIGN] = (x < 0) * np.uint8(ord("-"))
        trailing = np.zeros(m, np.intp)
        zero = np.ones(m, bool)
        for j in range(7, 3, -1):  # base-10000 groups, the last one first
            group = n % 10000
            n //= 10000
            words[:m, j] = t.quad[group]
            trailing += zero * t.trailing_zeros[group]
            zero &= group == 0
        rows[:m, _DIGITS] = ord("0") + n
        # keep the digits up to the last nonzero one and, in fixed
        # notation, all before the point
        ei = e - _E_MIN
        point = t.point_at[ei]
        length = np.maximum(17 - trailing, point)
        words[:m, 4:] &= t.keep[length]
        rows[:m, _DOT] = (length > point) * np.uint8(ord("."))
        words[:m, _EXP // 4] = t.exp_text[ei]
        np.take(t.templates, ei, axis=0, out=index[:m])
        index[:m] += starts[:m]
        cells = np.take(rows, index[:m])
        if fallback.any():
            text = np.array([FMT % v for v in x[fallback].tolist()],
                            dtype=f"S{_WIDTH - 1}")
            cells[fallback, :-1] = text.view(np.uint8).reshape(-1, _WIDTH - 1)
        yield cells.tobytes().translate(None, b"\0")
