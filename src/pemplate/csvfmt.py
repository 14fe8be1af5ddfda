"""Numeric CSV tables in exactly the bytes of ``"%.17g" %``, at array speed.

CPython's ``%`` conversion is correctly rounded (Gay, 1990) but costs about
a microsecond per double. Here each value x != 0 is scaled to
s = |x| * 10**(16 - e), e = floor(log10 |x|), in [1e16, 1e17); its nearest
integer N holds the 17 significant digits (the scaled-integer idea of Ryu,
Adams 2018). s is held in float64 as p + q: the power is tabulated as
hi + lo, both correctly rounded from the exact integer ratio, |x| * hi is
p + q0 exactly by Dekker's TwoProduct with a Veltkamp split (Numer. Math.
18, 1971), and q = q0 + |x| * lo. p >= 2**53 is an integer, so
N = p + round(q). With u = 2**-53 and s < 2**57, lo's own rounding and that
of |x| * lo each move s by at most u**2 * s < 2**-49, and the sum q
(|q| <= 8 + 16) by half an ulp of 2**4, 2**-49: s is off by less than
2**-47. ``MARGIN`` is 2**7 times that. Where q's fraction lies within it
of 0.5 (every exact tie, and about 2**-39 of other values) the rounding of
N is uncertain, and ``%`` formats the value; so it does ±0, inf, nan and
|x| outside ``_RANGE``, where the power or a split half would leave the
normal range.

Each value becomes a 32-byte cell of four little-endian words, by the C
``%g`` rules (fixed notation for exponents -4 <= X < 17, else ``e±XX``;
trailing zeros and a bare ``.`` dropped): the head (sign, ``0.`` and up to
three zeros below 1, the first digit, the point after it); digits 1-8 and
9-16 from a base-10000 ASCII table, cut to their length, with a fixed
point inserted at its byte; the tail (the digit the point pushed out, the
exponent text, the delimiter). ``bytes.translate`` drops the 0 bytes left.
"""

from __future__ import annotations

from functools import cache
from types import SimpleNamespace

import numpy as np

FMT = "%.17g"
# rows formatted per pass; the temporaries cost about 200 B per cell
CHUNK = 256
MARGIN = 2.0 ** -40
_RANGE = 1e-280, 1e280
# the decimal exponents in _RANGE, one more each side for the correction
# of floor(log10 |x|); the tables are indexed by e - _E_MIN
_E_MIN, _E_MAX = -282, 281
_SPLIT = 2.0 ** 27 + 1  # Veltkamp: halves of at most 26 significant bits


def _split(v):
    c = _SPLIT * v
    high = c - (c - v)
    return high, v - high


def _power(k):
    """10**k as (hi, lo): hi correctly rounded, lo the correctly rounded
    rest. int / int true division is correctly rounded in CPython."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


@cache
def _tables():
    """The lookup tables, built on the first call."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    hi, lo = np.array([_power(k) for k in (16 - e).tolist()]).T
    # the head's '0.' and zeros below 1 (at byte 1), the tail's exponent
    # text (at byte 1: 'e', sign, two or three digits)
    text = np.zeros((2, len(e)), np.uint64)
    for i, x in enumerate(e.tolist()):
        if -4 <= x < 0:
            text[0, i] = int.from_bytes(b"0." + b"0" * (-x - 1), "little") << 8
        elif not -4 <= x < 17:
            text[1, i] = int.from_bytes(f"e{x:+03d}".encode(), "little") << 8
    # the digits always written, and the point's place among them: after
    # digit 1..15 of words 1-2, 16 nowhere, 17 after the head's digit
    fixed = (-4 <= e) & (e < 17)
    place = np.array([np.where(fixed & (e >= 0), e + 1, 1),
                      np.where(~fixed | (e == 0), 17, np.where(e > 0, e, 16))],
                     np.int8)
    # [j, n]: word j + 1 with digits 1..n kept (n <= 16), or all of it
    masks = np.array([[(1 << 8 * min(max(n - 8 * j, 0), 8)) - 1
                       for n in range(18)] for j in (0, 1)], np.uint64)
    # [0, 17] the head's point, [1 + j, n] word j + 1's after digit n
    dots = np.zeros((3, 18), np.uint64)
    dots[0, 17] = ord(".") << 56
    for n in range(1, 16):
        dots[1 + n // 8, n] = ord(".") << 8 * (n % 8)
    digits = np.indices((10,) * 4, dtype=np.uint64).reshape(4, -1) + ord("0")
    return SimpleNamespace(
        scale=np.stack([hi, *_split(hi), lo]), text=text, place=place,
        masks=masks, dots=dots,
        # the four ASCII digits of 0..9999, the first in the low byte
        quad=sum(digits[j] << np.uint64(8 * j) for j in range(4)),
        first=(np.arange(10, dtype=np.uint64) + ord("0")) << np.uint64(48),
        trailing_zeros=sum(np.arange(10000) % 10 ** j == 0
                           for j in range(1, 5)).astype(np.int8))


def _scaled(a, e, t):
    """s = a * 10**(16 - e) as the pair (p, q)."""
    hi, hi_high, hi_low, lo = np.take(t.scale, e - _E_MIN, axis=1)
    a_high, a_low = _split(a)
    p = a * hi
    q = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) \
        + a_low * hi_low
    return p, q + a * lo


def _scaled_digits(x, t):
    """(N, e, fallback) of the flat ``x``: 17 significant digits N, decimal
    exponent e, and the mask of values that ``%`` must format."""
    a = np.abs(x)
    fallback = ~((a >= _RANGE[0]) & (a < _RANGE[1]))
    a[fallback] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p, q = _scaled(a, e, t)
    # log10 rounded across a power of ten: s outside [1e16, 1e17)
    off = ((p - 1e17) + q >= 0).astype(np.intp) - ((p - 1e16) + q < 0)
    if off.any():
        e += off
        p, q = _scaled(a, e, t)
    r = np.rint(q)
    fallback |= np.abs(q - r) >= 0.5 - MARGIN
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    return n, e + carry, fallback


class Columns:
    """A table given as column blocks side by side, each a 1-D array (one
    column) or a 2-D one, all with the same number of rows; ``len`` is that
    number. :meth:`chunks` stacks the blocks one chunk of rows at a time,
    so the whole table is never copied."""

    def __init__(self, *blocks):
        self.blocks = blocks

    def __len__(self):
        return len(self.blocks[0])

    def chunks(self):
        blocks = [np.asarray(b, dtype=np.float64) for b in self.blocks]
        blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
        for start in range(0, len(self), CHUNK):
            yield np.concatenate([b[start:start + CHUNK] for b in blocks],
                                 axis=1)


def format_rows(table):
    """Yields the bytes of ``table`` as CSV lines, ``CHUNK`` rows at a
    time: cells ``"%.17g" % v`` separated by ``,``, each row ended by a
    newline. ``table`` is a real 2-D array or has ``len`` and ``chunks()``,
    which yields its rows as 2-D real arrays of ``CHUNK`` rows, the last
    of fewer (:class:`Columns`)."""
    if isinstance(table, np.ndarray):
        table = Columns(table)
    t = _tables()
    cells = None
    for rows in table.chunks():
        if cells is None:
            delims = np.full((min(CHUNK, len(table)), rows.shape[1]),
                             ord(",") << 48, np.uint64)
            delims[:, -1] = ord("\n") << 48
            cells = np.empty((delims.size, 4), np.uint64)
        x = rows.ravel()
        m = len(x)
        n, e, fallback = _scaled_digits(x, t)
        prefix, exponent = np.take(t.text, e - _E_MIN, axis=1)
        lead, place = np.take(t.place, e - _E_MIN, axis=1)
        # the first digit, and four groups of four: n's leading 1, 5, 9, 13
        # and 17 digits less 10**4 times the ones before (np.divmod is slower)
        leading = [*(n // 10 ** k for k in (16, 12, 8, 4)), n]
        groups = [b - a * 10 ** 4 for a, b in zip(leading, leading[1:])]
        length, zero = 17, True  # significant digits
        for g in groups[::-1]:
            length = length - zero * t.trailing_zeros[g]
            zero = zero & (g == 0)
        place = np.where(length > lead, place, 16)
        cells[:m, 0] = (t.first[leading[0]] | prefix | t.dots[0, place]
                        | (x < 0) * np.uint64(ord("-")))
        keep = np.take(t.masks, np.maximum(length, lead) - 1, axis=1)
        for j in (1, 2):
            cells[:m, j] = keep[j - 1] & (t.quad[groups[2 * j - 2]]
                                          | t.quad[groups[2 * j - 1]] << np.uint64(32))
        cells[:m, 3] = exponent | delims.ravel()[:m]
        # a point after digit 1..15: the bytes after it move up one; word 2
        # goes first, so the byte word 1 pushes out lands in its freed byte 0
        i = np.flatnonzero(place < 16)
        words, place = cells[i], place[i]
        for j in (2, 1):
            before = t.masks[j - 1, place]
            after = words[:, j] & ~before
            words[:, j] = (words[:, j] & before | t.dots[j, place]
                           | after << np.uint64(8))
            words[:, j + 1] |= after >> np.uint64(56)
        cells[i] = words
        if fallback.any():
            text = np.array([FMT % v for v in x[fallback].tolist()], "S30")
            cells[:m].view(np.uint8)[fallback, :30] = \
                text.view(np.uint8).reshape(-1, 30)
        yield cells[:m].tobytes().translate(None, b"\0")
