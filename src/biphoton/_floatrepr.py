"""The text ``repr`` gives each float of an array, computed for the whole array.

``csv_lines(block)`` returns the CSV lines of a 2-D float64 block,
byte-identical to ``",".join(map(repr, row)) + "\\n"`` for each row, and
``csv_chunks(array)`` yields those of an array block by block.

The digits are the shortest that read back to the same float and, among
those, the closest to it (ties to an even last digit): Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), whose digits
are also those of Ryū (U. Adams, PLDI 2018) and of the dtoa behind
``repr``. Its products of a 128-bit power of ten and a significand below
2^60 are built from 30-bit limbs on ``uint64`` arrays. The layout is
``repr``'s: with the float written 0.d₁d₂…dₙ × 10^decpt, fixed notation
for −4 < decpt ≤ 16, else ``d.ddde±XX``; and ``0.0``, ``-0.0``, ``inf``,
``-inf`` and ``nan``.

Each float becomes a 32-byte cell, four little-endian ``uint64`` words,
padded with NUL bytes that are dropped from the block's bytes at the end:

    bytes 0-6    sign, then "0." and up to three zeros when decpt ≤ 0
    bytes 7-24   the digits, with the point after the first one (exponent
                 form, n > 1) or after digit decpt (fixed, decpt ≥ 1)
    bytes 25-29  "e±XX" or "e±XXX"
    byte 31      the separator

Every integer constant that meets a ``uint64`` array is an ``np.uint64``,
and ``uint64`` and ``int64`` arrays never meet in one operation: numpy 1.x
would promote that mix to float64.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: floats formatted at once by ``csv_chunks``: enough to spread numpy's cost
#: per call, few enough that the temporaries stay small
BLOCK_VALUES = 8192

_U = np.uint64
_WORD = np.dtype("<u8")
_M30 = _U((1 << 30) - 1)
_FRACTION = _U((1 << 52) - 1)
_EXPONENT_BITS = _U(0x7FF << 52)
_ASCII_ZEROS = _U(0x3030303030303030)
#: 10^0 … 10^17: the digit count of an integer is how many of them it reaches
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
#: decpt of the smallest and largest floats, 5e-324 and 1.7976931348623157e308
_DECPT_MIN, _DECPT_MAX = -323, 309
#: decpt outside the fixed range is clipped to one of these two
_FIXED_MIN, _FIXED_MAX = -3, 16


def _pow10(e: int) -> int:
    """⌊10^e · 2^(127 − ⌊log₂ 10^e⌋)⌋ + 1, in (2^127, 2^128]."""
    if e >= 0:
        r = (10**e).bit_length() - 1
        return ((10**e << (127 - r)) if r <= 127 else (10**e >> (r - 127))) + 1
    r = -(10**-e).bit_length()  # 10^-e is no power of two
    return (1 << (127 - r)) // 10**-e + 1


def _scale_tables():
    """What Schubfach needs of a float's exponent field f and of ``fraction == 0``.

    Indexed by 2f + (fraction == 0). The decimal exponent k = ⌊log₁₀ 2^q⌋, or
    ⌊log₁₀ ¾·2^q⌋ when the float below is the nearer one (a zero fraction
    and f > 1), as ``int64``; and as ``uint64`` rows: the hidden bit, the
    shift 2 + h that scales the significand c so that its product with
    ``_pow10(−k)`` has its point at bit 128, the distances from the scaled c
    to the ends of its rounding interval, and the five 30-bit limbs of
    ``_pow10(−k)``, low limb first: 617 powers in all.
    """
    field = np.arange(4096) >> 1
    closer = (np.arange(4096) & 1) & (field > 1)
    q = np.maximum(field, 1) - 1075
    k = (q * 1262611 - closer * 524031) >> 22
    h = q + ((-k * 1741647) >> 19) + 1  # 1 … 4
    powers = [_pow10(e) for e in range(-k.max(), -k.min() + 1)]
    limbs = np.array([[p >> (30 * j) & 0x3FFFFFFF for p in powers] for j in range(5)],
                     dtype=np.uint64)
    rows = np.array([np.minimum(field, 1) << 52, h + 2, (2 - closer) << h, 2 << h],
                    dtype=np.uint64)
    return k, np.concatenate([rows, limbs[:, k.max() - k]])


def _cells(cells) -> np.ndarray:
    """32-byte cells, each padded with NULs, as rows of four words."""
    return np.frombuffer(b"".join(c.ljust(32, b"\0") for c in cells), dtype=_WORD).reshape(-1, 4)


def _layout_table() -> np.ndarray:
    """Per (decpt clipped to −4 … 17, digit count n): eight words of a cell.

    Digit j of 17 sits at byte 7 + j; those past n are zeros, which fixed
    notation shows up to the point and one after it (123.0, 1000.0). Rows:
    the prefix word 0 (sign excluded), the masks of words 1 and 2 that keep
    the digits left of the point, the masks of words 1, 2 and 3 that keep
    those right of it from the digits shifted up one byte, and the point in
    words 1 and 2. Digit 0 is always shown and unshifted.
    """
    cells = []
    for decpt in range(_FIXED_MIN - 1, _FIXED_MAX + 2):
        for n in range(1, 18):
            if not _FIXED_MIN <= decpt <= _FIXED_MAX:
                left, right, point, prefix = 1, n, 1 if n > 1 else None, b""
            elif decpt <= 0:
                left, right, point, prefix = n, n, None, b"0." + b"0" * -decpt
            else:
                left, right, point, prefix = decpt, max(n, decpt + 1), decpt, b""
            marks = bytearray(b"\0" + prefix.ljust(31, b"\0"))
            if point is not None:
                marks[7 + point] = ord(".")
            cells += [bytes(marks), b"\0" * 7 + b"\xff" * left,
                      b"\0" * (8 + left) + b"\xff" * (right - left)]
    marks, keep_left, keep_right = _cells(cells).reshape(-1, 3, 4).transpose(1, 2, 0)
    return np.stack([marks[0], *keep_left[1:3], *keep_right[1:4], *marks[1:3]])


def _exponent_words() -> np.ndarray:
    """The last word of a cell per decpt: "e±XX" outside the fixed range, and the ","."""
    cells = []
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        fixed = _FIXED_MIN <= decpt <= _FIXED_MAX
        exponent = b"" if fixed else b"e%+03d" % (decpt - 1)
        cells.append(b"\0" * 25 + exponent.ljust(6, b"\0") + b",")
    return _cells(cells)[:, 3].copy()


_K, _SCALE = _scale_tables()
_LAYOUT = _layout_table()
_EXPONENT_WORDS = _exponent_words()
#: whole cells of inf, -inf and nan (any sign)
_SPECIAL = _cells([b"\0" * 7 + b"inf".ljust(24, b"\0") + b",",
                   b"-" + b"\0" * 6 + b"inf".ljust(24, b"\0") + b",",
                   b"\0" * 7 + b"nan".ljust(24, b"\0") + b","])


def _round_to_odd(g, cp) -> np.ndarray:
    """⌊g·cp / 2^128⌋, its lowest bit set when the fraction dropped is at least 2^-63.

    ``g`` ≤ 2^128 is five 30-bit limbs, low limb first, and ``cp`` < 2^60,
    so each product of limbs and each column sum of two stays below 2^62.
    With g one above 10^-k scaled, this is Schubfach's rounding to odd of
    cp · 10^-k / 2^(…): it keeps every comparison with an even integer exact.
    """
    g0, g1, g2, g3, g4 = g
    c0, c1 = cp & _M30, cp >> _U(30)
    # column t of the product is Σ g_i·c_j over i + j = t, plus the carry from t − 1
    col = g1 * c0 + g0 * c1 + ((g0 * c0) >> _U(30))
    col = g2 * c0 + g1 * c1 + (col >> _U(30))
    dropped = (col & _M30) >> _U(5)  # bits 65-89
    col = g3 * c0 + g2 * c1 + (col >> _U(30))
    dropped |= col & _M30  # bits 90-119
    col = g4 * c0 + g3 * c1 + (col >> _U(30))
    dropped |= col & _U(0xFF)  # bits 120-127
    top = ((col & _M30) >> _U(8)) | ((g4 * c1 + (col >> _U(30))) << _U(22))
    return top | (dropped != 0)


def _shortest(bits: np.ndarray):
    """Shortest digits of finite non-zero floats: (integer d, exponent e), |x| = d · 10^e."""
    fraction = bits & _FRACTION
    index = (bits >> _U(51)) & _U(0xFFE)
    index |= fraction == 0
    hidden, shift, below, above, *g = _SCALE[:, index]
    c = fraction | hidden
    cb = c << shift
    # the float and the ends of its rounding interval, times 4 · 10^-k
    lower, vb, upper = _round_to_odd(g, np.stack([cb - below, cb, cb + above]))
    odd = c & _U(1)  # an even c keeps the ends of its rounding interval
    lower += odd
    upper -= odd
    s = vb >> _U(2)
    # one digit fewer: the single multiple of 10 between the ends, if just one
    # is (s < 10 only for 5e-324 and 1e-323, where no such multiple is inside)
    sp = s // _U(10)
    up_in = lower <= sp * _U(40)
    wp_in = sp * _U(40) + _U(40) <= upper
    use_sp = up_in != wp_in
    u_in = lower <= s * _U(4)
    w_in = s * _U(4) + _U(4) <= upper
    mid = s * _U(4) + _U(2)
    round_up = (vb > mid) | ((vb == mid) & ((s & _U(1)) == 1))
    digits = np.where(use_sp, sp + wp_in, s + np.where(u_in != w_in, w_in, round_up))
    return digits, _K[index] + use_sp


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10^8 as the bytes of a word, first digit lowest."""
    hi = x // _U(10000)
    v = hi | ((x - hi * _U(10000)) << _U(32))
    hi = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # each 32-bit half // 100
    v = hi | ((v - hi * _U(100)) << _U(16))
    hi = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # each 16-bit quarter // 10
    return hi | ((v - hi * _U(10)) << _U(8))


def csv_lines(block: np.ndarray) -> str:
    """The CSV lines of a 2-D float64 block, each cell the ``repr`` of its float."""
    rows, cols = block.shape
    bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(np.uint64)
    nonfinite = (bits & _EXPONENT_BITS) == _EXPONENT_BITS
    digits, e10 = _shortest(bits)
    # 0.0, and the cells overwritten below: decpt 1 and the single digit 0
    unformatted = nonfinite | ((bits << _U(1)) == 0)
    digits[unformatted] = 0
    e10[unformatted] = 1

    length = np.searchsorted(_POW10, digits, side="right")
    decpt = length + e10
    # 17 digits, trailing zeros included: the first, then two words of eight
    first, rest = np.divmod(digits * _POW10[17 - length], _U(10**16))
    words = _eight_digits(np.stack(np.divmod(rest, _U(10**8))))
    # trailing zero digits: the zero bytes above the highest set bit of each word
    zeros = (64 - np.frexp(words.astype(np.float64))[1]) >> 3
    n = 17 - np.where(zeros[1] == 8, 8 + zeros[0], zeros[1])
    words += _ASCII_ZEROS

    key = (np.clip(decpt, _FIXED_MIN - 1, _FIXED_MAX + 1) - (_FIXED_MIN - 1)) * 17 + n - 1
    prefix, left1, left2, right1, right2, right3, point1, point2 = _LAYOUT[:, key]
    first += _U(48)
    high, low = words
    cell = np.empty((len(bits), 4), dtype=_WORD)
    cell[:, 0] = (first << _U(56)) | prefix | ((bits >> _U(63)) * _U(ord("-")))
    cell[:, 1] = (high & left1) | (((high << _U(8)) | first) & right1) | point1
    cell[:, 2] = (low & left2) | (((low << _U(8)) | (high >> _U(56))) & right2) | point2
    cell[:, 3] = ((low >> _U(56)) & right3) | _EXPONENT_WORDS[decpt - _DECPT_MIN]
    if nonfinite.any():
        special = np.flatnonzero(nonfinite)
        nan = (bits[special] & _FRACTION) != 0
        cell[special] = _SPECIAL[np.where(nan, 2, bits[special] >> _U(63))]
    text = cell.view(np.uint8).reshape(rows, cols, 32)
    text[:, -1, 31] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


def csv_chunks(array: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D float64 array, in text chunks of whole rows, in order."""
    rows = max(1, BLOCK_VALUES // array.shape[1])
    for start in range(0, len(array), rows):
        yield csv_lines(array[start:start + rows])
