"""The text ``repr`` gives each float of an array, computed for the whole array.

``csv_lines(block)`` returns the CSV lines of a 2-D float64 block,
byte-identical to ``",".join(map(repr, row)) + "\\n"`` for each row, and
``csv_chunks(array)`` yields those of an array block by block.

The digits are the shortest that read back to the same float and, among
those, the closest to it (ties to an even last digit), found as Dragonbox
finds them (J. Jeon, "Dragonbox: a new floating-point binary-to-decimal
conversion algorithm", 2020); they are also those of Schubfach, Ryū and
the dtoa behind ``repr``. Each float takes one product of its significand
and a 128-bit power of ten, built from 30-bit limbs on ``uint64`` arrays.
The few whose digits hang on an end of the rounding interval or on a tie
take a second product, on that subset of the block alone. Inf, nan and the
powers of two above 2^-1022, whose interval is shorter below, take ``repr``
itself, cell by cell. The layout is ``repr``'s: with the float written
0.d₁d₂…dₙ × 10^decpt, fixed notation for −4 < decpt ≤ 16, else
``d.ddde±XX``; and ``0.0`` and ``-0.0``.

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
_ASCII_ZEROS = _U(0x3030303030303030)
#: 10^0 … 10^17: the digit count of an integer is how many of them it reaches
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
#: decpt of the smallest and largest floats, 5e-324 and 1.7976931348623157e308
_DECPT_MIN, _DECPT_MAX = -323, 309
#: decpt outside the fixed range is clipped to one of these two
_FIXED_MIN, _FIXED_MAX = -3, 16
#: the powers 10^K the tables hold
_K_MIN, _K_MAX = -292, 326


def _powers() -> np.ndarray:
    """⌈10^K · 2^(127 − ⌊log₂ 10^K⌋)⌉ for K = _K_MIN … _K_MAX: two words each, low first."""
    powers, p = {}, 1
    for k in range(max(-_K_MIN, _K_MAX) + 1):
        powers[-k] = -((-1 << 127 + p.bit_length()) // p)  # for k ≥ 1: no power of two
        powers[k] = -(-p << 128 >> p.bit_length())  # exact for k ≤ 55
        p *= 10
    data = b"".join(powers[k].to_bytes(16, "little") for k in range(_K_MIN, _K_MAX + 1))
    return np.frombuffer(data, dtype=_WORD).reshape(-1, 2)


def _scale_tables():
    """What the digit core needs of a float's exponent field f and of ``fraction == 0``.

    Indexed by 2f + (fraction == 0), for the significand c at binary exponent
    e = max(f, 1) − 1075. Times 10^K, K = 2 − ⌊log₁₀ 2^e⌋, the rounding
    interval (2c ± 1)·2^(e−1) is δ = 2^e·10^K ∈ [100, 1000) wide. Rows: the
    hidden bit and the 30-bit limbs of φ·2^β, for φ the power 10^K and β = e
    + ⌊log₂ 10^K⌋, so that ⌊φ·2^β / 2^127⌋ = ⌊δ⌋; the exponent 2 − K of the
    last digit, 1 for zeros, whose digits come out 0; and the rows that take
    ``repr`` instead: inf and nan (f = 2047), and a zero fraction at f > 1,
    whose interval [c − ½, c + 1]·2^e is shorter below.
    """
    words = _powers()
    index = np.arange(4096)
    field = index >> 1
    e = np.maximum(field, 1) - 1075
    exponent = (e * 315653) >> 20  # ⌊log₁₀ 2^e⌋
    beta = (e + (((2 - exponent) * 1741647) >> 19)).astype(np.uint64)
    low, high = words[2 - exponent - _K_MIN].T
    w0, w1, w2 = low << beta, (high << beta) | (low >> (_U(64) - beta)), high >> (_U(64) - beta)
    scale = np.array([np.minimum(field, 1) << 52, w0 & _M30, (w0 >> _U(30)) & _M30,
                      (w0 >> _U(60)) | ((w1 << _U(4)) & _M30), (w1 >> _U(26)) & _M30,
                      (w1 >> _U(56)) | (w2 << _U(8))], dtype=np.uint64)

    exponent[1] = 1
    return scale, exponent, (field == 2047) | ((index & 1 == 1) & (field > 1))


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


_SCALE, _E10, _REPR = _scale_tables()
_LAYOUT = _layout_table()
_EXPONENT_WORDS = _exponent_words()


def _product(g, u):
    """⌊g·u / 2^128⌋, and whether bits 64-127 of g·u are all zero.

    ``g`` < 2^150 is five 30-bit limbs, low limb first, and ``u`` < 2^60, so
    each product of limbs and each column sum of two stays below 2^62. With
    g = φ·2^β, that is Dragonbox's operand times 10^K and its integer test.
    """
    g0, g1, g2, g3, g4 = g
    u0, u1 = u & _M30, u >> _U(30)
    # column t of the product is Σ g_i·u_j over i + j = t, plus the carry from t − 1
    col = g1 * u0 + g0 * u1 + ((g0 * u0) >> _U(30))
    col = g2 * u0 + g1 * u1 + (col >> _U(30))
    fraction = (col & _M30) >> _U(4)  # bits 64-89
    col = g3 * u0 + g2 * u1 + (col >> _U(30))
    fraction |= col & _M30  # bits 90-119
    col = g4 * u0 + g3 * u1 + (col >> _U(30))
    fraction |= col & _U(0xFF)  # bits 120-127
    top = ((col & _M30) >> _U(8)) | ((g4 * u1 + (col >> _U(30))) << _U(22))
    return top, fraction == 0


def _shortest(bits: np.ndarray, index: np.ndarray):
    """Shortest digits of each float, |x| = d · 10^e: (d, its digit count, e).

    ``index`` is each float's row of the tables. Zeros give no digits at 10^1.
    """
    scale = _SCALE.take(index, axis=1)
    c, g = (bits & _FRACTION) | scale[0], scale[1:]
    # ⌊z⌋ = 1000·s + r for the upper end z: 1000·s, the one multiple of 1000
    # that the interval may hold, is inside if r < ⌊δ⌋, unless it is z and
    # z is excluded (odd c); at r = ⌊δ⌋ it is inside if it is ⌊x⌋ + 1 for the
    # lower end x (⌊x⌋ odd), or x and x is included (even c)
    z = _product(g, (c << _U(1)) | _U(1))[0]
    s = z // _U(1000)
    r = z - s * _U(1000)
    delta = g[4] >> _U(7)
    inside = r < delta
    ends = np.flatnonzero((r == _U(0)) | (r == delta))
    upper, even = r[ends] == _U(0), c[ends] & _U(1) == 0
    end, whole = _product(g[:, ends], (c[ends] << _U(1)) - _U(1) + upper * _U(2))
    inside[ends] = np.where(upper, ~whole | even, (end & _U(1) == 1) | (whole & even))
    # else the multiple of 100 nearest the float y = z − δ/2; 1000 is added so
    # that an excluded z (r = 0) reads as s − 1 and r = 1000
    dist = r + _U(1050) - (delta >> _U(1))
    q = dist // _U(100)
    # on a multiple of 100, ⌊y⌋ is even (1000·s + r − ⌊δ/2⌋) or one less, and
    # y is a tie if it is that integer; ties go to the even digit
    ties = np.flatnonzero(dist == q * _U(100))
    y, whole = _product(g[:, ties], c[ties] << _U(1))
    q[ties] -= (y | (q[ties] * whole)) & _U(1)
    digits = s * _U(10) + np.where(inside, _U(10), q) - _U(10)
    length = 16 + (digits >= _U(10**16))  # for normal floats
    small = np.flatnonzero(index < _U(2))  # subnormals and zeros
    length[small] = np.searchsorted(_POW10, digits[small], side="right")
    return digits, length, _E10[index]


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
    index = ((bits >> _U(51)) & _U(0xFFE)) | ((bits & _FRACTION) == 0)
    digits, length, e10 = _shortest(bits, index)
    decpt = length + e10
    # 17 digits, trailing zeros included: the first, then two words of eight
    scaled = digits * _POW10[17 - length]
    first = scaled // _U(10**16)
    rest = scaled - first * _U(10**16)
    high = rest // _U(10**8)
    words = _eight_digits(np.stack([high, rest - high * _U(10**8)]))
    # trailing zero digits: the zero bytes above the highest set bit of each word
    zeros = (64 - np.frexp(words.astype(np.float64))[1]) >> 3
    n = 17 - np.where(zeros[1] == 8, 8 + zeros[0], zeros[1])
    words += _ASCII_ZEROS

    key = (np.clip(decpt, _FIXED_MIN - 1, _FIXED_MAX + 1) - (_FIXED_MIN - 1)) * 17 + n - 1
    prefix, left1, left2, right1, right2, right3, point1, point2 = _LAYOUT.take(key, axis=1)
    first += _U(48)
    high, low = words
    cell = np.empty((len(bits), 4), dtype=_WORD)
    cell[:, 0] = (first << _U(56)) | prefix | ((bits >> _U(63)) * _U(ord("-")))
    cell[:, 1] = (high & left1) | (((high << _U(8)) | first) & right1) | point1
    cell[:, 2] = (low & left2) | (((low << _U(8)) | (high >> _U(56))) & right2) | point2
    cell[:, 3] = ((low >> _U(56)) & right3) | _EXPONENT_WORDS[decpt - _DECPT_MIN]
    # inf, nan and the powers of two above 2^-1022: their cells above are replaced
    special = np.flatnonzero(_REPR[index])
    cell[special] = _cells(repr(x).encode().ljust(31, b"\0") + b","
                           for x in bits[special].view(np.float64).tolist())
    text = cell.view(np.uint8).reshape(rows, cols, 32)
    text[:, -1, 31] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


def csv_chunks(array: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D float64 array, in text chunks of whole rows, in order."""
    rows = max(1, BLOCK_VALUES // array.shape[1])
    for start in range(0, len(array), rows):
        yield csv_lines(array[start:start + rows])
