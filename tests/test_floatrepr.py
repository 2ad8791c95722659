"""The vectorized float formatter against ``repr``, the text it must reproduce."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biphoton._floatrepr import BLOCK_VALUES, csv_chunks, csv_lines


def repr_lines(block: np.ndarray) -> str:
    """Reference: the CSV lines of a 2-D float64 block, each cell the ``repr`` of its float."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def assert_reprs(values, cols=1):
    """``csv_lines`` of ``values`` in rows of ``cols`` equals the ``repr`` lines, cell by cell."""
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    got, expected = csv_lines(block), repr_lines(block)
    if got != expected:
        pairs = zip(got.replace("\n", ",").split(","), expected.replace("\n", ",").split(","))
        wrong = [(e, g) for g, e in pairs if g != e]
        pytest.fail(f"{len(wrong)} cells differ from repr, e.g. (repr, got): {wrong[:5]}")


def significands(exponent, residues, modulus, count=2000):
    """c · 2^exponent for the ``count`` smallest c ≥ 2^52 of each residue of c mod ``modulus``."""
    start = -(-2**52 // modulus) * modulus
    c = [start + modulus * k + r for r in residues for k in range(count)]
    return np.ldexp(np.array(c, dtype=np.float64), exponent)


def neighbours(values):
    """Each value with the floats just below and above it."""
    x = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def test_random_bit_patterns_over_all_exponents_and_signs():
    bits = np.random.default_rng(20201).integers(0, 2**64, 2 * 10**5, dtype=np.uint64)
    bits[::7] &= np.uint64((1 << 63) | ((1 << 52) - 1))  # subnormals of either sign
    values = bits.view(np.float64)
    assert np.isnan(values).any() and (values == 0).sum() < 10
    assert_reprs(values, cols=100)


def test_log_uniform_normals_of_both_signs():
    """10^6 floats, |x| log-uniform over the normal range: the regime of the CSVs.

    Counted in a scratch run of the same inputs: 1,312 reach the upper-end
    check (r = 0), 138 of them excluded; 1,261 the lower-end check (r = ⌊δ⌋),
    253 of them on an integer; and 10,481 the tie check, where 4,867 take
    the digit below and 661 are exact ties.
    """
    rng = np.random.default_rng(1_000_003)
    magnitudes = np.exp2(rng.uniform(-1022, 1024, 10**6))
    block = (magnitudes * rng.choice([-1.0, 1.0], 10**6)).reshape(-1, 1000)
    assert np.isfinite(block).all()
    assert "".join(csv_chunks(block)) == repr_lines(block)


def test_interval_ends():
    """Floats in [2^64, 2^66) whose interval ends are integers times 10^-1.

    c·2^12 and c·2^13 with 2c + 1 or 2c − 1 a multiple of 625: the upper end
    z, or the lower end x, times 10^-1 is a multiple of 1000, which is the
    candidate 1000·s, inside only where the end is included (even c). All
    16,000 reach the end checks: 8,000 with r = 0, of which the 4,000 odd c
    are excluded, and 8,000 with r = ⌊δ⌋ and x an integer.
    """
    residues = (312, 937, 313, 938)  # mod 1250: 2c + 1 ≡ 0 (even, odd c), 2c − 1 ≡ 0 mod 625
    values = np.concatenate([significands(e, residues, 1250) for e in (12, 13)])
    assert_reprs(values, cols=100)
    assert_reprs(-values, cols=100)


def test_ties_go_to_even_digits():
    """Floats that lie halfway between two shortest candidates: k + 0.25 and k + 0.75.

    c·2^-2 for odd c, and c·2^-3 for c ≡ 2 mod 4 (in [2^50, 2^51) and [2^49, 2^50)):
    repr writes k.2 and k.8. All 6,000 reach the tie check as exact ties.
    """
    values = np.concatenate([significands(-2, (1, 3), 4), significands(-3, (2,), 4)])
    assert_reprs(values, cols=100)
    assert_reprs(-values, cols=100)


def test_edge_values():
    largest = sys.float_info.max
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, largest, -largest,
             math.inf, -math.inf, math.nan, -math.nan, 0.1, 0.2, 0.3, 1 / 3, 2 / 3]
    assert_reprs(edges)
    assert_reprs(-np.array(edges))


def test_powers_of_two_and_ten():
    """Every power of two and ten, with its neighbours.

    The 2,045 powers of two 2^-1021 … 2^1023 are every zero fraction with a
    shorter interval below, and take their preset digits.
    """
    twos = [2.0**k for k in range(-1074, 1024)]
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    assert_reprs(neighbours(twos + tens))
    assert_reprs(-neighbours(twos + tens))


def test_layout_thresholds():
    # 1e-5 and 1e16 are the first in exponent form, 1e-4 and 1e15 the last in fixed form
    thresholds = [1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e-5, 9999999999999998.0,
                  123456789012345.67, 1234567890123456.7, 0.00012345678901234567]
    scaled = [t * m for t in thresholds for m in (1.0, 1.5, 9.87654321)]
    assert_reprs(neighbours(scaled))
    assert_reprs(-neighbours(scaled))


def test_integers_near_two_to_the_53():
    ints = [float(2**53 + k) for k in range(-40, 41)]
    ints += [float(10**j + k) for j in range(14, 19) for k in (-1, 0, 1)]
    ints += [float(k) for k in range(-1000, 1001)]
    assert_reprs(neighbours(ints))


@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_any_row_of_floats(row):
    assert_reprs(row, cols=len(row))


def test_rows_end_in_newlines_and_cells_in_commas():
    block = np.arange(12.0).reshape(3, 4) / 4
    assert csv_lines(block) == "0.0,0.25,0.5,0.75\n1.0,1.25,1.5,1.75\n2.0,2.25,2.5,2.75\n"
    assert csv_lines(block[:, :1]) == "0.0\n1.0\n2.0\n"


@pytest.mark.parametrize("cols", [1, 3, BLOCK_VALUES - 1, BLOCK_VALUES + 5])
def test_chunks_are_whole_rows_in_order(cols):
    rows = 2 * max(1, BLOCK_VALUES // cols) + 1
    array = np.random.default_rng(cols).normal(size=(rows, cols))
    chunks = list(csv_chunks(array))
    assert len(chunks) == 3
    assert all(c.endswith("\n") for c in chunks)
    assert "".join(chunks) == repr_lines(array)
