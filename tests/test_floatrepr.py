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


def test_edge_values():
    largest = sys.float_info.max
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, largest, -largest,
             math.inf, -math.inf, math.nan, -math.nan, 0.1, 0.2, 0.3, 1 / 3, 2 / 3]
    assert_reprs(edges)
    assert_reprs(-np.array(edges))


def test_powers_of_two_and_ten():
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
