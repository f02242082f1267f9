"""Property test: the Smith normal form against sympy's invariant factors.

Hypothesis draws small integer matrices, among them 1×k and k×1 shapes,
shapes with a zero dimension, and matrices with whole zero rows and
columns.  Runs are derandomized, so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import IntMatrix, smith_normal_form

from test_linalg import sympy_diagonal


@st.composite
def int_matrices(draw):
    """A matrix of at most 6×6 entries in -9..9, some rows and columns zeroed."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    if draw(st.booleans()):
        # a single row or column
        rows, cols = (1, cols) if draw(st.booleans()) else (rows, 1)
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    entry = st.integers(-9, 9)
    return IntMatrix.from_rows(
        [[0 if r in zero_rows or c in zero_cols else draw(entry) for c in range(cols)]
         for r in range(rows)],
        num_cols=cols,
    )


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(int_matrices())
def test_smith_diagonal_is_sympy(matrix):
    assert smith_normal_form(matrix).diagonal == sympy_diagonal(matrix)
