"""Property tests of the sparse integer matrix and its Smith form.

Hypothesis draws small integer matrices, among them 1×k and k×1 shapes,
shapes with a zero dimension, and matrices with whole zero rows and
columns.  The Smith diagonal is checked against sympy's invariant
factors; the matrix operations against dense arithmetic on ``util.dense_rows``;
and the storage invariant of ``IntMatrix`` (``cols`` is exactly the
transpose of ``rows``, values included, no entry is zero, no row or
column dict is empty) after every elementary step of an elimination.
Runs are derandomized, so every run draws the same examples; together
they take about 3 s.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from momentangle import IntMatrix, SimplicialComplex, smith_normal_form
from momentangle.homology import ChainComplex

from test_linalg import sympy_diagonal
from util import dense_rows, int_matrix

# every in-place operation the eliminations run; a column step is the
# row step of the transpose
STEPS = ("row_axpy", "swap_rows", "combine_rows", "scale_row")


@st.composite
def int_matrices(draw, rows=None, cols=None, entry=st.integers(-9, 9)):
    """A matrix of at most 6×6 entries, some rows and columns zeroed."""
    if rows is None and cols is None:
        rows = draw(st.integers(0, 6))
        cols = draw(st.integers(0, 6))
        if draw(st.booleans()):
            # a single row or column
            rows, cols = (1, cols) if draw(st.booleans()) else (rows, 1)
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    return int_matrix(
        [[0 if r in zero_rows or c in zero_cols else draw(entry) for c in range(cols)]
         for r in range(rows)],
        num_cols=cols,
    )


@st.composite
def products(draw):
    """Two matrices that multiply; entries in -2..2, so sums often cancel."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    small = st.integers(-2, 2)
    return (draw(int_matrices(m, k, small)), draw(int_matrices(k, n, small)))


def assert_occupancy(matrix):
    assert all(0 <= r < matrix.num_rows for r in matrix.rows)
    assert all(0 <= c < matrix.num_cols for c in matrix.cols)
    assert all(row and all(row.values()) for row in matrix.rows.values())
    transpose = {}
    for r, row in matrix.rows.items():
        for c, v in row.items():
            transpose.setdefault(c, {})[r] = v
    assert matrix.cols == transpose


def dense_product(a, b, shape):
    m, inner, n = shape
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(n)]
            for i in range(m)]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(int_matrices())
def test_smith_diagonal_is_sympy(matrix):
    assert smith_normal_form(matrix).diagonal == sympy_diagonal(matrix)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(products())
@example((int_matrix([[1, 1]]), int_matrix([[1], [-1]])))
@example((IntMatrix(0, 3), IntMatrix(3, 2)))
@example((IntMatrix(2, 0), IntMatrix(0, 3)))
def test_matrix_operations_match_dense_arithmetic(pair):
    a, b = pair
    (m, k), n = (a.num_rows, a.num_cols), b.num_cols
    rows_a, rows_b = dense_rows(a), dense_rows(b)
    product = a @ b
    assert_occupancy(product)
    assert (product.num_rows, product.num_cols) == (m, n)
    assert dense_rows(product) == dense_product(rows_a, rows_b, (m, k, n))
    transposed = a.T
    assert_occupancy(transposed)
    assert dense_rows(transposed) == [[rows_a[r][c] for r in range(m)]
                                     for c in range(k)]
    assert transposed.T == a
    vector = [(-1) ** c * (c + 1) for c in range(k)]
    assert a.apply(vector) == [sum(x * v for x, v in zip(row, vector))
                               for row in rows_a]
    for c in range(k):
        assert a.column(c) == [row[c] for row in rows_a]
    identity = IntMatrix.identity(k)
    assert_occupancy(identity)
    assert dense_rows(identity) == [[int(i == j) for j in range(k)] for i in range(k)]
    assert a @ identity == a and IntMatrix.identity(m) @ a == a
    assert a == int_matrix(rows_a, num_cols=k)
    assert a != int_matrix(rows_a, num_cols=k + 1)
    if a.rows:
        r, row = next(iter(a.rows.items()))
        c = next(iter(row))
        assert a != IntMatrix(m, k, {(r, c): row[c] + 1})


def dense_column_step(rows, name, args):
    """Dense rows after the column form of row step ``name``."""
    cols = [list(col) for col in zip(*rows)]
    if name == "row_axpy":
        t, s, k = args
        cols[t] = [a + k * b for a, b in zip(cols[t], cols[s])]
    elif name == "swap_rows":
        i, j = args
        cols[i], cols[j] = cols[j], cols[i]
    elif name == "combine_rows":
        i, j, x, y, u, v = args
        cols[i], cols[j] = ([x * a + y * b for a, b in zip(cols[i], cols[j])],
                            [u * a + v * b for a, b in zip(cols[i], cols[j])])
    else:
        i, s = args
        cols[i] = [a * s for a in cols[i]]
    return [list(row) for row in zip(*cols)]


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.integers(1, 5).flatmap(lambda m: int_matrices(m, 3)),
       st.sampled_from(STEPS), st.tuples(*[st.integers(-3, 3)] * 4))
def test_a_row_step_on_the_transpose_is_a_column_step(matrix, name, ks):
    # columns 0 and 1 or 2, distinct; the Smith form scales by -1 only
    i, j = 0, 1 + (ks[0] % 2)
    args = {"row_axpy": (i, j, ks[1]), "swap_rows": (i, j),
            "combine_rows": (i, j) + ks,
            "scale_row": (i, -1 if ks[1] < 0 else 1)}[name]
    expected = dense_column_step(dense_rows(matrix), name, args)
    view = matrix.T
    getattr(view, name)(*args)
    assert_occupancy(matrix)
    assert_occupancy(view)
    assert dense_rows(matrix) == expected
    assert view.T == matrix and view.T.T == view


def test_constructor_drops_zero_entries():
    matrix = IntMatrix(2, 3, {(0, 1): 0, (1, 2): 4})
    assert_occupancy(matrix)
    assert matrix.rows == {1: {2: 4}} and matrix == int_matrix(
        [[0, 0, 0], [0, 0, 4]])


def checked_smith_form(matrix):
    """The Smith form with transforms, asserting the occupancy invariant
    of every matrix after every elementary step."""
    with pytest.MonkeyPatch.context() as patch:
        for name in STEPS:
            def step(self, *args, _run=getattr(IntMatrix, name)):
                _run(self, *args)
                assert_occupancy(self)
            patch.setattr(IntMatrix, name, step)
        return smith_normal_form(matrix, keep_transforms=True)


def assert_smith_form(matrix, form):
    for transform in (form.U, form.V, form.U_inv, form.V_inv):
        assert_occupancy(transform)
    assert form.U @ matrix @ form.V == form.as_matrix()
    assert form.U @ form.U_inv == IntMatrix.identity(matrix.num_rows)
    assert form.V @ form.V_inv == IntMatrix.identity(matrix.num_cols)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(int_matrices())
def test_elimination_keeps_occupancy_at_every_step(matrix):
    before = matrix.copy()
    form = checked_smith_form(matrix)
    assert matrix == before  # the input is eliminated on a copy
    assert_smith_form(matrix, form)
    assert form.diagonal == smith_normal_form(matrix).diagonal


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1).map(lambda f: f << 1),
                         max_size=5))))
def test_boundary_matrices_keep_occupancy(drawn):
    n, facets = drawn
    chain = ChainComplex(SimplicialComplex(n, facets).facets)
    for d in range(-1, chain.dim + 2):
        boundary = chain.boundary_matrix(d)
        assert_occupancy(boundary)
        if d == -1:
            # the empty face bounds nothing: a 0×1 matrix with no column entry
            assert (boundary.num_rows, boundary.num_cols) == (0, 1)
            assert boundary.cols == {} and boundary.rows == {}
        assert_smith_form(boundary, checked_smith_form(boundary))
