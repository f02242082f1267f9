"""Integer and field linear algebra against independent oracles."""

from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from momentangle import (
    IntMatrix,
    field_nullspace,
    field_rank,
    rank_mod_p,
    smith_normal_form,
)
from momentangle.linalg import extended_gcd, field_echelon, field_solve

from util import dense_rows, int_matrix, seeded


def random_int_matrix(rng, max_dim=8, bound=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    entries = {}
    for r in range(m):
        for c in range(n):
            if rng.random() < 0.6:
                v = rng.randint(-bound, bound)
                if v:
                    entries[r, c] = v
    return IntMatrix(m, n, entries)


def sympy_diagonal(matrix):
    rows = dense_rows(matrix)
    if not rows or not rows[0]:
        return []
    factors = invariant_factors(sympy.Matrix(rows))
    return [int(abs(d)) for d in factors if d != 0]


def test_extended_gcd():
    for a, b in [(0, 0), (0, 7), (-4, 6), (12, 18), (35, -64), (270, 192)]:
        g, x, y = extended_gcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_int_matrix_basics():
    A = int_matrix([[1, 2], [0, -3]])
    assert A.get(0, 1) == 2 and A.get(1, 0) == 0
    assert dense_rows(A) == [[1, 2], [0, -3]]
    assert dense_rows(A.transpose()) == [[1, 0], [2, -3]]
    assert A.column(1) == [2, -3]
    assert (A @ IntMatrix.identity(2)) == A
    assert A.apply([1, 1]) == [3, -3]
    assert not IntMatrix(2, 2).rows
    with pytest.raises(IndexError):
        IntMatrix(1, 1, {(0, 1): 5})
    with pytest.raises(ValueError):
        IntMatrix(-1, 0)


def test_matmul_matches_dense_arithmetic():
    rng = seeded(11)
    for _ in range(30):
        A = random_int_matrix(rng, max_dim=5)
        B_entries = {}
        k = rng.randint(0, 5)
        for r in range(A.num_cols):
            for c in range(k):
                v = rng.randint(-4, 4)
                if v:
                    B_entries[r, c] = v
        B = IntMatrix(A.num_cols, k, B_entries)
        product = dense_rows(A @ B)
        ar, br = dense_rows(A), dense_rows(B)
        for i in range(A.num_rows):
            for j in range(k):
                assert product[i][j] == sum(
                    ar[i][t] * br[t][j] for t in range(A.num_cols))


def test_smith_known_diagonal():
    A = int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(A).diagonal == [2, 2, 156]


def test_smith_against_sympy_corpus():
    rng = seeded(12)
    for _ in range(300):
        A = random_int_matrix(rng)
        snf = smith_normal_form(A)
        assert snf.diagonal == sympy_diagonal(A)
        for d, e in zip(snf.diagonal, snf.diagonal[1:]):
            assert d > 0 and e % d == 0


def test_smith_transforms_are_unimodular():
    rng = seeded(13)
    for _ in range(120):
        A = random_int_matrix(rng, max_dim=7)
        snf = smith_normal_form(A, keep_transforms=True)
        assert snf.U @ A @ snf.V == snf.as_matrix()
        assert snf.U @ snf.U_inv == IntMatrix.identity(A.num_rows)
        assert snf.V @ snf.V_inv == IntMatrix.identity(A.num_cols)


def smith_fields(form):
    return (form.num_rows, form.num_cols, form.diagonal,
            form.U, form.V, form.U_inv, form.V_inv)


def test_smith_of_a_matrix_without_rows_or_columns():
    for m, n in ((0, 4), (4, 0), (0, 0)):
        A = IntMatrix(m, n)
        assert smith_fields(smith_normal_form(A)) == (
            m, n, [], None, None, None, None)
        assert smith_fields(smith_normal_form(A, keep_transforms=True)) == (
            m, n, [], IntMatrix.identity(m), IntMatrix.identity(n),
            IntMatrix.identity(m), IntMatrix.identity(n))


def test_rank_mod_matches_invariant_factors():
    rng = seeded(14)
    for _ in range(80):
        A = random_int_matrix(rng)
        snf = smith_normal_form(A)
        for p in (2, 3, 5):
            assert rank_mod_p(A, p) == sum(1 for d in snf.diagonal if d % p)


def test_field_echelon_over_rationals_and_primes():
    rows = [[2, 4], [1, 2]]
    rank, rref, pivots = field_echelon(rows)
    assert rank == 1 and pivots == [0]
    assert rref[0] == [Fraction(1), Fraction(2)]
    # rank can drop over a prime where all entries become even
    even = [[2, 4], [6, 2]]
    assert field_rank(even) == 2
    assert field_rank(even, p=2) == 0
    assert field_rank(even, p=3) == 2


def test_field_nullspace_and_solve_properties():
    rng = seeded(15)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        for p in (None, 2, 5):
            rank = field_rank(rows, p)
            basis = field_nullspace(rows, p)
            assert len(basis) == n - rank
            for vec in basis:
                for row in rows:
                    s = sum(a * b for a, b in zip(row, vec))
                    assert (s % p == 0) if p else (s == 0)
            # a right-hand side built from a known solution is solvable
            x = [rng.randint(-3, 3) for _ in range(n)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
            sol = field_solve(rows, rhs, p)
            assert sol is not None
            for row, b in zip(rows, rhs):
                s = sum(a * v for a, v in zip(row, sol))
                assert (s - b) % p == 0 if p else s == b


def test_field_solve_reports_inconsistency():
    assert field_solve([[1, 1], [1, 1]], [0, 1]) is None
    assert field_solve([], [1]) is None
    assert field_solve([], []) == []
