import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitrand.exact_linalg import (
    IntMatrix,
    NonSquareError,
    SingularError,
    canonical_sign,
    determinant,
    kernel_basis,
    pivot_columns,
    rank,
    rational_solve,
)

import oracles


def test_from_rows_infers_shape():
    m = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert (m.n_rows, m.n_cols) == (3, 2)
    assert m.rows == ((1, 2), (3, 4), (5, 6))


def test_empty_shapes_need_explicit_columns():
    m = IntMatrix.from_rows([], n_cols=4)
    assert (m.n_rows, m.n_cols) == (0, 4)
    assert m.transpose().n_rows == 4
    assert m.transpose().n_cols == 0


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_transpose_round_trip():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m
    assert m.transpose().rows == ((1, 4), (2, 5), (3, 6))


def test_hstack_and_columns():
    a = IntMatrix.from_rows([[1], [2]])
    b = IntMatrix.from_rows([[3], [4]])
    c = a.hstack(b)
    assert c.rows == ((1, 3), (2, 4))
    assert c.columns() == [(1, 2), (3, 4)]
    assert c.column(1) == (3, 4)


def test_mul_and_mul_vector():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b).rows == ((2, 1), (4, 3))
    assert a.mul_vector([1, -1]) == (-1, -1)


def test_rank_against_elimination_oracle():
    rng = random.Random(42)
    for _ in range(150):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(n_rows)]
        _, pivots = oracles.rref([[Fraction(x) for x in r] for r in rows])
        assert rank(IntMatrix.from_rows(rows, n_cols=n_cols)) == len(pivots)


def test_rank_of_zero_and_empty():
    assert rank(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert rank(IntMatrix.from_rows([], n_cols=3)) == 0


def test_determinant_edge_cases():
    assert determinant(IntMatrix.from_rows([], n_cols=0)) == 1
    assert determinant(IntMatrix.identity(3)) == 1
    with pytest.raises(NonSquareError):
        determinant(IntMatrix.from_rows([[1, 2]]))


def test_kernel_basis_spans_the_kernel():
    rng = random.Random(11)
    for _ in range(100):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
        m = IntMatrix.from_rows(rows, n_cols=n_cols)
        basis = kernel_basis(m)
        assert len(basis) == n_cols - rank(m)
        for v in basis:
            assert m.mul_vector(v) == (0,) * n_rows
            assert v == canonical_sign(v)
            g = 0
            for x in v:
                g = __import__("math").gcd(g, abs(x))
            assert g == 1


def test_kernel_of_full_rank_matrix_is_empty():
    assert kernel_basis(IntMatrix.identity(4)) == []


def test_rational_solve_round_trip():
    a = IntMatrix.from_rows([[2, 1], [1, 3]])
    n, d = rational_solve(a, IntMatrix.from_rows([[1], [0]]))
    assert (n.rows, d) == (((3,), (-1,)), 5)
    a = IntMatrix.from_rows([[4, -2], [6, 9]])
    rhs = IntMatrix.from_rows([[1, 2, 0], [-7, 1, 0]])
    n, d = rational_solve(a, rhs)
    assert a.mul(n).rows == tuple(tuple(d * x for x in row) for row in rhs.rows)
    assert (d, n.column(2)) == (48, (0, 0))
    n, d = rational_solve(IntMatrix.identity(3), IntMatrix.from_rows([[], [], []], n_cols=0))
    assert (n.n_rows, n.n_cols, d) == (3, 0, 1)


def test_rational_solve_singular():
    a = IntMatrix.from_rows([[1, 2], [2, 4]])
    # with [3] the rank of [a | rhs] is 2, but its second pivot lies in rhs
    for b in ([1], [3]):
        rhs = IntMatrix.from_rows([[1], b])
        with pytest.raises(SingularError):
            rational_solve(a, rhs)
    with pytest.raises(NonSquareError):
        rational_solve(IntMatrix.from_rows([[1, 2]]), IntMatrix.from_rows([[1]]))


@st.composite
def integer_matrices(draw):
    """Small integer matrices, empty shapes included, with zero and repeated lines.

    Fresh entries lie in [-40, 40]; a column may instead be zero, or a copy,
    negation, sum or difference of earlier columns, and a row may be zero
    or a copy of an earlier one, so ranks fall short of the shape.
    """
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    fresh = st.lists(st.integers(-40, 40), min_size=n_rows, max_size=n_rows)
    cols: list[list[int]] = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combine"]))
        if kind == "zero":
            cols.append([0] * n_rows)
        elif kind == "combine" and cols:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            sa, sb = draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 0, 1]))
            cols.append([sa * x + sb * y for x, y in zip(a, b)])
        else:
            cols.append(draw(fresh))
    rows = [[col[r] for col in cols] for r in range(n_rows)]
    for r in range(n_rows):
        kind = draw(st.sampled_from(["keep", "keep", "keep", "zero", "copy"]))
        if kind == "zero":
            rows[r] = [0] * n_cols
        elif kind == "copy" and r:
            rows[r] = list(rows[draw(st.integers(0, r - 1))])
    return rows, n_cols


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_kernel_basis_and_pivots_match_the_rref_oracle(drawn):
    rows, n_cols = drawn
    m = IntMatrix.from_rows(rows, n_cols=n_cols)
    expected = [oracles.primitive(v) for v in oracles.nullspace(rows, n_cols)]
    assert kernel_basis(m) == expected
    _, pivots = oracles.rref([[Fraction(x) for x in row] for row in rows])
    assert pivot_columns(m) == pivots
    assert rank(m) == len(pivots)


@st.composite
def square_matrices(draw):
    """n x n integer matrices for n in 0..6, as rows.

    Entries lie in [-40, 40] and half of them are zero, so that pivots
    leave the diagonal.  Half of the matrices then get one zero, copied or
    combined row, or column, and every matrix has its rows permuted.
    """
    n = draw(st.integers(0, 6))
    line = st.lists(st.just(0) | st.integers(-40, 40), min_size=n, max_size=n)
    rows = draw(st.lists(line, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        if draw(st.booleans()):
            rows = [list(col) for col in zip(*rows)]
    return [rows[i] for i in draw(st.permutations(range(n)))]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_determinant_against_cofactor_oracle(rows):
    m = IntMatrix.from_rows(rows, n_cols=len(rows))
    assert determinant(m) == oracles.det_cofactor(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.data())
def test_rational_solve_matches_the_rref_oracle(n, k, data):
    entries = st.just(0) | st.integers(-40, 40)
    g_rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    b_rows = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    gram = IntMatrix.from_rows(g_rows, n_cols=n)
    rhs = IntMatrix.from_rows(b_rows, n_cols=k)
    if len(oracles.rref([[Fraction(x) for x in row] for row in g_rows])[1]) < n:
        with pytest.raises(SingularError):
            rational_solve(gram, rhs)
        return
    reduced, _ = oracles.rref([[Fraction(x) for x in g + b] for g, b in zip(g_rows, b_rows)])
    expected = [row[n:] for row in reduced]
    x, d = rational_solve(gram, rhs)
    assert [[Fraction(v, d) for v in row] for row in x.rows] == expected
    # d is the least common denominator of the solution
    assert d == math.lcm(*(v.denominator for row in expected for v in row))
    assert gram.mul(x).rows == tuple(tuple(d * v for v in row) for row in rhs.rows)


def test_canonical_sign():
    assert canonical_sign([0, -2, 1]) == (0, 2, -1)
    assert canonical_sign([3, -1]) == (3, -1)
    assert canonical_sign([0, 0]) == (0, 0)
