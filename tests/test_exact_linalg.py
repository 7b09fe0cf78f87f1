import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitrand import cli
from circuitrand.contrast import DesignModel, to_contrast_form
from circuitrand.design_catalog import (
    anova_two_way,
    choice_k_of_2k,
    digraph_design,
    factorial_two_level,
)
from circuitrand.exact_linalg import (
    IntMatrix,
    NonSquareError,
    SingularError,
    pivot_columns,
    rank,
    rational_solve,
)
from circuitrand.unimodular import incidence_matrix

import oracles
from conftest import digraph_five


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
    with pytest.raises(ValueError, match="expected 2 entries per row, got 1"):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="expected 2 entries per row, got 1"):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(ValueError, match="expected 3 rows, got 2"):
        IntMatrix(3, 2, ((1, 2), (3, 4)))


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


def test_rational_solve_round_trip():
    a = IntMatrix.from_rows([[2, 1], [1, 3]])
    n, d = rational_solve(a, IntMatrix.from_rows([[1], [0]]))
    assert (n.rows, d) == (((3,), (-1,)), 5)
    a = IntMatrix.from_rows([[4, -2], [6, 9]])
    rhs = IntMatrix.from_rows([[1, 2, 0], [-7, 1, 0]])
    n, d = rational_solve(a, rhs)
    assert a.mul(n).rows == tuple(tuple(d * x for x in row) for row in rhs.rows)
    assert (d, n.column(2)) == (48, (0, 0))
    n, d = rational_solve(IntMatrix.from_rows(oracles.identity(3)), IntMatrix.from_rows([[], [], []], n_cols=0))
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
    _, pivots = oracles.rref([[Fraction(x) for x in row] for row in rows])
    assert pivot_columns(m) == pivots
    assert rank(m) == len(pivots)


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


def assert_built_as_checked(m: IntMatrix) -> None:
    """``m`` is the matrix the public constructor builds from its rows, ints only."""
    checked = IntMatrix.from_rows(m.rows, n_cols=m.n_cols)
    assert m == checked
    assert hash(m) == hash(checked)
    assert type(m.rows) is tuple and len(m.rows) == m.n_rows
    assert all(type(row) is tuple and len(row) == m.n_cols for row in m.rows)
    assert all(type(x) is int for row in m.rows for x in row)


def shaped(n_rows: int, n_cols: int, entries=st.integers(-40, 40)):
    """Integer matrices of one shape, 0-row and 0-column shapes included."""
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    return st.lists(row, min_size=n_rows, max_size=n_rows).map(
        lambda rows: IntMatrix.from_rows(rows, n_cols=n_cols)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_internal_results_match_the_checked_constructor(n, k, m, data):
    a = data.draw(shaped(n, k))
    b = data.draw(shaped(k, m))
    c = data.draw(shaped(n, m))
    for built in (a.transpose(), b.transpose(), a.hstack(c), c.hstack(a), a.mul(b)):
        assert_built_as_checked(built)
    assert a.transpose().transpose() == a
    assert (a.transpose().n_rows, a.transpose().n_cols) == (k, n)
    assert a.hstack(c).columns() == a.columns() + c.columns()
    assert a.mul(b).transpose().rows == tuple(a.mul_vector(col) for col in b.columns())
    # a strictly diagonally dominant gram is nonsingular
    off = data.draw(shaped(n, n, st.integers(-3, 3)))
    gram = IntMatrix.from_rows(
        [[x + 13 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(off.rows)],
        n_cols=n,
    )
    solution, d = rational_solve(gram, c)
    assert_built_as_checked(solution)
    assert gram.mul(solution).rows == tuple(tuple(d * x for x in row) for row in c.rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_parsed_matrices_match_the_checked_constructor(n_rows, n_cols, data):
    m = data.draw(shaped(n_rows, n_cols))
    tokens = [data.draw(st.sampled_from(["{}", "{:+}", "{:+04d}", " {:03d}"])).format(x)
              for row in m.rows for x in row]
    # the token count fixes the shape, however the entries are laid out
    per_line = data.draw(st.integers(1, 7))
    lines = [" ".join(tokens[i:i + per_line]) for i in range(0, len(tokens), per_line)]
    parsed = cli.parse_matrix_text("\n".join([f"{n_rows} {n_cols}", "# entries", *lines]))
    assert_built_as_checked(parsed)
    assert parsed == m
    assert cli.parse_matrix_text(cli.format_matrix_text(m)) == m


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.data())
def test_contrast_matrices_match_the_checked_constructor(n, k, data):
    x = data.draw(shaped(n, k, st.integers(-3, 3)))
    ones = IntMatrix.from_rows([[2]] * n)
    design = DesignModel(ones.hstack(x), tuple(range(n)), tuple(range(k + 1)))
    contrast = to_contrast_form(design).contrast
    assert_built_as_checked(contrast)
    assert contrast.n_rows == n


def test_catalog_and_incidence_matrices_match_the_checked_constructor():
    designs = (
        factorial_two_level(3),
        anova_two_way(2, 3),
        choice_k_of_2k(2),
        digraph_design(digraph_five()),
    )
    for design in designs:
        assert_built_as_checked(design.matrix)
    assert_built_as_checked(incidence_matrix(digraph_five()))
    assert designs[-1].matrix.column(0) == (1,) * 15


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), "1", None], ids=repr)
def test_the_public_constructors_check_every_entry(bad):
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, 0], [0, bad]])
    with pytest.raises(TypeError):
        IntMatrix(2, 2, ((1, 0), (0, bad)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IntMatrix(-1, 0, ()), "matrix dimensions must be non-negative"),
        (lambda: IntMatrix.from_rows([]), "n_cols is required for a matrix with no rows"),
        (
            lambda: IntMatrix.from_rows([[1]]).hstack(IntMatrix.from_rows([[1], [2]])),
            "hstack needs matching row counts",
        ),
        (
            lambda: IntMatrix.from_rows([[1, 2]]).mul(IntMatrix.from_rows([[1, 2]])),
            "inner dimensions do not match",
        ),
        (
            lambda: IntMatrix.from_rows([[1, 2]]).mul_vector([1]),
            "vector length does not match column count",
        ),
        (
            lambda: rational_solve(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1], [2]])),
            "right-hand side row count does not match",
        ),
    ],
    ids=["negative", "no-rows", "hstack", "mul", "mul-vector", "solve-rhs"],
)
def test_shape_mismatches_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        call()
    assert type(exc.value) is ValueError
