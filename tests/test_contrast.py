import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitrand.contrast import (
    ContrastModel,
    DesignModel,
    JNotInColumnSpaceError,
    to_contrast_form,
)
from circuitrand.design_catalog import (
    anova_two_way,
    choice_k_of_2k,
    factorial_two_level,
)
from circuitrand.exact_linalg import IntMatrix, rank
from circuitrand.randomisation import enumerate_circuit_randomisations

import oracles


def test_design_model_label_validation():
    m = IntMatrix.from_rows([[1, 1], [1, -1]])
    with pytest.raises(ValueError):
        DesignModel(matrix=m, run_labels=("a",), param_labels=("1", "A"))
    with pytest.raises(ValueError):
        DesignModel(matrix=m, run_labels=("a", "b"), param_labels=("1",))


def test_contrast_columns_sum_to_zero():
    model = to_contrast_form(factorial_two_level(3))
    for col in model.contrast.columns():
        assert sum(col) == 0


def test_factorial_contrast_is_the_sign_matrix():
    model = to_contrast_form(factorial_two_level(3))
    assert model.contrast.transpose().rows == (
        (1, 1, 1, 1, -1, -1, -1, -1),
        (1, 1, -1, -1, 1, 1, -1, -1),
        (1, -1, 1, -1, 1, -1, 1, -1),
    )


def test_model_matrix_prepends_ones():
    model = to_contrast_form(factorial_two_level(2))
    mm = oracles.model_matrix(model)
    assert [row[0] for row in mm] == [1, 1, 1, 1]
    assert [len(row) for row in mm] == [1 + model.n_contrasts] * 4


def test_contrast_form_keeps_the_column_space():
    """[j : C] spans the column space of the design matrix X."""
    for design in (factorial_two_level(3), anova_two_way(3, 3), choice_k_of_2k(2)):
        x = design.matrix
        model_matrix = IntMatrix.from_rows(oracles.model_matrix(to_contrast_form(design)))
        assert rank(model_matrix.hstack(x)) == rank(x) == rank(model_matrix)


def test_contrast_model_rejects_a_column_that_does_not_sum_to_zero():
    ContrastModel(IntMatrix.from_rows([[1, 1], [-1, 0], [0, -1]]))
    with pytest.raises(ValueError, match="contrast column 1 does not sum to zero"):
        ContrastModel(IntMatrix.from_rows([[1, 1], [-1, 0], [0, 0]]))


def test_intercept_only_design_keeps_its_run_count():
    m = IntMatrix.from_rows([[2], [2], [2], [2], [2]])
    design = DesignModel(matrix=m, run_labels="abcde", param_labels=("1",))
    model = to_contrast_form(design)
    assert (model.n_runs, model.n_contrasts) == (5, 0)
    assert oracles.model_matrix(model) == [(1,)] * 5


def test_contrast_rank_matches_design_rank():
    for design in (factorial_two_level(3), anova_two_way(2, 4), choice_k_of_2k(2)):
        model = to_contrast_form(design)
        assert 1 + model.n_contrasts == rank(design.matrix)
        assert rank(IntMatrix.from_rows(oracles.model_matrix(model))) == 1 + model.n_contrasts


def test_rejects_design_without_intercept():
    m = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    design = DesignModel(matrix=m, run_labels=("a", "b", "c"), param_labels=("p", "q"))
    with pytest.raises(JNotInColumnSpaceError):
        to_contrast_form(design)


def test_unbalanced_design_gets_centred():
    # Two treatment groups of unequal size: centring must still produce
    # integer contrast columns orthogonal to the ones vector.
    m = IntMatrix.from_rows([[1, 1], [1, 1], [1, 0]])
    design = DesignModel(matrix=m, run_labels=("a", "b", "c"), param_labels=("1", "t"))
    model = to_contrast_form(design)
    assert model.n_contrasts == 1
    col = model.contrast.column(0)
    assert sum(col) == 0
    assert col == (1, 1, -2)


@st.composite
def designs_with_intercept(draw):
    """Catalog designs, or random integer designs with j in the column space.

    The random ones have one column ``a * j + sum(b_i * c_i)`` (``a`` nonzero)
    among random columns ``c_i``, at a random position.
    """
    catalog = [factorial_two_level(3), anova_two_way(3, 3), choice_k_of_2k(2)]
    pick = draw(st.integers(0, len(catalog)))
    if pick < len(catalog):
        return catalog[pick]
    n = draw(st.integers(2, 8))
    column = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    cols = draw(st.lists(column, max_size=3))
    a = draw(st.integers(-2, 2).filter(bool))
    b = draw(st.lists(st.integers(-2, 2), min_size=len(cols), max_size=len(cols)))
    intercept = [a + sum(bi * col[i] for bi, col in zip(b, cols)) for i in range(n)]
    cols.insert(draw(st.integers(0, len(cols))), intercept)
    rows = [[col[i] for col in cols] for i in range(n)]
    return DesignModel(
        matrix=IntMatrix.from_rows(rows),
        run_labels=[str(i) for i in range(n)],
        param_labels=[str(j) for j in range(len(cols))],
    )


def parallel(u, v):
    return any(u) and all(u[i] * v[k] == u[k] * v[i] for i in range(len(u)) for k in range(len(u)))


@settings(max_examples=200, deadline=None)
@given(designs_with_intercept(), st.data())
def test_contrast_form_under_column_scaling(design, data):
    x = design.matrix
    scales = data.draw(
        st.lists(st.integers(-3, 3).filter(bool), min_size=x.n_cols, max_size=x.n_cols)
    )

    def scaled(signs):
        rows = [[v * s for v, s in zip(row, signs)] for row in x.rows]
        return DesignModel(IntMatrix.from_rows(rows), design.run_labels, design.param_labels)

    model = to_contrast_form(design)
    contrasts = model.contrast.columns()
    # each contrast column is the centred form of the first design column
    # parallel to it, so only that column's sign can reach it
    centred = [tuple(x.n_rows * v - sum(col) for v in col) for col in x.columns()]
    source = [next(j for j, w in enumerate(centred) if parallel(w, c)) for c in contrasts]

    positive = to_contrast_form(scaled([abs(s) for s in scales]))
    assert positive.contrast == model.contrast
    signed = to_contrast_form(scaled(scales))
    flipped = [
        tuple(-v for v in c) if scales[j] < 0 else c for c, j in zip(contrasts, source)
    ]
    assert signed.contrast.columns() == flipped
    systems = enumerate_circuit_randomisations(model).systems
    assert enumerate_circuit_randomisations(positive).systems == systems
    assert enumerate_circuit_randomisations(signed).systems == systems


@st.composite
def integer_designs(draw):
    """Random integer designs, ``j`` in their column space or not.

    Columns are random, zero, constant, or copies and multiples of earlier
    columns; now and then a column ``a * j + b * c`` with ``a`` nonzero puts
    ``j`` in the column space.
    """
    n = draw(st.integers(1, 7))
    cols = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "zero", "constant", "copy", "intercept"]))
        if kind == "zero":
            cols.append([0] * n)
        elif kind == "constant":
            cols.append([draw(st.integers(-3, 3).filter(bool))] * n)
        elif kind == "copy" and cols:
            k = draw(st.integers(-2, 2).filter(bool))
            cols.append([k * v for v in draw(st.sampled_from(cols))])
        elif kind == "intercept" and cols:
            a = draw(st.integers(-2, 2).filter(bool))
            b = draw(st.integers(-2, 2))
            base = draw(st.sampled_from(cols))
            cols.append([a + b * v for v in base])
        else:
            cols.append(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    rows = [[col[i] for col in cols] for i in range(n)]
    return DesignModel(
        matrix=IntMatrix.from_rows(rows, n_cols=len(cols)),
        run_labels=[str(i) for i in range(n)],
        param_labels=[str(j) for j in range(len(cols))],
    )


@settings(max_examples=400, deadline=None)
@given(integer_designs())
def test_contrast_form_matches_the_fraction_oracle(design):
    expected = oracles.contrast_columns(design.matrix.rows, design.matrix.n_cols)
    if expected is None:
        with pytest.raises(JNotInColumnSpaceError):
            to_contrast_form(design)
        return
    contrast = to_contrast_form(design).contrast
    assert contrast.n_rows == design.n_runs
    assert contrast.columns() == expected
