import pytest

from circuitrand.contrast import to_contrast_form
from circuitrand.design_catalog import (
    MAX_RUNS,
    LatinSquare,
    NotBalancedError,
    OutOfBudgetError,
    anova_two_way,
    choice_complementary_pairs,
    choice_k_of_2k,
    digraph_design,
    factorial_two_level,
    latin_square_blocks,
    mols_order3,
)
from circuitrand.randomisation import is_valid_randomisation
from circuitrand.unimodular import DirectedGraph

from conftest import digraph_five


def test_factorial_two_level_structure():
    design = factorial_two_level(3)
    assert design.matrix.n_rows == 8
    assert design.matrix.n_cols == 4
    assert design.matrix.column(0) == (1,) * 8
    assert design.matrix.column(1) == (1, 1, 1, 1, -1, -1, -1, -1)
    assert design.matrix.column(3) == (1, -1, 1, -1, 1, -1, 1, -1)
    assert design.run_labels == ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")
    assert design.param_labels == ("1", "A", "B", "C")


def test_factorial_bounds():
    with pytest.raises(OutOfBudgetError):
        factorial_two_level(13)
    with pytest.raises(ValueError):
        factorial_two_level(0)


def test_anova_two_way_structure():
    design = anova_two_way(2, 3)
    assert design.matrix.n_rows == 6
    assert design.matrix.n_cols == 5
    assert design.run_labels[0] == "r1c1"
    assert design.run_labels[-1] == "r2c3"
    for row in design.matrix.rows:
        assert sum(row) == 2  # one row indicator and one column indicator
    assert design.param_labels == ("a1", "a2", "b1", "b2", "b3")


def test_anova_two_way_budget():
    assert anova_two_way(64, 64).matrix.n_rows == MAX_RUNS
    with pytest.raises(OutOfBudgetError):
        anova_two_way(65, 64)
    with pytest.raises(OutOfBudgetError):
        anova_two_way(100_000, 100_000)
    # refused from the levels alone: the 5,001-digit run count, too long to
    # print, is never formed
    with pytest.raises(OutOfBudgetError, match="^a factor of more than 2048 levels"):
        anova_two_way(2, 10**5000)


def test_choice_design_structure():
    design = choice_k_of_2k(2)
    assert design.matrix.n_rows == 6
    assert design.matrix.n_cols == 4
    assert design.run_labels == ("1,2", "1,3", "1,4", "2,3", "2,4", "3,4")
    for row in design.matrix.rows:
        assert sum(row) == 2
    with pytest.raises(ValueError):
        choice_k_of_2k(0)
    with pytest.raises(OutOfBudgetError):
        choice_k_of_2k(8)


def test_choice_complementary_pairs():
    system = choice_complementary_pairs(2)
    assert tuple(tuple(i + 1 for i in b) for b in system.blocks) == (
        (1, 6), (2, 5), (3, 4),
    )
    model = to_contrast_form(choice_k_of_2k(2))
    assert is_valid_randomisation(model, system)


def test_latin_square_from_text():
    square = LatinSquare.from_text("A B C\nC A B\nB C A")
    assert square.order == 3
    assert square.cells[0] == (0, 1, 2)
    with pytest.raises(ValueError):
        LatinSquare.from_text("A B\nA B")


def test_latin_square_rejects_non_integer_cells():
    # int() would truncate this to the valid square ((0, 1), (1, 0))
    with pytest.raises(TypeError):
        LatinSquare(((0.7, 1), (1, 0.2)))


def test_latin_square_blocks_match_symbols():
    l1, l2 = mols_order3()
    b1 = latin_square_blocks(l1)
    b2 = latin_square_blocks(l2)
    assert tuple(tuple(i + 1 for i in b) for b in b1.blocks) == ((1, 5, 9), (2, 6, 7), (3, 4, 8))
    assert tuple(tuple(i + 1 for i in b) for b in b2.blocks) == ((1, 6, 8), (2, 4, 9), (3, 5, 7))


def test_mols_are_orthogonal():
    l1, l2 = mols_order3()
    pairs = {
        (l1.cells[i][j], l2.cells[i][j])
        for i in range(3)
        for j in range(3)
    }
    assert len(pairs) == 9


def test_latin_blocks_are_valid_for_additive_model():
    model = to_contrast_form(anova_two_way(3, 3))
    for square in mols_order3():
        assert is_valid_randomisation(model, latin_square_blocks(square))


def test_digraph_design_labels():
    design = digraph_design(digraph_five())
    assert design.matrix.n_rows == 15
    assert design.matrix.n_cols == 6
    assert design.run_labels[0] == "1->2"
    assert design.run_labels[-1] == "5->3"
    assert design.param_labels[0] == "1"


def test_digraph_design_requires_balance():
    g = DirectedGraph.from_edges([(0, 1), (1, 2)], 3)
    with pytest.raises(NotBalancedError):
        digraph_design(g)


@pytest.mark.parametrize(
    "edges",
    [[(0, 99_999), (99_999, 0)], [(0, 1), (1, 0)] * (MAX_RUNS // 2 + 1)],
    ids=["vertices", "edges"],
)
def test_digraph_design_budget(edges):
    with pytest.raises(OutOfBudgetError):
        digraph_design(DirectedGraph.from_edges(edges))


def test_digraph_design_budget_does_not_print_a_huge_vertex_count():
    g = DirectedGraph.from_edges([(0, 10**5000), (10**5000, 0)])
    with pytest.raises(OutOfBudgetError, match="^2 edges on more than 4096 vertices exceed"):
        digraph_design(g)


def test_latin_square_rejects_a_row_that_repeats_a_symbol():
    with pytest.raises(ValueError, match="^each symbol must appear exactly once per row$"):
        LatinSquare(((0, 0), (1, 1)))
