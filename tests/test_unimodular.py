import itertools
import random
import time
from math import comb

import pytest

from circuitrand.exact_linalg import IntMatrix
from circuitrand.unimodular import (
    DEFAULT_SIZE_CAP,
    DirectedGraph,
    TooLargeError,
    incidence_matrix,
    is_eulerian_balanced,
    is_totally_unimodular,
)

import oracles
from conftest import digraph_five


def brute_tu(m: IntMatrix) -> bool:
    """Check every square submatrix determinant by cofactor expansion."""
    for size in range(1, min(m.n_rows, m.n_cols) + 1):
        for rsel in itertools.combinations(range(m.n_rows), size):
            for csel in itertools.combinations(range(m.n_cols), size):
                sub = [[m.rows[i][j] for j in csel] for i in rsel]
                if oracles.det_cofactor(sub) not in (-1, 0, 1):
                    return False
    return True


def test_directed_graph_rejects_self_loops():
    with pytest.raises(ValueError):
        DirectedGraph.from_edges([(0, 0)], 1)


@pytest.mark.parametrize("edge", [(0, 1.9), (0.0, 1), ("0", 1)])
def test_directed_graph_rejects_non_integer_endpoints(edge):
    with pytest.raises(TypeError):
        DirectedGraph.from_edges([edge], 2)
    with pytest.raises(TypeError):
        DirectedGraph(2, (edge,))


def test_degrees_and_balance():
    g = DirectedGraph.from_edges([(0, 1), (1, 2), (2, 0)], 3)
    assert g.n_edges == 3
    assert g.out_degree(0) == 1 and g.in_degree(0) == 1
    assert is_eulerian_balanced(g)
    h = DirectedGraph.from_edges([(0, 1), (1, 2)], 3)
    assert not is_eulerian_balanced(h)


def test_incidence_matrix_signs():
    g = DirectedGraph.from_edges([(0, 1), (2, 1)], 3)
    m = incidence_matrix(g)
    assert m.columns() == [(1, -1, 0), (0, -1, 1)]


def test_incidence_of_five_vertex_graph_is_tu():
    assert is_totally_unimodular(incidence_matrix(digraph_five()))


def test_identity_is_tu():
    assert is_totally_unimodular(IntMatrix.from_rows(oracles.identity(4)))


def test_known_non_tu():
    assert not is_totally_unimodular(IntMatrix.from_rows([[1, 1], [-1, 1]]))
    two_cubed = IntMatrix.from_rows([
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, 1, -1, 1, -1, 1, -1],
    ])
    assert not is_totally_unimodular(two_cubed)


def test_entries_outside_unit_range_fail_fast():
    assert not is_totally_unimodular(IntMatrix.from_rows([[2]]))


def test_tu_matches_brute_force_on_random_matrices():
    # shapes 0..5 x 0..6, so tall matrices send the scan to the columns
    rng = random.Random(99)
    verdicts = []
    for _ in range(400):
        n_rows = rng.randint(0, 5)
        n_cols = rng.randint(0, 6)
        zero_share = rng.choice((0.3, 0.5, 0.7))
        rows = [
            [0 if rng.random() < zero_share else rng.choice((-1, 1)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        m = IntMatrix.from_rows(rows, n_cols=n_cols)
        verdicts.append(is_totally_unimodular(m))
        assert verdicts[-1] == brute_tu(m), rows
    assert 50 < sum(verdicts) < 350


def random_incidence(rng: random.Random, n_vertices: int, n_edges: int) -> IntMatrix:
    edges = [tuple(rng.sample(range(n_vertices), 2)) for _ in range(n_edges)]
    return incidence_matrix(DirectedGraph.from_edges(edges, n_vertices))


def test_tu_on_digraph_incidences_and_one_sign_flips():
    rng = random.Random(5)
    flipped_tu = []
    for _ in range(150):
        m = random_incidence(rng, rng.randint(2, 5), rng.randint(1, 7))
        assert is_totally_unimodular(m)
        assert is_totally_unimodular(m.transpose())
        rows = [list(r) for r in m.rows]
        i, j = rng.randrange(m.n_rows), rng.randrange(m.n_cols)
        while not rows[i][j]:
            i = rng.randrange(m.n_rows)
        rows[i][j] = -rows[i][j]
        flipped = IntMatrix.from_rows(rows, n_cols=m.n_cols)
        flipped_tu.append(brute_tu(flipped))
        assert is_totally_unimodular(flipped) == flipped_tu[-1]
        assert is_totally_unimodular(flipped.transpose()) == flipped_tu[-1]
    assert 10 < sum(flipped_tu) < 140


def test_budget_refusal():
    m = incidence_matrix(digraph_five())
    with pytest.raises(TooLargeError) as info:
        is_totally_unimodular(m, size_cap=10)
    assert info.value.size_cap == 10
    assert info.value.count > 10
    assert DEFAULT_SIZE_CAP == 1_000_000
    for n_rows in range(13):
        for n_cols in range(13):
            count = sum(comb(n_rows, k) * comb(n_cols, k) for k in range(1, min(n_rows, n_cols) + 1))
            m = IntMatrix.from_rows([[0] * n_cols] * n_rows, n_cols=n_cols)
            if count:
                with pytest.raises(TooLargeError) as info:
                    is_totally_unimodular(m, size_cap=count - 1)
                assert info.value.count == count
            assert is_totally_unimodular(m, size_cap=count)
    with pytest.raises(TooLargeError) as info:
        is_totally_unimodular(IntMatrix.from_rows(oracles.identity(12)))
    assert info.value.count == 2_704_155


def test_tu_of_a_long_incidence_matrix_inside_the_default_budget():
    m = random_incidence(random.Random(7), 7, 20)
    assert comb(27, 7) - 1 == 888_029 <= DEFAULT_SIZE_CAP
    start = time.perf_counter()
    assert is_totally_unimodular(m)
    assert time.perf_counter() - start < 0.5


def test_network_matrix_is_tu_without_the_scan():
    # the signing scan over 13 rows takes seconds here; a matrix with at most
    # one +1 and one -1 per column, or per row, needs no scan.  The budget
    # still counts C(73, 13) - 1 square submatrices and refuses the default
    edges = random.Random(13).sample([(t, h) for t in range(13) for h in range(13) if t != h], 60)
    m = incidence_matrix(DirectedGraph.from_edges(edges, 13))
    with pytest.raises(TooLargeError) as info:
        is_totally_unimodular(m)
    assert info.value.count == comb(73, 13) - 1
    start = time.perf_counter()
    assert is_totally_unimodular(m, size_cap=10**30)
    assert is_totally_unimodular(m.transpose(), size_cap=10**30)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "n_vertices, edges, message",
    [
        (-1, (), "vertex count must be non-negative"),
        (2, ((0, 2),), r"edge \(0, 2\) has an endpoint out of range"),
    ],
)
def test_a_graph_outside_its_vertices_is_refused(n_vertices, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DirectedGraph(n_vertices, edges)
