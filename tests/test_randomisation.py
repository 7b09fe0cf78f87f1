import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitrand.circuits import binary_circuit_vectors, binary_circuits, circuit_basis
from circuitrand.contrast import ContrastModel, to_contrast_form
from circuitrand.design_catalog import (
    anova_two_way,
    choice_k_of_2k,
    digraph_design,
    factorial_two_level,
)
from circuitrand.exact_linalg import IntMatrix
from circuitrand.randomisation import (
    DimensionMismatchError,
    NotARandomisationVectorError,
    RandomisationSystem,
    _cover_systems,
    enumerate_circuit_randomisations,
    is_decomposable,
    is_valid_randomisation,
    randomisation_vectors,
    refines,
)
from circuitrand.unimodular import DirectedGraph

import oracles
from conftest import digraph_five
from test_analysis_sim import hand_built_model


def three_two_cycles():
    g = DirectedGraph.from_edges([(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)], 6)
    return digraph_design(g)


CATALOG_DESIGNS = {
    "2^2": lambda: factorial_two_level(2),
    "2^3": lambda: factorial_two_level(3),
    "2^4": lambda: factorial_two_level(4),
    "anova 3x3": lambda: anova_two_way(3, 3),
    "anova 2x4": lambda: anova_two_way(2, 4),
    "choice k=2": lambda: choice_k_of_2k(2),
    "digraph5": lambda: digraph_design(digraph_five()),
    "three 2-cycles": three_two_cycles,
}


def blocks1(system):
    """Blocks as 1-based tuples, for comparing against printed schemes."""
    return tuple(tuple(i + 1 for i in b) for b in system.blocks)


def system_from_1based(n, blocks):
    return RandomisationSystem(n, [[i - 1 for i in b] for b in blocks])


def test_system_validation():
    with pytest.raises(ValueError, match="blocks overlap"):
        RandomisationSystem(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError, match="blocks need at least two runs"):
        RandomisationSystem(4, [[0], [1, 2, 3]])
    with pytest.raises(ValueError, match="partition the runs exactly once each"):
        RandomisationSystem(4, [[0, 1]])  # does not cover
    with pytest.raises(ValueError, match="run index beyond 3"):
        RandomisationSystem(3, [[0, 1, 4]])
    with pytest.raises(ValueError, match="repeated run inside a block"):
        RandomisationSystem(4, ((0, 0, 1), (2, 3)))
    with pytest.raises(ValueError, match="run indices cannot be negative"):
        RandomisationSystem(3, ((-1, 0), (1, 2)))
    # blocks are checked in the order given: the overlap comes before the short block
    with pytest.raises(ValueError, match="blocks overlap"):
        RandomisationSystem(5, ((1, 2), (2, 3), (4,)))
    # runs are read as integers, never truncated or parsed
    for blocks in (((0, 1.9), (2, 3)), ((0, 1.0), (2, 3)), (("0", "1"), (2, 3))):
        with pytest.raises(TypeError):
            RandomisationSystem(4, blocks)


def test_constructor_canonicalises_order():
    s = RandomisationSystem(4, ((3, 2), (1, 0)))
    t = RandomisationSystem(4, ((0, 1), (2, 3)))
    assert s == t and hash(s) == hash(t)
    assert s.blocks == ((0, 1), (2, 3))
    s = RandomisationSystem(6, [[5, 4], [3, 2], [1, 0]])
    assert s.blocks == ((0, 1), (2, 3), (4, 5))
    t = RandomisationSystem(6, [[2, 3, 4, 5], [0, 1]])
    assert t.blocks == ((0, 1), (2, 3, 4, 5))
    # plain tuple order, by smallest run: a larger block may come first
    assert RandomisationSystem(6, [[4, 5], [0, 1, 2, 3]]).blocks == ((0, 1, 2, 3), (4, 5))


def test_shape_descending():
    s = RandomisationSystem(7, [[0, 1], [2, 3, 4], [5, 6]])
    assert s.shape == (3, 2, 2)


def test_is_valid_randomisation(model_2cubed):
    good = system_from_1based(8, [[1, 4, 6, 7], [2, 3, 5, 8]])
    bad = system_from_1based(8, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert is_valid_randomisation(model_2cubed, good)
    assert not is_valid_randomisation(model_2cubed, bad)
    with pytest.raises(DimensionMismatchError):
        is_valid_randomisation(model_2cubed, RandomisationSystem(4, [[0, 1], [2, 3]]))


def test_randomisation_vectors_two_cubed(model_2cubed):
    vectors = randomisation_vectors(model_2cubed)
    supports = {tuple(i + 1 for i, x in enumerate(v) if x) for v in vectors}
    assert supports == {(1, 8), (2, 7), (3, 6), (4, 5), (1, 4, 6, 7), (2, 3, 5, 8)}


def test_enumeration_two_cubed(catalog_2cubed):
    assert [blocks1(s) for s in catalog_2cubed.systems] == [
        ((1, 4, 6, 7), (2, 3, 5, 8)),
        ((1, 8), (2, 7), (3, 6), (4, 5)),
    ]
    assert catalog_2cubed.shape_counts == {(4, 4): 1, (2, 2, 2, 2): 1}
    assert catalog_2cubed.refinement_edges == ()


def test_enumeration_include_full(model_2cubed):
    catalog = enumerate_circuit_randomisations(model_2cubed, include_full=True)
    assert len(catalog.systems) == 3
    full_idx = next(i for i, s in enumerate(catalog.systems) if s.shape == (8,))
    shape_edges = {
        (catalog.systems[i].shape, catalog.systems[j].shape)
        for i, j in catalog.refinement_edges
    }
    assert full_idx is not None
    assert shape_edges == {((8,), (4, 4)), ((8,), (2, 2, 2, 2))}
    for coarser, finer in catalog.refinement_edges:
        assert refines(catalog.systems[finer], catalog.systems[coarser])


def test_shapes_are_sorted_only_when_read(model_2fourth, monkeypatch):
    calls = []
    shape = RandomisationSystem.shape

    def counted(self):
        calls.append(self)
        return shape.fget(self)

    monkeypatch.setattr(RandomisationSystem, "shape", property(counted))
    catalog = enumerate_circuit_randomisations(model_2fourth, include_full=True)
    at = next(i for i, s in enumerate(catalog.systems) if len(s.blocks) == 1)
    assert catalog.refinement_edges == tuple((at, j) for j in range(len(catalog)) if j != at)
    assert calls == []
    # the table sorts each cover's support sizes, so no system's shape is
    # built or sorted for it
    counts = catalog.shape_counts
    assert calls == []
    assert sum(counts.values()) == len(catalog)
    assert list(counts) == sorted(counts, reverse=True)
    assert counts == Counter(s.shape for s in catalog.systems)


def test_catalog_equals_partition_brute_force(model_2cubed):
    """Partitions into minimal orthogonal binary blocks, found independently."""
    contrast_rows = [list(c) for c in model_2cubed.contrast.columns()]
    kernel = oracles.binary_kernel_supports(contrast_rows, 8)
    minimal = oracles.minimal_supports(kernel)
    expected = set()
    for part in oracles.set_partitions(range(8)):
        blocks = [frozenset(b) for b in part]
        if all(len(b) >= 2 and b in minimal for b in blocks) and len(blocks) >= 2:
            expected.add(frozenset(blocks))
    catalog = enumerate_circuit_randomisations(model_2cubed)
    got = {frozenset(frozenset(b) for b in s.blocks) for s in catalog.systems}
    assert got == expected


def test_enumeration_without_a_second_block():
    """A support of all the runs, and a model of no runs, list no system."""
    pair = ContrastModel(IntMatrix.from_rows([(1,), (-1,)], n_cols=1))
    assert randomisation_vectors(pair) == [(1, 1)]
    assert enumerate_circuit_randomisations(pair).systems == ()
    full = enumerate_circuit_randomisations(pair, include_full=True)
    assert [s.blocks for s in full.systems] == [((0, 1),)]
    empty = ContrastModel(IntMatrix.from_rows([], n_cols=0))
    assert enumerate_circuit_randomisations(empty, include_full=True).systems == ()


@st.composite
def block_families(draw):
    """Up to 12 distinct blocks of size >= 2 on up to 10 runs.

    One exact cover is planted among random blocks, so most families have
    covers to find.
    """
    n = draw(st.integers(2, 10))
    runs = draw(st.permutations(range(n)))
    planted, start = [], 0
    while n - start >= 2:
        size = draw(st.integers(2, n - start))
        if n - start - size == 1:
            size += 1
        planted.append(frozenset(runs[start : start + size]))
        start += size
    extra = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=2), max_size=12 - len(planted)
    ))
    family = list(dict.fromkeys(planted + extra))
    return n, draw(st.permutations([tuple(sorted(b)) for b in family]))


def _listed_blocks(n, supports):
    """The block tuples of every cover ``_cover_systems`` lists, in its order."""
    ordered, covers = _cover_systems(n, supports)
    assert ordered == sorted(supports)
    return [tuple(map(ordered.__getitem__, c)) for c in covers]


def _check_covers_against_brute_force(n, supports, shuffled):
    # every subset of the supports that partitions the runs, blocks sorted
    expected = sorted(
        tuple(sorted(chosen))
        for k in range(1, len(supports) + 1)
        for chosen in combinations(supports, k)
        if sorted(i for b in chosen for i in b) == list(range(n))
    )
    listed = _listed_blocks(n, supports)
    assert listed == expected
    # each listed cover is already in the constructor's canonical block order
    for blocks in listed:
        assert RandomisationSystem(n, blocks).blocks == blocks
    assert _cover_systems(n, shuffled) == _cover_systems(n, supports)


@settings(max_examples=300, deadline=None)
@given(block_families(), st.data())
def test_cover_systems_equal_subset_brute_force(family, data):
    n, supports = family
    _check_covers_against_brute_force(n, supports, data.draw(st.permutations(supports)))


def test_cover_systems_sort_in_the_all_runs_block():
    # the block of all the runs sorts among the supports, and its one-block
    # cover among the covers, in plain tuple order: after (0, 1, 2, 3), a
    # prefix of it, and so after the cover that starts with that block
    supports = [(0, 1, 2, 3, 4, 5), (2, 3), (0, 1), (4, 5), (0, 1, 2, 3), (0, 4), (1, 2, 3, 5)]
    _check_covers_against_brute_force(6, supports, supports[::-1])
    ordered, covers = _cover_systems(6, supports)
    assert ordered[2] == (0, 1, 2, 3, 4, 5)
    assert covers == [(0, 5, 6), (1, 6), (2,), (3, 4)]
    assert _listed_blocks(6, supports) == [
        ((0, 1), (2, 3), (4, 5)),
        ((0, 1, 2, 3), (4, 5)),
        ((0, 1, 2, 3, 4, 5),),
        ((0, 4), (1, 2, 3, 5)),
    ]


@pytest.mark.parametrize("size, latin_squares", [(3, 12), (4, 576), (5, 161_280)])
def test_anova_listing_is_sorted(size, latin_squares):
    # the systems of anova IxI are its Latin squares up to relabelling the
    # symbols, L(I) / I! of them, listed in the order of their block tuples
    catalog = enumerate_circuit_randomisations(to_contrast_form(anova_two_way(size, size)))
    listed = [tuple(map(catalog.supports.__getitem__, c)) for c in catalog.covers]
    assert len(listed) == latin_squares // math.factorial(size)
    assert listed == sorted(listed)
    assert listed == [s.blocks for s in catalog.systems]


VIEW_DESIGNS = {
    "2^4": lambda: factorial_two_level(4),
    "digraph5": lambda: digraph_design(digraph_five()),
    "choice k=3": lambda: choice_k_of_2k(3),
    "anova 4x4": lambda: anova_two_way(4, 4),
}


@pytest.mark.parametrize("name", sorted(VIEW_DESIGNS))
@pytest.mark.parametrize("include_full", [False, True])
def test_catalog_view_matches_built_systems(name, include_full):
    model = to_contrast_form(VIEW_DESIGNS[name]())
    catalog = enumerate_circuit_randomisations(model, include_full=include_full)
    systems = catalog.systems
    assert len(catalog) == len(systems)
    assert catalog.shape_counts == Counter(s.shape for s in systems)
    assert list(catalog.shape_counts) == sorted(catalog.shape_counts, reverse=True)
    assert list(catalog.refinement_edges) == oracles.covering_pairs([s.blocks for s in systems])
    assert all(is_valid_randomisation(model, s) for s in systems)


def test_refines_and_shared_blocks():
    fine = RandomisationSystem(6, [[0, 1], [2, 3], [4, 5]])
    coarse = RandomisationSystem(6, [[0, 1], [2, 3, 4, 5]])
    other = RandomisationSystem(6, [[0, 2], [1, 3], [4, 5]])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    assert refines(fine, fine)
    assert not refines(other, coarse)


def test_refinement_edges_cover_relation():
    # Three disjoint 2-cycles: the partition lattice of cycle families.
    model = to_contrast_form(three_two_cycles())
    catalog = enumerate_circuit_randomisations(model)
    assert [s.shape for s in catalog.systems] == [(2, 2, 2)]
    assert catalog.refinement_edges == ()


def test_covering_pairs_oracle_on_a_chain():
    fine = [[0, 1], [2, 3], [4, 5]]
    middle = [[0, 1], [2, 3, 4, 5]]
    full = [[0, 1, 2, 3, 4, 5]]
    other = [[0, 2], [1, 3], [4, 5]]
    assert oracles.covering_pairs([fine, middle, full, other]) == [(1, 0), (2, 1), (2, 3)]


@pytest.mark.parametrize("name", ["2^3", "2^4", "three 2-cycles"])
@pytest.mark.parametrize("include_full", [False, True])
def test_refinement_edges_match_covering_oracle(name, include_full):
    model = to_contrast_form(CATALOG_DESIGNS[name]())
    catalog = enumerate_circuit_randomisations(model, include_full=include_full)
    # each exact cover is emitted once, so no system repeats
    assert len(set(catalog.systems)) == len(catalog.systems)
    expected = oracles.covering_pairs([s.blocks for s in catalog.systems])
    assert list(catalog.refinement_edges) == expected
    assert len(expected) == (len(catalog) - 1 if include_full else 0)


@pytest.mark.parametrize("name", sorted(CATALOG_DESIGNS))
def test_binary_support_search_matches_full_basis(name):
    model = to_contrast_form(CATALOG_DESIGNS[name]())
    a = model.contrast.transpose()
    expected = [c.vector for c in binary_circuits(circuit_basis(a))]
    assert binary_circuit_vectors(a) == expected
    assert randomisation_vectors(model) == expected


def test_two_fifth_supports_without_the_full_basis():
    """2^5 has 76,368 circuits, too many to list; its binary ones are searched directly."""
    start = time.perf_counter()
    model = to_contrast_form(factorial_two_level(5))
    vectors = randomisation_vectors(model)
    elapsed = time.perf_counter() - start
    assert len(vectors) == 1080 and len(set(vectors)) == 1080
    columns = model.contrast.columns()
    for v in vectors:
        assert set(v) == {0, 1}
        support = [i for i, x in enumerate(v) if x]
        assert all(sum(col[i] for i in support) == 0 for col in columns)
        rows = [[Fraction(x) for x in model.contrast.rows[i]] for i in support]
        _, pivots = oracles.rref(rows)
        assert len(pivots) == len(support) - 1
    assert elapsed < 30.0


def test_is_decomposable(model_2cubed):
    assert not is_decomposable(model_2cubed, [1, 0, 0, 0, 0, 0, 0, 1])
    assert not is_decomposable(model_2cubed, [1, 0, 0, 1, 0, 1, 1, 0])
    union = [1, 1, 0, 0, 0, 0, 1, 1]  # {1,8} plus {2,7}
    assert is_decomposable(model_2cubed, union)


def test_is_decomposable_input_checks(model_2cubed):
    with pytest.raises(ValueError):
        is_decomposable(model_2cubed, [2, 0, 0, 0, 0, 0, 0, 2])
    with pytest.raises(NotARandomisationVectorError):
        is_decomposable(model_2cubed, [1, 1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(NotARandomisationVectorError):
        is_decomposable(model_2cubed, [0] * 8)
    with pytest.raises(DimensionMismatchError):
        is_decomposable(model_2cubed, [1, 1])
    with pytest.raises(TypeError):
        is_decomposable(model_2cubed, [1.0, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(TypeError):
        is_decomposable(model_2cubed, ["1", 0, 0, 0, 0, 0, 0, 1])


def assert_decomposable_matches_brute_force(model):
    """Check every nonzero 0/1 vector orthogonal to the contrasts.

    A vector is decomposable exactly when some binary circuit of the
    transposed contrast matrix, found by scanning every column subset, has
    its support strictly inside the vector's support.
    """
    n, cols = model.n_runs, model.contrast.columns()
    circuits = oracles.brute_circuit_vectors([list(c) for c in cols], n)
    binary = [frozenset(i for i, x in enumerate(c) if x) for c in circuits if set(c) <= {0, 1}]
    for bits in range(1, 1 << n):
        support = frozenset(i for i in range(n) if bits >> i & 1)
        if any(sum(col[i] for i in support) for col in cols):
            continue
        v = [int(i in support) for i in range(n)]
        assert is_decomposable(model, v) == any(b < support for b in binary), sorted(support)


@pytest.mark.parametrize(
    "name", [k for k in sorted(CATALOG_DESIGNS) if CATALOG_DESIGNS[k]().n_runs <= 9]
)
def test_is_decomposable_matches_brute_force_on_catalog_models(name):
    assert_decomposable_matches_brute_force(to_contrast_form(CATALOG_DESIGNS[name]()))


@st.composite
def small_models(draw):
    """Zero-sum integer contrasts on up to 8 runs: some dependent, some with a zero row, q = 0."""
    n = draw(st.integers(1, 8))
    q = draw(st.integers(0, min(n - 1, 3)))
    zero_row = n >= 2 and draw(st.booleans())
    live = n - zero_row
    raw = [draw(st.lists(st.integers(-2, 2), min_size=live, max_size=live)) for _ in range(q)]
    cols = [[live * x - sum(col) for x in col] for col in raw]
    if zero_row:
        at = draw(st.integers(0, n - 1))
        for col in cols:
            col.insert(at, 0)
    if cols and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        cols.append([k * a + b for a, b in zip(cols[0], cols[-1])])
    return hand_built_model(n, cols)


@settings(max_examples=150, deadline=None)
@given(small_models())
# the block {1,5,8} is minimal and orthogonal but holds no circuit: only pairs are circuits
@example(hand_built_model(8, [(1, -2, -2, 2, -2, 0, 2, 1)]))
def test_is_decomposable_matches_brute_force(model):
    assert_decomposable_matches_brute_force(model)


def test_refines_refuses_systems_of_different_run_counts():
    with pytest.raises(DimensionMismatchError, match="^systems have different run counts$"):
        refines(RandomisationSystem(2, [(0, 1)]), RandomisationSystem(4, [(0, 1, 2, 3)]))
