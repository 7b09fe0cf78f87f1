import hashlib
import inspect
import random
import time
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitrand import circuits
from circuitrand.circuits import (
    Circuit,
    NotInKernelError,
    binary_circuit_vectors,
    binary_circuits,
    circuit_basis,
    conformal_decompose,
    nonnegative_circuits,
)
from circuitrand.contrast import to_contrast_form
from circuitrand.design_catalog import (
    anova_two_way,
    choice_k_of_2k,
    digraph_design,
    factorial_two_level,
)
from circuitrand.exact_linalg import IntMatrix, rank
from circuitrand.unimodular import DirectedGraph, incidence_matrix

import oracles
from conftest import digraph_five

TWO_CUBED_T = IntMatrix.from_rows([
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1],
    [1, -1, 1, -1, 1, -1, 1, -1],
])


def test_zero_circuit_rejected():
    c = Circuit((0, 2, 0, -1))
    assert c.support == (1, 3)
    assert not c.is_nonnegative()
    assert c.negated().vector == (0, -2, 0, 1)
    with pytest.raises(ValueError, match="nonzero"):
        Circuit((0, 0))


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6).filter(any).map(tuple))
def test_a_trusted_circuit_is_the_checked_circuit(vector):
    trusted = circuits._trusted_circuit(vector)
    assert trusted == Circuit(vector)
    assert hash(trusted) == hash(Circuit(vector))
    assert (trusted.vector, trusted.support) == (vector, Circuit(vector).support)


def test_circuit_basis_matches_brute_force():
    rng = random.Random(20260815)
    for _ in range(60):
        n_rows = rng.randint(1, 3)
        n_cols = rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        basis = circuit_basis(IntMatrix.from_rows(rows, n_cols=n_cols))
        assert sorted(c.vector for c in basis.circuits) == oracles.brute_circuit_vectors(rows, n_cols)


@st.composite
def matrices_with_related_columns(draw):
    """Small integer matrices whose columns repeat, cancel and vanish.

    Besides random columns, some are zero, some are copies or negations of
    another, and some close a binary circuit by negating the sum of others.
    """
    n_rows = draw(st.integers(1, 3))
    column = st.lists(st.integers(-2, 2), min_size=n_rows, max_size=n_rows)
    cols = draw(st.lists(column, min_size=1, max_size=5))
    base = list(cols)
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "negate", "close"]), max_size=3)):
        if kind == "zero":
            cols.append([0] * n_rows)
            continue
        size = 3 if kind == "close" else 1
        picked = draw(st.lists(st.sampled_from(base), min_size=1, max_size=size))
        total = [sum(c[r] for c in picked) for r in range(n_rows)]
        cols.append(total if kind == "copy" else [-x for x in total])
    cols = draw(st.permutations(cols))
    return [[c[r] for c in cols] for r in range(n_rows)], len(cols)


@settings(max_examples=150, deadline=None)
@given(matrices_with_related_columns())
# cols 0 and 1 sum to (3, 1), beyond max|a| = 2: the packed key's fields
# are sized for sums of columns, not for single entries
@example(([[2, 1, 2], [0, 1, -2]], 3))
def test_binary_circuit_search_matches_basis_and_oracle(drawn):
    rows, n_cols = drawn
    m = IntMatrix.from_rows(rows, n_cols=n_cols)
    vectors = binary_circuit_vectors(m)
    assert vectors == [c.vector for c in binary_circuits(circuit_basis(m))]
    assert vectors == sorted(set(vectors))
    brute = oracles.brute_circuit_vectors(rows, n_cols)
    assert vectors == [v for v in brute if set(v) <= {0, 1}]


@st.composite
def matrices_closing_at_the_field_limit(draw):
    """Matrices with entries in -4..4 and a column of +-4 entries that closes.

    Up to four columns add up to the negation of a closing column whose
    entries are all 4 or -4, and most entries are 4 or -4, so the running
    sums and row bounds of the search reach ``(rank + 1) * 4``, the largest
    value a field of the packed key must hold.  A few more columns of
    entries in -4..4 ride along.
    """
    n_rows = draw(st.integers(1, 4))
    parts = draw(st.integers(1, 4))
    closing = draw(st.lists(st.sampled_from([-4, 4]), min_size=n_rows, max_size=n_rows))
    split = []
    for target in closing:
        # parts entries in -4..4 that sum to -target, mostly at an end of
        # the range that keeps the sum reachable
        remaining = -target
        row = []
        for left in range(parts - 1, 0, -1):
            lo, hi = max(-4, remaining - 4 * left), min(4, remaining + 4 * left)
            x = draw(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)))
            row.append(x)
            remaining -= x
        split.append(row + [remaining])
    cols = [list(c) for c in zip(*split)] + [closing]
    entry = st.one_of(st.sampled_from([-4, 4]), st.integers(-4, 4))
    cols += draw(st.lists(st.lists(entry, min_size=n_rows, max_size=n_rows), max_size=4))
    cols = draw(st.permutations(cols))
    return [[c[r] for c in cols] for r in range(n_rows)], len(cols)


@settings(max_examples=200, deadline=None)
@given(matrices_closing_at_the_field_limit())
# below the first node row 0 can still fall by 8, a field value that needs
# 5-bit fields; with one bit fewer both circuits are lost
@example(([[0, 4, -4, -4], [4, 0, -4, -4]], 4))
def test_binary_circuit_search_matches_oracle_at_the_field_limit(drawn):
    rows, n_cols = drawn
    vectors = binary_circuit_vectors(IntMatrix.from_rows(rows, n_cols=n_cols))
    brute = oracles.brute_circuit_vectors(rows, n_cols)
    assert vectors == [v for v in brute if set(v) <= {0, 1}]


HADAMARD = {
    1: [[1]],
    2: [[1, 1], [1, -1]],
    4: [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
}


@st.composite
def matrices_at_the_hadamard_bound(draw):
    """Matrices whose minors reach Hadamard's bound on their column norms.

    A +-1 Hadamard block of order 1, 2 or 4, scaled by up to 10**4 and set
    in some of 0 to 5 rows, has orthogonal columns of one norm whose minor
    on the block's rows is the product of their norms, the bound that the
    circuit searches size their packed fields by.  Zero, copied, negated
    and closing columns ride along, and so do random columns with entries
    up to half the scale.  No block gives 0 rows or rank 0; a block of order
    one gives rank 1, where the basis closes its pairs at the root.
    """
    n_rows = draw(st.integers(0, 5))
    order = draw(st.sampled_from([o for o in (0, 1, 2, 4) if o <= n_rows]))
    scale = draw(st.one_of(st.sampled_from([1, 2, 10**4]), st.integers(1, 10**4)))
    offset = draw(st.integers(0, n_rows - order))
    block = HADAMARD.get(order, [])
    cols = [
        [scale * block[r - offset][j] if offset <= r < offset + order else 0 for r in range(n_rows)]
        for j in range(order)
    ]
    base = list(cols)
    kinds = ["zero", "copy", "negate", "close", "random"] if base else ["zero"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        if kind == "zero":
            cols.append([0] * n_rows)
        elif kind == "random":
            entry = st.integers(-scale // 2, scale // 2)
            cols.append(draw(st.lists(entry, min_size=n_rows, max_size=n_rows)))
        else:
            size = 3 if kind == "close" else 1
            picked = draw(st.lists(st.sampled_from(base), min_size=1, max_size=size))
            total = [sum(c[r] for c in picked) for r in range(n_rows)]
            cols.append(total if kind == "copy" else [-x for x in total])
    cols = draw(st.permutations(cols))
    return [[c[r] for c in cols] for r in range(n_rows)], len(cols)


@settings(max_examples=200, deadline=None)
@given(matrices_at_the_hadamard_bound())
# the order-4 block's determinant 16 is the product of the column norms:
# with fields one bit narrower it reads as -16 and the basis goes wrong,
# and so it does when a column with a zero entry at a pivot is not rescaled
@example(([[1, 1, 1, 1, 1], [1, -1, 1, -1, 1], [1, 1, -1, -1, -1], [1, -1, -1, 1, 1]], 5))
# Hadamard's bound here is sqrt(2) * 1, so the fields hold entries up to 1:
# with one bit fewer an entry of 1 is misread and both searches go wrong
@example(([[0, 0, 0, 1, 0], [1, -1, 0, 1, 1]], 5))
# columns 0 and 2 are orthogonal, so their 2-minor -4 * 10**8 is their
# norm product: with fields one bit narrower the basis goes wrong
@example(([[10**4, 10**4, -2 * 10**4, 10**4], [10**4, -10**4, 2 * 10**4, -10**4]], 4))
@example(([], 3))
@example(([[0, 0], [0, 0]], 2))
@example(([[2, -2, 0, 4]], 4))
def test_circuit_searches_match_oracle_at_the_hadamard_bound(drawn):
    rows, n_cols = drawn
    m = IntMatrix.from_rows(rows, n_cols=n_cols)
    brute = oracles.brute_circuit_vectors(rows, n_cols)
    assert circuit_basis(m).vectors() == brute
    assert binary_circuit_vectors(m) == [v for v in brute if set(v) <= {0, 1}]


@settings(max_examples=150, deadline=None)
@given(matrices_with_related_columns())
def test_circuit_basis_matches_oracle_on_related_columns(drawn):
    rows, n_cols = drawn
    basis = circuit_basis(IntMatrix.from_rows(rows, n_cols=n_cols))
    assert basis.vectors() == oracles.brute_circuit_vectors(rows, n_cols)


@st.composite
def matrices_below_full_row_rank(draw):
    """``matrices_with_related_columns`` plus one row that sums some of the others."""
    rows, n_cols = draw(matrices_with_related_columns())
    picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=len(rows)))
    return rows + [[sum(col) for col in zip(*picked)]], n_cols


@settings(max_examples=150, deadline=None)
@given(matrices_below_full_row_rank())
def test_circuit_basis_matches_oracle_below_full_row_rank(drawn):
    rows, n_cols = drawn
    basis = circuit_basis(IntMatrix.from_rows(rows, n_cols=n_cols))
    assert basis.vectors() == oracles.brute_circuit_vectors(rows, n_cols)


@st.composite
def rank_one_matrices(draw):
    """Outer products ``x y^T`` whose factors have zero entries.

    The rank is one unless a factor is all zero, so the search closes its
    circuits in pairs at the root.
    """
    entry = st.sampled_from([0, 0, 1, -1, 2, -3])
    x = draw(st.lists(entry, min_size=1, max_size=3))
    y = draw(st.lists(entry, min_size=1, max_size=7))
    return [[s * t for t in y] for s in x], len(y)


@settings(max_examples=150, deadline=None)
@given(rank_one_matrices())
@example(([[0, 2, -1, 0, 3, 1], [0, -4, 2, 0, -6, -2]], 6))
def test_circuit_basis_matches_oracle_on_rank_one_matrices(drawn):
    rows, n_cols = drawn
    basis = circuit_basis(IntMatrix.from_rows(rows, n_cols=n_cols))
    assert basis.vectors() == oracles.brute_circuit_vectors(rows, n_cols)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_circuit_basis_is_equivariant_under_column_permutation(data):
    rows, n_cols = data.draw(matrices_with_related_columns())
    perm = data.draw(st.permutations(range(n_cols)))
    permuted = [[row[p] for p in perm] for row in rows]
    expected = sorted(
        oracles.canonical_sign(tuple(v[p] for p in perm))
        for v in circuit_basis(IntMatrix.from_rows(rows, n_cols=n_cols)).vectors()
    )
    assert circuit_basis(IntMatrix.from_rows(permuted, n_cols=n_cols)).vectors() == expected


def _transposed_contrast(design) -> IntMatrix:
    return to_contrast_form(design).contrast.transpose()


# sha256 of the circuit listing of each matrix, one vector per line with
# entries separated by spaces.  The catalog contrast transposes were first
# computed by a subset scan.  The generic 5x13 matrix, entries in -2..2,
# and the incidence matrix of an oriented 7-vertex graph with 18 edges are
# the two input classes of the basis-mixed benchmark workload; the generic
# one is where fraction-free and primitive remainders differ most
PINNED_BASES = {
    "2^4": (
        lambda: _transposed_contrast(factorial_two_level(4)),
        456,
        "b7d937c28aae7316c6303deddf6f28d33bc39a684f6e847642f4fb9e235987bf",
    ),
    "digraph5": (
        lambda: _transposed_contrast(digraph_design(digraph_five())),
        198,
        "11f6b69f48650bcf4fc0c3c6ceb05a3ff158f317a4153a9652036c19326696be",
    ),
    "choice k=3": (
        lambda: _transposed_contrast(choice_k_of_2k(3)),
        1210,
        "7f9e6c6c2268a16d98d00c90bd36cc3e2f215c3e6bcb666b655cf697347ee66c",
    ),
    "anova 4x4": (
        lambda: _transposed_contrast(anova_two_way(4, 4)),
        460,
        "1466efd1abd088b9c4270561f58eeea70d6ba2cee97f94291225ab17fe35c715",
    ),
    "generic 5x13": (
        lambda: IntMatrix.from_rows([
            [1, 0, 0, 2, -1, 0, -2, -2, 0, -1, -1, -2, 0],
            [1, 0, -1, -1, -2, 2, -1, -2, -2, 0, 2, 2, -2],
            [1, 1, -2, -2, -1, 0, 1, 1, -1, 2, -2, 0, 1],
            [0, 0, 2, -1, -2, 1, -2, -2, 0, 1, -2, 1, 2],
            [-2, 1, -1, 2, 2, 1, 0, 2, -1, 2, -1, 2, 0],
        ]),
        1639,
        "7230df17e8344520c92ddd2bfe7a604fde06f655df3b5945a4912b85fac65752",
    ),
    "incidence 7": (
        lambda: incidence_matrix(DirectedGraph.from_edges([
            (2, 4), (2, 1), (5, 1), (3, 6), (3, 0), (6, 0), (1, 3), (0, 4), (4, 5),
            (4, 6), (2, 3), (6, 2), (2, 0), (3, 4), (1, 0), (6, 1), (2, 5), (5, 6),
        ], 7)),
        436,
        "42a57b8e6adb505475c7e39b6bbcb211f2b682f89c6c5d775db11efc97cbcc63",
    ),
}


def _digest(vectors):
    listing = "".join(" ".join(map(str, v)) + "\n" for v in vectors)
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED_BASES)
def test_catalog_circuit_bases_are_pinned(name):
    matrix, count, digest = PINNED_BASES[name]
    vectors = circuit_basis(matrix()).vectors()
    assert len(vectors) == count
    assert _digest(vectors) == digest


def test_each_reduction_takes_at_most_one_row(monkeypatch):
    # the general searches carry eliminated columns down the tree, so every
    # (I, j) pair takes one step against the one pivot row that the last
    # pick added.  A step takes a single packed row, so it cannot take more.
    # digraph5 is a network matrix, which the public searches send to the
    # cycle search, so the general ones are called by name
    assert list(inspect.signature(circuits._step).parameters) == ["column", "q", "row", "p", "prev"]
    rows = []
    step = circuits._step

    def recording(column, q, row, p, prev):
        rows.append(row)
        return step(column, q, row, p, prev)

    monkeypatch.setattr(circuits, "_step", recording)
    for name in ("anova 4x4", "digraph5"):
        matrix, count, digest = PINNED_BASES[name]
        ct = matrix()
        basis = circuits._general_basis(ct)
        assert len(basis) == count
        assert _digest(basis.vectors()) == digest
        assert circuits._general_binary(ct) == [c.vector for c in binary_circuits(basis)]
    assert rows
    assert all(type(row) is int for row in rows)


def test_complete_graph_basis_skips_nodes_that_hold_no_circuit(count_steps):
    # the circuits of K7 are its cycles: C(7, k) vertex sets of size k, each
    # carrying (k - 1)! / 2 cycles.  Making every pending column a node and
    # entering every subtree takes 41,827 reductions here; closing the last
    # level in pairs and skipping dead subtrees takes 8,832.  The public
    # search lists these cycles with no step, so the general one is called
    edges = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    basis = circuits._general_basis(incidence_matrix(DirectedGraph.from_edges(edges, 7)))
    assert len(basis) == sum(comb(7, k) * factorial(k - 1) // 2 for k in range(3, 8)) == 1172
    assert len(count_steps) <= 10_000


def _permutation_matrices(size: int) -> list[tuple[int, ...]]:
    """The cells of every permutation matrix, as row-major 0/1 vectors."""
    return sorted(
        tuple(int(p[i] == j) for i in range(size) for j in range(size))
        for p in permutations(range(size))
    )


@pytest.mark.parametrize("size, bound", [(4, 600), (5, 5_000)])
def test_anova_binary_search_cuts_unreachable_rows(count_steps, size, bound):
    # the binary circuits of anova IxI are the I! permutation matrices.
    # Reducing every independent set of up to rank - 1 columns takes 5,816
    # reductions at 4x4 and 542,442 at 5x5; cutting the nodes where some row
    # of -sum(I) is out of reach takes 354 and 2,710
    ct = to_contrast_form(anova_two_way(size, size)).contrast.transpose()
    assert binary_circuit_vectors(ct) == _permutation_matrices(size)
    assert len(count_steps) <= bound


def test_anova_six_by_six_binary_circuits():
    ct = to_contrast_form(anova_two_way(6, 6)).contrast.transpose()
    start = time.perf_counter()
    vectors = binary_circuit_vectors(ct)
    elapsed = time.perf_counter() - start
    assert len(vectors) == 720
    assert vectors == _permutation_matrices(6)
    assert elapsed < 2


@st.composite
def multigraph_incidences(draw):
    """Network matrices from directed multigraphs on up to 5 vertices.

    Up to 9 edges, some of them parallel or antiparallel copies of others;
    vertices that no edge touches stay isolated.  Sometimes one vertex's
    row is dropped, which leaves each of its edges one nonzero entry (an
    edge to the ground vertex), and zero columns (loops) are added, up to
    9 columns in all.  Cycles close after few columns, so many columns turn
    dependent early in the general search.
    """
    n_vertices = draw(st.integers(2, 5))
    vertex = st.integers(0, n_vertices - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, min_size=1, max_size=6))
    for t, h in draw(st.lists(st.sampled_from(edges), max_size=3)):
        edges.append(draw(st.sampled_from([(t, h), (h, t)])))
    rows = list(incidence_matrix(DirectedGraph.from_edges(edges, n_vertices)).rows)
    if draw(st.booleans()):
        del rows[draw(vertex)]
    cols = list(zip(*rows))
    cols += [(0,) * len(rows)] * draw(st.integers(0, 9 - len(cols)))
    cols = draw(st.permutations(cols))
    return IntMatrix.from_rows([[c[r] for c in cols] for r in range(len(rows))], n_cols=len(cols))


@settings(max_examples=150, deadline=None)
@given(multigraph_incidences())
# a ground column, an antiparallel pair to ground and a loop
@example(IntMatrix.from_rows([[1, 0, 1, -1], [-1, 0, 0, 1]]))
def test_circuit_searches_match_oracle_on_multigraph_incidences(m):
    brute = oracles.brute_circuit_vectors([list(r) for r in m.rows], m.n_cols)
    binary = [v for v in brute if set(v) <= {0, 1}]
    assert circuits._cycle_vectors(m, directed=False) is not None
    assert circuit_basis(m).vectors() == brute
    assert circuits._general_basis(m).vectors() == brute
    assert binary_circuit_vectors(m) == binary
    assert circuits._general_binary(m) == binary


@pytest.mark.parametrize("name", ["digraph5", "incidence 7"])
def test_network_matrices_take_no_elimination_step(count_steps, name):
    matrix, count, digest = PINNED_BASES[name]
    m = matrix()
    vectors = circuit_basis(m).vectors()
    assert (len(vectors), _digest(vectors)) == (count, digest)
    assert binary_circuit_vectors(m) == [v for v in vectors if set(v) <= {0, 1}]
    assert count_steps == []


def test_one_column_off_network_takes_the_general_search(count_steps):
    # K4 with the directed cycles 0 -> 1 -> 2 -> 0, 2 -> 3 -> 1 -> 2 and
    # 0 -> 3 -> 1 -> 2 -> 0, plus a column with two +1 entries, which no edge has
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (2, 3)]
    rows = [list(r) for r in incidence_matrix(DirectedGraph.from_edges(edges, 4)).rows]
    for row, x in zip(rows, (1, 1, -1, 0)):
        row.insert(3, x)
    m = IntMatrix.from_rows(rows)
    assert circuits._cycle_vectors(m, directed=False) is None
    brute = oracles.brute_circuit_vectors(rows, m.n_cols)
    assert circuit_basis(m).vectors() == brute
    basis_steps = len(count_steps)
    assert basis_steps > 0
    assert binary_circuit_vectors(m) == [v for v in brute if set(v) <= {0, 1}]
    assert len(count_steps) > basis_steps


def test_long_directed_cycle_is_walked_without_recursion():
    # 1,100 vertices is deeper than Python's default recursion limit; the
    # general search already takes about 5 s at 160 vertices
    start = time.perf_counter()
    n = 1_100
    m = incidence_matrix(DirectedGraph.from_edges([(i, (i + 1) % n) for i in range(n)], n))
    assert circuit_basis(m).vectors() == [(1,) * n]
    assert binary_circuit_vectors(m) == [(1,) * n]
    assert time.perf_counter() - start < 2


def test_two_fifth_full_basis():
    ct = to_contrast_form(factorial_two_level(5)).contrast.transpose()
    start = time.perf_counter()
    basis = circuit_basis(ct)
    elapsed = time.perf_counter() - start
    assert len(basis) == 76368
    binary = [c.vector for c in binary_circuits(basis)]
    assert len(binary) == 1080
    assert binary == binary_circuit_vectors(ct)
    assert elapsed < 60


def test_circuits_listed_in_ascending_vector_order():
    basis = circuit_basis(TWO_CUBED_T)
    vectors = [c.vector for c in basis.circuits]
    assert vectors == sorted(vectors)


def test_canonical_sign_and_primitivity():
    basis = circuit_basis(TWO_CUBED_T)
    for c in basis.circuits:
        lead = next(x for x in c.vector if x != 0)
        assert lead > 0
        g = 0
        for x in c.vector:
            g = __import__("math").gcd(g, abs(x))
        assert g == 1


def test_support_bound_rank_plus_one():
    rng = random.Random(5)
    for _ in range(40):
        n_rows = rng.randint(1, 3)
        n_cols = rng.randint(2, 7)
        rows = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        m = IntMatrix.from_rows(rows, n_cols=n_cols)
        r = rank(m)
        for c in circuit_basis(m).circuits:
            assert len(c.support) <= r + 1


def test_two_cubed_counts():
    basis = circuit_basis(TWO_CUBED_T)
    assert len(basis) == 20
    nn = nonnegative_circuits(basis)
    assert len(nn) == 6
    assert all(c.is_binary() for c in nn)
    assert binary_circuits(basis) == nn


def test_nonnegative_filter_returns_nonnegative_representatives():
    m = IntMatrix.from_rows([[1, -1]])
    basis = circuit_basis(m)
    assert [c.vector for c in nonnegative_circuits(basis)] == [(1, 1)]
    m2 = IntMatrix.from_rows([[1, 1]])
    assert nonnegative_circuits(circuit_basis(m2)) == []


def test_conformal_decomposition_recombines_exactly():
    basis = circuit_basis(TWO_CUBED_T)
    rng = random.Random(3)
    kernel_vectors = [c.vector for c in basis.circuits]
    for _ in range(50):
        coeffs = [rng.randint(-3, 3) for _ in kernel_vectors[:4]]
        v = [sum(q * vec[i] for q, vec in zip(coeffs, kernel_vectors)) for i in range(8)]
        terms = conformal_decompose(v, basis)
        total = [Fraction(0)] * 8
        for w, c in terms:
            assert w > 0
            for i, x in enumerate(c.vector):
                if x > 0:
                    assert v[i] > 0
                if x < 0:
                    assert v[i] < 0
                total[i] += w * x
        assert total == [Fraction(x) for x in v]
        assert len(terms) <= 8 - rank(TWO_CUBED_T)


def test_conformal_decomposition_of_indicator():
    basis = circuit_basis(TWO_CUBED_T)
    v = [2, 0, 0, 1, 1, 0, 0, 2]
    terms = conformal_decompose(v, basis)
    assert [(w, c.vector) for w, c in terms] == [
        (Fraction(1), (0, 0, 0, 1, 1, 0, 0, 0)),
        (Fraction(2), (1, 0, 0, 0, 0, 0, 0, 1)),
    ]


def test_conformal_decompose_rejects_non_integer_entries():
    basis = circuit_basis(IntMatrix.from_rows([[1, 1, 1, 1]]))
    assert [(w, c.vector) for w, c in conformal_decompose((1, 0, -1, 0), basis)] == [
        (Fraction(1), (1, 0, -1, 0))
    ]
    # read exactly, never truncated to (1, 0, -1, 0) or to zero
    for v in ((1.9, 0, -1.9, 0), (Fraction(1, 2), 0, Fraction(-1, 2), 0)):
        with pytest.raises(TypeError):
            conformal_decompose(v, basis)


def test_conformal_decompose_rejects_non_kernel_vectors():
    basis = circuit_basis(TWO_CUBED_T)
    with pytest.raises(NotInKernelError):
        conformal_decompose([1, 0, 0, 0, 0, 0, 0, 0], basis)


def test_zero_vector_decomposes_to_nothing():
    basis = circuit_basis(TWO_CUBED_T)
    assert conformal_decompose([0] * 8, basis) == []


def test_conformal_decompose_rejects_a_vector_of_the_wrong_length():
    basis = circuit_basis(TWO_CUBED_T)
    with pytest.raises(ValueError, match="^vector length does not match the matrix column count$"):
        conformal_decompose([0] * 7, basis)
