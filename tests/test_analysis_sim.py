import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circuitrand import contrast
from circuitrand.analysis_sim import (
    CovarianceOrdering,
    RankDeficientError,
    block_shift_invariance,
    covariance_comparison,
    lse_contrast_estimates,
    lse_estimates,
    naive_block_bias,
    simulate_ab,
)
from circuitrand.contrast import ContrastModel, to_contrast_form
from circuitrand.design_catalog import anova_two_way, choice_k_of_2k, factorial_two_level
from circuitrand.exact_linalg import IntMatrix
from circuitrand.randomisation import (
    DimensionMismatchError,
    RandomisationSystem,
    _block_violation,
    enumerate_circuit_randomisations,
)

import oracles


def indicator_matrix(n, blocks):
    sets = [set(b) for b in blocks]
    return IntMatrix.from_rows([[int(i in b) for b in sets] for i in range(n)], n_cols=len(sets))


def test_lse_estimates_orthogonal_design(model_2cubed):
    y = [Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7, 8)]
    full = lse_estimates(model_2cubed, y)
    # Orthogonal +-1 columns: each estimate is a signed mean.
    assert full == (Fraction(9, 2), Fraction(-2), Fraction(-1), Fraction(-1, 2))
    assert lse_contrast_estimates(model_2cubed, y) == full[1:]


def test_lse_estimates_match_normal_equations(model_choice):
    rng = random.Random(1)
    m = IntMatrix.from_rows(oracles.model_matrix(model_choice))
    for _ in range(20):
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)]
        est = lse_estimates(model_choice, y)
        # Residual must be orthogonal to every model column.
        fitted = m.mul_vector(list(est))
        resid = [a - b for a, b in zip(y, fitted)]
        for j in range(m.n_cols):
            col = [m.rows[i][j] for i in range(m.n_rows)]
            assert sum(c * r for c, r in zip(col, resid)) == 0


def test_block_shift_invariance_valid_system(model_2cubed, catalog_2cubed):
    rng = random.Random(2)
    for system in catalog_2cubed.systems:
        for _ in range(10):
            y = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(8)]
            gamma = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in system.blocks]
            assert block_shift_invariance(model_2cubed, system, y, gamma)


def test_block_shift_invariance_detects_bad_blocks(model_2cubed):
    bad = RandomisationSystem(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
    y = [Fraction(i) for i in range(8)]
    assert not block_shift_invariance(model_2cubed, bad, y, [1, 0])
    # A zero shift changes nothing even for a bad system.
    assert block_shift_invariance(model_2cubed, bad, y, [0, 0])


def test_block_shift_invariance_input_checks(model_2cubed):
    good = RandomisationSystem(8, [[0, 7], [1, 6], [2, 5], [3, 4]])
    with pytest.raises(ValueError):
        block_shift_invariance(model_2cubed, good, [0] * 8, [1])
    with pytest.raises(DimensionMismatchError):
        block_shift_invariance(
            model_2cubed, RandomisationSystem(4, [[0, 1], [2, 3]]), [0] * 8, [1, 1]
        )
    with pytest.raises(DimensionMismatchError, match="^response length does not match the model$"):
        block_shift_invariance(model_2cubed, good, [0] * 7, [1, 1, 1, 1])


def test_naive_block_bias_exact_half(model_2cubed):
    for g in (Fraction(1), Fraction(3, 7), Fraction(-2)):
        assert naive_block_bias(model_2cubed, [[0, 1, 2, 3]], [g]) == (g / 2, Fraction(0), Fraction(0))


def test_naive_block_bias_zero_for_orthogonal_blocks(model_2cubed, catalog_2cubed):
    for system in catalog_2cubed.systems:
        gamma = [Fraction(k + 1, 3) for k in range(len(system.blocks))]
        assert naive_block_bias(model_2cubed, system.blocks, gamma) == (Fraction(0),) * 3


def test_naive_block_bias_input_checks(model_2cubed):
    with pytest.raises(ValueError, match="one effect per block"):
        naive_block_bias(model_2cubed, [[0, 1, 2, 3]], [1, 2])


def test_covariance_comparison_orderings(model_2cubed):
    non_orthogonal = [[0, 1, 2, 3]]
    assert covariance_comparison(model_2cubed, non_orthogonal) == CovarianceOrdering.PROPER_DOMINATES
    orthogonal = [[0, 7], [1, 6], [2, 5], [3, 4]]
    assert covariance_comparison(model_2cubed, orthogonal) == CovarianceOrdering.EQUAL
    assert covariance_comparison(model_2cubed, []) == CovarianceOrdering.EQUAL


@pytest.mark.parametrize(
    "blocks, message",
    [
        # with overlapping blocks, which of them a fit keeps depends on their order
        ([range(8), [0, 1, 2, 3]], "blocks overlap"),
        ([[0, 1, 2, 3], range(8)], "blocks overlap"),
        ([[0, 1], []], "blocks need at least two runs"),
        ([[0, 1], [2]], "blocks need at least two runs"),
        ([[0, 1, 1]], "repeated run inside a block"),
        ([[0, 8]], "run index beyond 8"),
        ([[-1, 0]], "run indices cannot be negative"),
    ],
    ids=["overlap", "overlap-reversed", "empty", "one-run", "repeated", "beyond", "negative"],
)
def test_block_diagnostics_reject_what_is_not_a_blocking(model_2cubed, blocks, message):
    for call in (
        lambda: covariance_comparison(model_2cubed, blocks),
        lambda: naive_block_bias(model_2cubed, blocks, [1] * len(blocks)),
    ):
        with pytest.raises(ValueError, match=message):
            call()


CATALOG_MODELS = {
    "2^3": to_contrast_form(factorial_two_level(3)),
    "anova 3x3": to_contrast_form(anova_two_way(3, 3)),
    "choice k=2": to_contrast_form(choice_k_of_2k(2)),
}


@lru_cache(maxsize=None)
def catalog_systems(name):
    return enumerate_circuit_randomisations(CATALOG_MODELS[name]).systems


def partition(draw, runs, min_size):
    """A random partition of ``runs`` into blocks of at least ``min_size``."""
    runs = draw(st.permutations(runs))
    blocks = []
    while runs:
        size = draw(st.integers(min_size, len(runs)))
        if len(runs) - size < min_size:
            size = len(runs)
        blocks.append(sorted(runs[:size]))
        runs = runs[size:]
    return blocks


def hand_built_model(n, cols):
    """The contrast model ``[j : cols]`` of zero-sum integer columns."""
    rows = [tuple(col[i] for col in cols) for i in range(n)]
    return ContrastModel(IntMatrix.from_rows(rows, n_cols=len(cols)))


@st.composite
def blocked_models(draw):
    """A contrast model, a blocking and a valid-or-not partition.

    Models are catalog designs or hand-built from random zero-sum integer
    columns (with a dependent column now and then).  The blocking is a
    partition, a partial blocking or a catalog system with some blocks
    merged or dropped, its blocks shuffled; every block has two or more
    runs.
    """
    name = draw(st.sampled_from(["random", *CATALOG_MODELS]))
    if name == "random":
        n = draw(st.integers(2, 8))
        q = draw(st.integers(0, min(n - 1, 4)))
        raw = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(q)]
        cols = [tuple(n * x - sum(col) for x in col) for col in raw]
        if cols and draw(st.integers(0, 9)) == 0:
            k = draw(st.integers(-2, 2))
            cols.append(tuple(k * a + b for a, b in zip(cols[0], cols[-1])))
        model = hand_built_model(n, cols)
    else:
        model = CATALOG_MODELS[name]
        n = model.n_runs
    kind = draw(st.sampled_from(["partition", "partial", "system"]))
    if kind == "system" and name != "random":
        system = draw(st.sampled_from(catalog_systems(name)))
        merged = partition(draw, list(system.blocks), 1)
        blocks = [sorted(i for b in group for i in b) for group in merged]
        blocks = blocks[: draw(st.integers(0, len(blocks)))]
    elif kind == "partial":
        runs = draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
        blocks = partition(draw, runs, 2)
    else:
        blocks = partition(draw, list(range(n)), 2)
    blocks = draw(st.permutations(blocks))
    system = RandomisationSystem(n, partition(draw, list(range(n)), 2))
    return model, blocks, system


@settings(max_examples=300, deadline=None)
@given(blocked_models(), st.data())
def test_block_diagnostics_match_the_two_inverse_oracle(case, data):
    model, blocks, system = case
    z = indicator_matrix(model.n_runs, blocks)
    expected = oracles.covariance_ordering_by_inverses(model.contrast.rows, z.rows)
    if expected is None:
        with pytest.raises(RankDeficientError):
            covariance_comparison(model, blocks)
        return
    assert covariance_comparison(model, blocks).value == expected

    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    y = data.draw(st.lists(fractions, min_size=model.n_runs, max_size=model.n_runs))
    gamma = data.draw(st.lists(fractions, min_size=len(system.blocks), max_size=len(system.blocks)))
    shift = indicator_matrix(model.n_runs, system.blocks).mul_vector(gamma)
    shifted = [a + b for a, b in zip(y, shift)]
    assert block_shift_invariance(model, system, y, gamma) == (
        lse_contrast_estimates(model, y) == lse_contrast_estimates(model, shifted)
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CATALOG_MODELS)), st.data())
def test_partitions_are_equal_exactly_when_every_block_is_orthogonal(name, data):
    """Disjoint blocks: the first one not orthogonal to the contrasts is kept.

    The two-inverse oracle fits every block column, so its verdict, read
    here against the orthogonality check, is the closed form's claim.
    """
    model = CATALOG_MODELS[name]
    runs = data.draw(st.lists(st.integers(0, model.n_runs - 1), min_size=2, unique=True))
    blocks = partition(data.draw, runs, 2)
    z = indicator_matrix(model.n_runs, blocks)
    expected = oracles.covariance_ordering_by_inverses(model.contrast.rows, z.rows)
    assert (expected == "equal") == (_block_violation(model, blocks) is None)
    assert covariance_comparison(model, blocks).value == expected


def test_rank_deficiency_is_raised_before_the_orthogonal_exit():
    model = hand_built_model(4, [(1, -1, 0, 0), (2, -2, 0, 0)])
    for blocks in ([], [range(4)], [[2, 3]], [[2, 3], [0, 1]], [[0, 2]]):
        with pytest.raises(RankDeficientError):
            covariance_comparison(model, blocks)


def test_every_analysis_raises_one_error_for_dependent_contrasts():
    model = hand_built_model(4, [(1, -1, 0, 0), (2, -2, 0, 0)])
    blocks = [[0, 1], [2, 3]]
    y = [1, 2, 3, 4]
    for call in (
        lambda: covariance_comparison(model, blocks),
        lambda: lse_estimates(model, y),
        lambda: lse_contrast_estimates(model, y),
        lambda: naive_block_bias(model, blocks, [1, 2]),
    ):
        with pytest.raises(RankDeficientError, match="the contrast columns are linearly dependent"):
            call()
    empty = ContrastModel(IntMatrix.from_rows([], n_cols=0))
    for call in (
        lambda: lse_estimates(empty, []),
        lambda: covariance_comparison(empty, []),
    ):
        with pytest.raises(RankDeficientError, match="no intercept"):
            call()


def test_a_model_with_its_lse_map_built_equals_a_fresh_one():
    built, fresh = (to_contrast_form(choice_k_of_2k(3)) for _ in range(2))
    lse_estimates(built, range(built.n_runs))
    assert "_lse" in vars(built) and "_lse" not in vars(fresh)
    assert built == fresh
    assert hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


def test_a_model_solves_for_its_lse_map_once(monkeypatch):
    calls = []
    solve = contrast.rational_solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(contrast, "rational_solve", counted)
    model = to_contrast_form(choice_k_of_2k(3))
    y = range(model.n_runs)
    lse_estimates(model, y)
    assert len(calls) == 1
    lse_estimates(model, y)
    naive_block_bias(model, [[0, 1]], [1])
    covariance_comparison(model, [[0, 1]])
    assert len(calls) == 1


def normal_equation_solution(model, v):
    """Solve ``M'M beta = M'v`` for ``M = [j : C]`` by Fraction row reduction."""
    m = [[Fraction(x) for x in row] for row in oracles.model_matrix(model)]
    cols = list(zip(*m))
    augmented = [
        [sum(a * b for a, b in zip(ci, cj)) for cj in cols] + [sum(a * b for a, b in zip(ci, v))]
        for ci in cols
    ]
    reduced, pivots = oracles.rref(augmented)
    assert pivots == list(range(len(cols)))
    return tuple(row[-1] for row in reduced)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_estimates_and_bias_match_the_normal_equations(data):
    n = data.draw(st.integers(2, 9))
    q = data.draw(st.integers(1, min(n - 1, 4)))
    raw = [data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(q)]
    model = hand_built_model(n, [tuple(n * x - sum(col) for x in col) for col in raw])
    rows = [[Fraction(x) for x in row] for row in oracles.model_matrix(model)]
    assume(len(oracles.rref(rows)[1]) == q + 1)

    fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    y = data.draw(st.lists(fractions, min_size=n, max_size=n))
    runs = data.draw(st.lists(st.integers(0, n - 1), unique=True).filter(lambda r: len(r) != 1))
    blocks = partition(data.draw, runs, 2)
    gamma = data.draw(
        st.one_of(
            st.just([Fraction(0)] * len(blocks)),
            st.lists(fractions, min_size=len(blocks), max_size=len(blocks)),
        )
    )

    estimates = lse_estimates(model, y)
    assert estimates == normal_equation_solution(model, y)
    assert all(type(v) is Fraction for v in estimates)
    bias = naive_block_bias(model, blocks, gamma)
    shift = indicator_matrix(n, blocks).mul_vector(gamma)
    assert bias == normal_equation_solution(model, shift)[1:]
    assert all(type(v) is Fraction for v in bias)


def test_simulate_ab_zero_sd_is_exact():
    out = simulate_ab(n1=5, n2=5, theta=(2.5, 1.0), confounder_sd=0.0, replications=40, seed=123)
    assert out.mean == 1.5
    assert out.standard_error == 0.0


def test_simulate_ab_deterministic_per_seed():
    a = simulate_ab(n1=4, n2=6, theta=(0.0, 0.0), confounder_sd=1.0, replications=200, seed=9)
    b = simulate_ab(n1=4, n2=6, theta=(0.0, 0.0), confounder_sd=1.0, replications=200, seed=9)
    c = simulate_ab(n1=4, n2=6, theta=(0.0, 0.0), confounder_sd=1.0, replications=200, seed=10)
    assert (a.mean, a.standard_error) == (b.mean, b.standard_error)
    assert (a.mean, a.standard_error) != (c.mean, c.standard_error)


def test_simulate_ab_mean_near_effect():
    out = simulate_ab(n1=50, n2=50, theta=(1.0, 0.0), confounder_sd=1.0, replications=400, seed=4)
    assert abs(out.mean - 1.0) < 5 * out.standard_error + 1e-9


def test_simulate_ab_single_replication_has_no_se():
    out = simulate_ab(n1=3, n2=3, theta=(0.0, 0.0), confounder_sd=1.0, replications=1, seed=1)
    assert math.isnan(out.standard_error)


def test_simulate_ab_validation():
    with pytest.raises(ValueError):
        simulate_ab(n1=0, n2=3, theta=(0.0, 0.0), confounder_sd=1.0, replications=5, seed=1)
    with pytest.raises(ValueError):
        simulate_ab(n1=3, n2=3, theta=(0.0, 0.0), confounder_sd=-1.0, replications=5, seed=1)
    with pytest.raises(ValueError):
        simulate_ab(n1=3, n2=3, theta=(0.0, 0.0), confounder_sd=1.0, replications=0, seed=1)


def test_lse_estimates_refuses_a_response_of_the_wrong_length(model_2cubed):
    with pytest.raises(DimensionMismatchError, match="^response length does not match the model$"):
        lse_estimates(model_2cubed, [0] * 7)
