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
    bad = RandomisationSystem.from_blocks(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
    y = [Fraction(i) for i in range(8)]
    assert not block_shift_invariance(model_2cubed, bad, y, [1, 0])
    # A zero shift changes nothing even for a bad system.
    assert block_shift_invariance(model_2cubed, bad, y, [0, 0])


def test_block_shift_invariance_input_checks(model_2cubed):
    good = RandomisationSystem.from_blocks(8, [[0, 7], [1, 6], [2, 5], [3, 4]])
    with pytest.raises(ValueError):
        block_shift_invariance(model_2cubed, good, [0] * 8, [1])
    with pytest.raises(DimensionMismatchError):
        block_shift_invariance(
            model_2cubed, RandomisationSystem.from_blocks(4, [[0, 1], [2, 3]]), [0] * 8, [1, 1]
        )


def test_naive_block_bias_exact_half(model_2cubed):
    z = indicator_matrix(8, [[0, 1, 2, 3]])
    for g in (Fraction(1), Fraction(3, 7), Fraction(-2)):
        assert naive_block_bias(model_2cubed, z, [g]) == (g / 2, Fraction(0), Fraction(0))


def test_naive_block_bias_zero_for_orthogonal_blocks(model_2cubed, catalog_2cubed):
    for system in catalog_2cubed.systems:
        z = system.indicator_matrix()
        gamma = [Fraction(k + 1, 3) for k in range(z.n_cols)]
        assert naive_block_bias(model_2cubed, z, gamma) == (Fraction(0),) * 3


def test_naive_block_bias_input_checks(model_2cubed):
    z = indicator_matrix(8, [[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        naive_block_bias(model_2cubed, z, [1, 2])
    with pytest.raises(ValueError):
        naive_block_bias(model_2cubed, IntMatrix.from_rows([[2]] * 8, n_cols=1), [1])


def test_covariance_comparison_orderings(model_2cubed):
    non_orthogonal = indicator_matrix(8, [[0, 1, 2, 3]])
    assert covariance_comparison(model_2cubed, non_orthogonal) == CovarianceOrdering.PROPER_DOMINATES
    orthogonal = indicator_matrix(8, [[0, 7], [1, 6], [2, 5], [3, 4]])
    assert covariance_comparison(model_2cubed, orthogonal) == CovarianceOrdering.EQUAL
    empty = IntMatrix.from_rows([[] for _ in range(8)], n_cols=0)
    assert covariance_comparison(model_2cubed, empty) == CovarianceOrdering.EQUAL
    # the second block is (c_1 + j) / 2, dependent on the first (all runs) and
    # the contrasts, so it is not fitted although it is not orthogonal to c_1
    dependent = indicator_matrix(8, [range(8), [0, 1, 2, 3]])
    assert covariance_comparison(model_2cubed, dependent) == CovarianceOrdering.EQUAL


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
    """A contrast model, block columns ``Z`` and a valid-or-not partition.

    Models are catalog designs or hand-built from random zero-sum integer
    columns (with a dependent column now and then).  ``Z`` is a partition, a partial
    blocking, a catalog system with some blocks merged or dropped, or
    arbitrary 0/1 columns; then repeated, zero and all-ones columns may be
    added, and the columns are shuffled.
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
    kind = draw(st.sampled_from(["partition", "partial", "system", "overlapping"]))
    if kind == "partition":
        blocks = partition(draw, list(range(n)), 1)
    elif kind == "partial":
        runs = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        blocks = partition(draw, runs, 1)
    elif kind == "system" and name != "random":
        system = draw(st.sampled_from(catalog_systems(name)))
        merged = partition(draw, list(system.blocks), 1)
        blocks = [sorted(i for b in group for i in b) for group in merged]
        blocks = blocks[: draw(st.integers(0, len(blocks)))]
    else:
        blocks = [
            [i for i in range(n) if draw(st.booleans())]
            for _ in range(draw(st.integers(0, 5)))
        ]
    for extra in draw(st.lists(st.sampled_from(["repeat", "zero", "ones"]), max_size=2)):
        if extra == "repeat" and blocks:
            blocks.append(draw(st.sampled_from(blocks)))
        else:
            blocks.append([] if extra == "zero" else list(range(n)))
    blocks = draw(st.permutations(blocks))
    system = RandomisationSystem.from_blocks(n, partition(draw, list(range(n)), 2))
    return model, indicator_matrix(n, blocks), system


@settings(max_examples=300, deadline=None)
@given(blocked_models(), st.data())
def test_block_diagnostics_match_the_two_inverse_oracle(case, data):
    model, z, system = case
    expected = oracles.covariance_ordering_by_inverses(model.contrast.rows, z.rows)
    if expected is None:
        with pytest.raises(RankDeficientError):
            covariance_comparison(model, z)
        return
    assert covariance_comparison(model, z).value == expected

    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    y = data.draw(st.lists(fractions, min_size=model.n_runs, max_size=model.n_runs))
    gamma = data.draw(st.lists(fractions, min_size=len(system.blocks), max_size=len(system.blocks)))
    shift = system.indicator_matrix().mul_vector(gamma)
    shifted = [a + b for a, b in zip(y, shift)]
    assert block_shift_invariance(model, system, y, gamma) == (
        lse_contrast_estimates(model, y) == lse_contrast_estimates(model, shifted)
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CATALOG_MODELS)), st.data())
def test_partitions_are_equal_exactly_when_every_block_is_orthogonal(name, data):
    """Disjoint blocks: the first one not orthogonal to the contrasts is kept."""
    model = CATALOG_MODELS[name]
    runs = data.draw(st.lists(st.integers(0, model.n_runs - 1), min_size=1, unique=True))
    blocks = partition(data.draw, runs, 1)
    ordering = covariance_comparison(model, indicator_matrix(model.n_runs, blocks))
    assert (ordering == CovarianceOrdering.EQUAL) == (_block_violation(model, blocks) is None)


def test_rank_deficiency_is_raised_before_the_orthogonal_exit():
    model = hand_built_model(4, [(1, -1, 0, 0), (2, -2, 0, 0)])
    for blocks in ([], [range(4)], [[2, 3]], [[2, 3], [0, 1, 2, 3]]):
        with pytest.raises(RankDeficientError):
            covariance_comparison(model, indicator_matrix(4, blocks))


def test_every_analysis_raises_one_error_for_dependent_contrasts():
    model = hand_built_model(4, [(1, -1, 0, 0), (2, -2, 0, 0)])
    z = indicator_matrix(4, [[0, 1], [2, 3]])
    y = [1, 2, 3, 4]
    for call in (
        lambda: covariance_comparison(model, z),
        lambda: lse_estimates(model, y),
        lambda: lse_contrast_estimates(model, y),
        lambda: naive_block_bias(model, z, [1, 2]),
    ):
        with pytest.raises(RankDeficientError, match="the contrast columns are linearly dependent"):
            call()
    empty = ContrastModel(IntMatrix.from_rows([], n_cols=0))
    for call in (
        lambda: lse_estimates(empty, []),
        lambda: covariance_comparison(empty, IntMatrix.from_rows([], n_cols=0)),
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
    z = indicator_matrix(model.n_runs, [[0, 1]])
    lse_estimates(model, y)
    assert len(calls) == 1
    lse_estimates(model, y)
    naive_block_bias(model, z, [1])
    covariance_comparison(model, z)
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
    runs = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    blocks = partition(data.draw, runs, 1)
    gamma = data.draw(
        st.one_of(
            st.just([Fraction(0)] * len(blocks)),
            st.lists(fractions, min_size=len(blocks), max_size=len(blocks)),
        )
    )
    z = indicator_matrix(n, blocks)

    estimates = lse_estimates(model, y)
    assert estimates == normal_equation_solution(model, y)
    assert all(type(v) is Fraction for v in estimates)
    bias = naive_block_bias(model, z, gamma)
    assert bias == normal_equation_solution(model, z.mul_vector(gamma))[1:]
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
