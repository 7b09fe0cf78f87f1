import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitrand.analysis_sim import (
    CovarianceOrdering,
    EstimateReport,
    ExperimentOutcome,
    analyse_experiment,
    block_shift_invariance,
    covariance_comparison,
    lse_contrast_estimates,
    lse_estimates,
    naive_block_bias,
    simulate_ab,
    _is_psd,
)
from circuitrand.exact_linalg import IntMatrix, RationalMatrix
from circuitrand.randomisation import DimensionMismatchError, RandomisationSystem

import oracles


def indicator_matrix(n, blocks):
    cols = [[1 if i in set(b) else 0 for i in range(n)] for b in blocks]
    return IntMatrix.from_rows([list(r) for r in zip(*cols)], n_cols=len(cols))


def test_lse_estimates_orthogonal_design(model_2cubed):
    y = [Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7, 8)]
    full = lse_estimates(model_2cubed, y)
    # Orthogonal +-1 columns: each estimate is a signed mean.
    assert full == (Fraction(9, 2), Fraction(-2), Fraction(-1), Fraction(-1, 2))
    assert lse_contrast_estimates(model_2cubed, y) == full[1:]


def test_lse_estimates_match_normal_equations(model_choice):
    rng = random.Random(1)
    m = model_choice.model_matrix().to_rational()
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


def gram(b_rows):
    return [[sum(x * y for x, y in zip(u, v)) for v in b_rows] for u in b_rows]


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices: Gram matrices B B^T (singular ones too),
    the same with a small amount taken off one diagonal entry, and plain
    random symmetric ones."""
    q = draw(st.integers(1, 5))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    kind = draw(st.sampled_from(["gram", "gram minus", "random"]))
    if kind == "random":
        m = [[None] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                m[i][j] = m[j][i] = draw(small)
        return m
    width = draw(st.integers(1, q + 1))
    m = gram([draw(st.lists(small, min_size=width, max_size=width)) for _ in range(q)])
    if kind == "gram minus":
        i = draw(st.integers(0, q - 1))
        m[i][i] -= Fraction(1, draw(st.integers(1, 50)))
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_is_psd_matches_the_principal_minor_oracle(m):
    assert _is_psd(RationalMatrix.from_rows(m)) == oracles.is_psd_by_minors(m)


def test_is_psd_accepts_a_large_gram_matrix_quickly():
    rng = random.Random(14)
    b_rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(14)] for _ in range(14)]
    start = time.perf_counter()
    assert _is_psd(RationalMatrix.from_rows(gram(b_rows)))
    # checking all 16,383 principal minors took about 16 s here; LDL^T takes milliseconds
    assert time.perf_counter() - start < 0.25


def test_analyse_experiment_report(model_2cubed):
    z = indicator_matrix(8, [[0, 1, 2, 3]])
    outcome = ExperimentOutcome(y=tuple(Fraction(i) for i in range(1, 9)), block_effects=(Fraction(1),))
    report = analyse_experiment(model_2cubed, z, outcome)
    assert isinstance(report, EstimateReport)
    assert report.phi_hat == lse_contrast_estimates(model_2cubed, [Fraction(i) for i in range(1, 9)])
    assert report.bias == (Fraction(1, 2), Fraction(0), Fraction(0))
    assert report.covariance_ordering == CovarianceOrdering.PROPER_DOMINATES


def test_simulate_ab_zero_sd_is_exact():
    out = simulate_ab(n1=5, n2=5, theta=(2.5, 1.0), confounder_sd=0.0, replications=40, seed=123)
    assert out.mean == 1.5
    assert out.standard_error == 0.0
    assert (out.n1, out.n2, out.replications, out.seed) == (5, 5, 40, 123)


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
