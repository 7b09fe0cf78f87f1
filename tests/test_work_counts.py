"""Work-count guards: how many elimination steps a call makes, never how long.

Each test wraps an elimination step with a counter, under the name the
module under test calls it by.  The dense algebra in ``contrast`` and
``exact_linalg`` takes :func:`circuitrand.exact_linalg._reduce`, and the
block diagnostics in ``analysis_sim`` take none; the circuit searches take
:func:`circuitrand.circuits._step`, which the ``count_steps`` fixture
counts only when it clears a nonzero entry, since a step with ``q == 0``
only rescales its column.
"""

from pathlib import Path

import pytest

from circuitrand import cli, contrast, exact_linalg
from circuitrand.analysis_sim import CovarianceOrdering, covariance_comparison
from circuitrand.contrast import to_contrast_form
from circuitrand.design_catalog import factorial_two_level
from circuitrand.exact_linalg import IntMatrix
from circuitrand.randomisation import is_decomposable


@pytest.fixture
def count_reduce(monkeypatch):
    """Record the vector of each ``_reduce`` call made through one module."""

    def install(module):
        calls = []
        inner = module._reduce

        def counted(v, echelon):
            calls.append(tuple(v))
            return inner(v, echelon)

        monkeypatch.setattr(module, "_reduce", counted)
        return calls

    return install


def test_contrast_form_reduces_each_column_of_j_and_x_once(count_reduce):
    design = factorial_two_level(5)
    calls = count_reduce(contrast)
    to_contrast_form(design)
    assert len(calls) == design.matrix.n_cols + 1


def test_a_repeated_design_is_reduced_by_the_first_request_only(count_reduce, tmp_path, capsys):
    design, system, y, gamma = (str(tmp_path / f"{part}.txt") for part in ("design", "system", "y", "gamma"))
    assert cli.main(["catalog", "factorial", "--k", "5", "-o", design]) == 0
    # run i and its fold-over 33 - i (1-based) have opposite signs on every factor
    Path(system).write_text("".join(f"{i} {33 - i}\n" for i in range(1, 17)))
    Path(y).write_text("".join(f"{i}/7\n" for i in range(32)))
    Path(gamma).write_text("".join(f"{i}/2\n" for i in range(16)))
    calls = count_reduce(contrast)
    counts = []
    for _ in range(2):
        before = len(calls)
        assert cli.main(["randomise", design, "--check", system]) == 0
        assert cli.main(["analyse", design, "--system", system, "--y", y, "--gamma", gamma]) == 0
        counts.append(len(calls) - before)
    capsys.readouterr()
    assert counts == [factorial_two_level(5).matrix.n_cols + 1, 0]


def _model_and_counters(count_reduce):
    """A 2^4 contrast model with its LSE map built, and counters installed after it."""
    model = to_contrast_form(factorial_two_level(4))
    model._lse
    return model, [count_reduce(contrast), count_reduce(exact_linalg)]


def test_a_valid_blocking_reduces_no_column(count_reduce):
    model, calls = _model_and_counters(count_reduce)
    # run i and its fold-over 15 - i have opposite signs on every factor
    valid = [(i, 15 - i) for i in range(8)]
    assert covariance_comparison(model, valid) == CovarianceOrdering.EQUAL
    assert calls == [[], []]


def test_an_invalid_blocking_reduces_no_column(count_reduce):
    """Past the model's own LSE map, the verdict is the orthogonality check alone."""
    model, calls = _model_and_counters(count_reduce)
    # two fold-over pairs, then runs 2 and 3, which agree on three factors
    invalid = [(0, 15), (1, 14), (2, 3)]
    assert covariance_comparison(model, invalid) == CovarianceOrdering.PROPER_DOMINATES
    assert calls == [[], []]


def test_is_decomposable_searches_only_its_own_support(count_steps):
    """The search over all 32 runs of 2^5 takes 13,609 steps; the block's own 4 need few."""
    model = to_contrast_form(factorial_two_level(5))
    v = [int(i in (0, 31, 1, 30)) for i in range(32)]
    assert is_decomposable(model, v)
    assert len(count_steps) <= 50


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (1, 1), (3, 4), (4, 3)])
def test_columns_and_transpose_agree_with_column(shape):
    n_rows, n_cols = shape
    m = IntMatrix.from_rows(
        [[10 * i + j for j in range(n_cols)] for i in range(n_rows)], n_cols=n_cols
    )
    columns = [m.column(j) for j in range(n_cols)]
    assert m.columns() == columns
    t = m.transpose()
    assert (t.n_rows, t.n_cols) == (n_cols, n_rows)
    assert list(t.rows) == columns
