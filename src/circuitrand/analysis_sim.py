"""Exact least-squares analysis of blocked responses, plus a small Monte
Carlo demonstration of randomised assignment.

The estimation questions all concern a contrast model ``[j : C]`` and block
effects entering the response through 0/1 indicator columns ``Z``: contrast
estimates are invariant to block shifts exactly when the blocks are
orthogonal to the contrasts, the bias of ignoring non-orthogonal blocks has
a closed form, and fitting the blocks can only widen (never narrow) the
exact covariance of the contrast estimates.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .contrast import ContrastModel
from .exact_linalg import (
    IntMatrix,
    RationalMatrix,
    SingularError,
    pivot_columns,
    rational_solve,
)
from .randomisation import DimensionMismatchError, RandomisationSystem


class RankDeficientError(ValueError):
    """An information matrix needed for a covariance comparison is singular."""


class CovarianceOrdering(Enum):
    """Loewner comparison of the blocked against the naive covariance."""

    EQUAL = "equal"
    PROPER_DOMINATES = "proper_dominates"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ExperimentOutcome:
    """An observed (or synthesised) response, optionally with its ground truth."""

    y: tuple[Fraction, ...]
    true_theta: tuple[Fraction, ...] | None = None
    block_effects: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", tuple(Fraction(v) for v in self.y))
        if self.true_theta is not None:
            object.__setattr__(
                self, "true_theta", tuple(Fraction(v) for v in self.true_theta)
            )
        object.__setattr__(
            self, "block_effects", tuple(Fraction(v) for v in self.block_effects)
        )


@dataclass(frozen=True)
class EstimateReport:
    """Exact contrast estimates with the block-effect diagnostics."""

    phi_hat: tuple[Fraction, ...]
    bias: tuple[Fraction, ...]
    covariance_ordering: CovarianceOrdering


@lru_cache(maxsize=None)
def _lse_operator(model: ContrastModel) -> RationalMatrix:
    """The exact LSE map ``(M'M)^-1 M'`` of the model matrix ``M = [j : C]``."""
    m = model.model_matrix()
    mt = m.transpose()
    return rational_solve(mt.mul(m).to_rational(), mt.to_rational())


def lse_estimates(model: ContrastModel, y: Sequence) -> tuple[Fraction, ...]:
    """Exact least-squares estimates (intercept first, then contrasts)."""
    if len(y) != model.n_runs:
        raise DimensionMismatchError("response length does not match the model")
    return _lse_operator(model).mul_vector([Fraction(v) for v in y])


def lse_contrast_estimates(model: ContrastModel, y: Sequence) -> tuple[Fraction, ...]:
    """Exact least-squares estimates of the contrast parameters only.

    With orthogonal contrast columns each component equals
    ``(c_h . y) / (c_h . c_h)``; the implementation solves the normal
    equations exactly, which covers the non-orthogonal case too.
    """
    return lse_estimates(model, y)[1:]


def block_shift_invariance(
    model: ContrastModel,
    system: RandomisationSystem,
    y: Sequence,
    gamma: Sequence,
) -> bool:
    """Whether adding per-block constants to ``y`` moves the contrast estimates.

    Compares the exact estimates of ``y`` and ``y + Z gamma``.  For a valid
    randomisation system the comparison always comes out True; for an
    invalid one the result is whatever the arithmetic says (usually False),
    reported as computed.
    """
    if system.n_runs != model.n_runs:
        raise DimensionMismatchError("system run count does not match the model")
    if len(gamma) != len(system.blocks):
        raise ValueError("one shift per block is required")
    base = [Fraction(v) for v in y]
    shift = system.indicator_matrix().to_rational().mul_vector(
        [Fraction(g) for g in gamma]
    )
    shifted = [a + b for a, b in zip(base, shift)]
    return lse_contrast_estimates(model, base) == lse_contrast_estimates(model, shifted)


def _validate_indicators(model: ContrastModel, z: IntMatrix) -> None:
    if z.n_rows != model.n_runs:
        raise DimensionMismatchError("indicator row count does not match the model")
    if any(x not in (0, 1) for row in z.rows for x in row):
        raise ValueError("block indicators must be 0/1")


def naive_block_bias(
    model: ContrastModel, z: IntMatrix, gamma: Sequence
) -> tuple[Fraction, ...]:
    """Exact bias of the contrast estimates when block effects are ignored.

    With true response ``E[y] = [j : C] phi + Z gamma`` but only ``[j : C]``
    fitted, the estimate picks up the contrast rows of
    ``(M'M)^-1 M' Z gamma``; orthogonal blocks give exactly zero.
    """
    _validate_indicators(model, z)
    if len(gamma) != z.n_cols:
        raise ValueError("one effect per block column is required")
    shift = z.to_rational().mul_vector([Fraction(g) for g in gamma])
    return lse_contrast_estimates(model, shift)


def _is_psd(m: RationalMatrix) -> bool:
    """Whether a symmetric rational matrix is positive semidefinite.

    Exact LDL^T with diagonal pivoting: eliminating on a positive diagonal
    entry leaves a Schur complement that is PSD exactly when ``m`` is.  Once
    no diagonal entry is positive, a PSD remainder must be zero.
    """
    a = [list(row) for row in m.rows]
    while a:
        k = next((i for i, row in enumerate(a) if row[i] > 0), None)
        if k is None:
            return not any(x for row in a for x in row)
        pivot_row = a.pop(k)
        p = pivot_row.pop(k)
        for row in a:
            f = row.pop(k) / p
            for j, x in enumerate(pivot_row):
                row[j] -= f * x
    return True


def _inverse(m: RationalMatrix) -> RationalMatrix:
    try:
        return rational_solve(m, RationalMatrix.identity(m.n_rows))
    except SingularError as exc:
        raise RankDeficientError(str(exc)) from exc


def covariance_comparison(model: ContrastModel, z: IntMatrix) -> CovarianceOrdering:
    """Loewner-compare the contrast covariance with and without block terms.

    The naive model fits ``[j : C]``; the blocked model fits the contrast
    columns plus the block indicator columns, with the all-ones column and
    any indicator column dropped when linearly dependent on columns already
    present (block indicators often sum to the intercept).  Under unit error
    variance the exact contrast covariance is the leading block of the
    inverse information matrix of each fit.  The difference
    ``blocked - naive`` is positive semidefinite whenever the blocked model
    nests the naive one, so the outcome is EQUAL or PROPER_DOMINATES on
    those inputs; INCOMPARABLE is reported if an indefinite difference ever
    arises.
    """
    _validate_indicators(model, z)
    q = model.n_contrasts
    m = model.model_matrix()
    naive = _inverse(m.transpose().mul(m).to_rational())
    naive_block = naive.submatrix(range(1, q + 1), range(1, q + 1))

    ones = IntMatrix.from_rows(((1,) for _ in range(model.n_runs)), n_cols=1)
    full = model.contrast.hstack(z).hstack(ones)
    # every contrast column stays; indicator and ones columns only if independent
    kept = [*range(q), *(c for c in pivot_columns(full) if c >= q)]
    blocked_design = full.restrict_columns(kept)
    blocked = _inverse(blocked_design.transpose().mul(blocked_design).to_rational())
    blocked_block = blocked.submatrix(range(q), range(q))

    diff = RationalMatrix.from_rows(
        (
            tuple(blocked_block.rows[i][j] - naive_block.rows[i][j] for j in range(q))
            for i in range(q)
        ),
        n_cols=q,
    )
    if all(x == 0 for row in diff.rows for x in row):
        return CovarianceOrdering.EQUAL
    if _is_psd(diff):
        return CovarianceOrdering.PROPER_DOMINATES
    return CovarianceOrdering.INCOMPARABLE


def analyse_experiment(
    model: ContrastModel, z: IntMatrix, outcome: ExperimentOutcome
) -> EstimateReport:
    """Estimate the contrasts of an outcome and diagnose its blocking."""
    if len(outcome.y) != model.n_runs:
        raise DimensionMismatchError("response length does not match the model")
    if len(outcome.block_effects) != z.n_cols:
        raise ValueError("one block effect per indicator column is required")
    return EstimateReport(
        phi_hat=lse_contrast_estimates(model, outcome.y),
        bias=naive_block_bias(model, z, outcome.block_effects),
        covariance_ordering=covariance_comparison(model, z),
    )


@dataclass(frozen=True)
class AbSummary:
    """Monte Carlo summary of a randomised two-group comparison."""

    mean: float
    standard_error: float
    n1: int
    n2: int
    theta: tuple[float, float]
    confounder_sd: float
    replications: int
    seed: int


_MASK64 = (1 << 64) - 1


def _substream(seed: int, index: int) -> int:
    # splitmix64 step: one independent 64-bit stream seed per replication
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def simulate_ab(
    n1: int,
    n2: int,
    theta: tuple[float, float],
    confounder_sd: float,
    replications: int,
    seed: int,
) -> AbSummary:
    """Simulate completely randomised A/B assignment with a lurking confounder.

    Each replication draws one Gaussian confounder per subject, assigns
    ``n1`` of the ``n1+n2`` subjects to group A uniformly at random and
    estimates the effect by the difference of group means.  The treatment
    difference separates from the confounder averages algebraically, so it
    is added exactly; with ``confounder_sd`` zero every replication returns
    ``theta[0] - theta[1]`` exactly.  Results are deterministic in ``seed``
    and independent of evaluation order (one derived RNG per replication).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both groups need at least one subject")
    if replications < 1:
        raise ValueError("at least one replication is required")
    if confounder_sd < 0:
        raise ValueError("the confounder standard deviation cannot be negative")
    n = n1 + n2
    effect = float(theta[0]) - float(theta[1])
    estimates = []
    for rep in range(replications):
        rng = random.Random(_substream(seed, rep))
        confounders = [rng.gauss(0.0, confounder_sd) for _ in range(n)]
        group_a = set(rng.sample(range(n), n1))
        mean_a = math.fsum(confounders[i] for i in group_a) / n1
        mean_b = math.fsum(
            confounders[i] for i in range(n) if i not in group_a
        ) / n2
        estimates.append(effect + (mean_a - mean_b))
    mean = statistics.fmean(estimates)
    if replications > 1:
        standard_error = statistics.stdev(estimates) / math.sqrt(replications)
    else:
        standard_error = math.nan
    return AbSummary(
        mean=mean,
        standard_error=standard_error,
        n1=n1,
        n2=n2,
        theta=(float(theta[0]), float(theta[1])),
        confounder_sd=float(confounder_sd),
        replications=replications,
        seed=seed,
    )
