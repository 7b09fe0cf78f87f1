"""Exact least-squares analysis of blocked responses, plus a small Monte
Carlo demonstration of randomised assignment.

The estimation questions concern a contrast model ``[j : C]`` and a
blocking: disjoint collections of two or more 0-based runs, each adding
one effect to its runs.  Both block diagnostics have a closed form:

- the estimates are linear in the response, so a block shift moves them
  by exactly the naive block bias, the estimates of the shift alone;
- fitting the blocks leaves the naive contrast covariance ``(C'C)^-1``
  unchanged exactly when every block sums to zero on every contrast, and
  otherwise strictly dominates it.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Collection, Sequence

# RankDeficientError is raised by ContrastModel._lse and stays importable here
from .contrast import ContrastModel, RankDeficientError  # noqa: F401
from .randomisation import (
    DimensionMismatchError,
    RandomisationSystem,
    _block_violation,
    _check_blocks,
)


class CovarianceOrdering(Enum):
    """Loewner comparison of the blocked against the naive covariance."""

    EQUAL = "equal"
    PROPER_DOMINATES = "proper_dominates"


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """Integers ``v * scale`` for the least positive ``scale`` that clears ``values``."""
    fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs], scale


def _apply_lse(model: ContrastModel, v: Sequence[int], scale: int) -> tuple[Fraction, ...]:
    """The contrast estimates of the response ``v / scale``, ``v`` an integer vector."""
    n, d = model._lse
    return tuple(Fraction(x, d * scale) for x in n.mul_vector(v))


def lse_estimates(model: ContrastModel, y: Sequence) -> tuple[Fraction, ...]:
    """Exact least-squares estimates (intercept first, then contrasts).

    The response is scaled to integers by the lcm of its denominators, so
    each contrast estimate is one integer dot product with a row of the
    LSE map over the product of the two common denominators, and the
    intercept is the mean of the response.
    """
    if len(y) != model.n_runs:
        raise DimensionMismatchError("response length does not match the model")
    v, scale = _scaled(y)
    contrasts = _apply_lse(model, v, scale)
    return (Fraction(sum(v), model.n_runs * scale), *contrasts)


def lse_contrast_estimates(model: ContrastModel, y: Sequence) -> tuple[Fraction, ...]:
    """Exact least-squares estimates of the contrast parameters only.

    With orthogonal contrast columns each component equals
    ``(c_h . y) / (c_h . c_h)``; the implementation solves the normal
    equations exactly, which covers the non-orthogonal case too.
    """
    return lse_estimates(model, y)[1:]


def block_shift_invariance(
    model: ContrastModel, system: RandomisationSystem, y: Sequence, gamma: Sequence
) -> bool:
    """Whether adding per-block constants to ``y`` moves the contrast estimates.

    The estimates are linear in the response, so those of ``y`` shifted by
    ``gamma[k]`` on every run of block ``k`` differ from those of ``y`` by
    the estimates of the shift alone, which is the naive block bias: the
    answer is whether that bias is zero, for any ``y``.  For a valid
    randomisation system it is always True.
    """
    if len(y) != model.n_runs:
        raise DimensionMismatchError("response length does not match the model")
    if system.n_runs != model.n_runs:
        raise DimensionMismatchError("system run count does not match the model")
    return not any(naive_block_bias(model, system.blocks, gamma))


def naive_block_bias(
    model: ContrastModel, blocks: Sequence[Collection[int]], gamma: Sequence
) -> tuple[Fraction, ...]:
    """Exact bias of the contrast estimates when block effects are ignored.

    ``blocks`` are disjoint collections of two or more 0-based runs, and
    ``gamma[k]`` shifts every run of ``blocks[k]``.  With only ``[j : C]``
    fitted, the estimates pick up those of the shift, which orthogonal
    blocks make exactly zero.  With ``gamma`` scaled to integers the shift
    is an integer vector, and the bias takes the integer path of
    :func:`lse_estimates`.
    """
    _check_blocks(model.n_runs, blocks)
    if len(gamma) != len(blocks):
        raise ValueError("one effect per block is required")
    g, scale = _scaled(gamma)
    shift = [0] * model.n_runs
    for b, g_k in zip(blocks, g):
        for i in b:
            shift[i] = g_k
    return _apply_lse(model, shift, scale)


def covariance_comparison(
    model: ContrastModel, blocks: Sequence[Collection[int]]
) -> CovarianceOrdering:
    """Loewner-compare the contrast covariance with and without block terms.

    ``blocks`` are disjoint collections of two or more 0-based runs.  The
    naive model fits ``[j : C]``, so under unit error variance its
    covariance is ``(C'C)^-1`` (``C`` is orthogonal to ``j``).  The blocked
    model also fits each block indicator ``z_b`` that is independent of the
    columns before it; with ``W`` the span of ``j`` and those, its
    covariance ``(C'C - C'P_W C)^-1`` dominates, and equals the naive one
    exactly when every fitted ``z_b`` is orthogonal to ``C``.

    That is exactly when every block is orthogonal: the first block ``b``
    that is not is always fitted.  Were ``z_b = C a + sum_k c_k z_k`` over
    the fitted, orthogonal blocks ``k`` before it, the inner product with
    ``z_k`` would give ``c_k |k| = 0``, the blocks being disjoint, and then
    ``|b| = j'z_b = j'C a = 0``.

    Raises :class:`RankDeficientError`, as the model's LSE map does, when
    the contrast columns are linearly dependent or there are no runs.
    """
    _check_blocks(model.n_runs, blocks)
    model._lse  # the rank verdict: raises when the contrasts are dependent
    if _block_violation(model, blocks) is None:
        return CovarianceOrdering.EQUAL
    return CovarianceOrdering.PROPER_DOMINATES


@dataclass(frozen=True)
class AbSummary:
    """Monte Carlo summary of a randomised two-group comparison."""

    mean: float
    standard_error: float


_MASK64 = (1 << 64) - 1


def _substream(seed: int, index: int) -> int:
    # splitmix64 step: one independent 64-bit stream seed per replication
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _stdev(xs: Sequence[float]) -> float:
    """The sample standard deviation: the exact one, correctly rounded.

    ``statistics.stdev`` gives this from Python 3.11 on, but can differ in
    the last bit on 3.10, so it is computed here the same way on every
    version: the variance exactly, from the floats' integer ratios over one
    power-of-two denominator, then its square root rounded to odd with more
    than two bits to spare past a double's, then rounded once to a float.
    Raises ``OverflowError`` past the float range.
    """
    ratios = [x.as_integer_ratio() for x in xs]
    d = max(den for _, den in ratios)  # a power of two that every one divides
    ints = [num * (d // den) for num, den in ratios]
    k = len(ints)
    n = k * sum(x * x for x in ints) - sum(ints) ** 2
    m = k * (k - 1) * d * d
    q = (n.bit_length() - m.bit_length() - 2 * sys.float_info.mant_dig - 3) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n  # round to odd
    return float(root << q) if q >= 0 else root / (1 << -q)


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
    Raises ``ValueError`` when an input is not finite or an estimate, or
    their mean or spread, overflows the float range.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both groups need at least one subject")
    if replications < 1:
        raise ValueError("at least one replication is required")
    if confounder_sd < 0:
        raise ValueError("the confounder standard deviation cannot be negative")
    if not all(map(math.isfinite, (*theta, confounder_sd))):
        raise ValueError("the group means and the confounder sd must be finite")
    n = n1 + n2
    effect = float(theta[0]) - float(theta[1])
    estimates = []
    try:
        for rep in range(replications):
            rng = random.Random(_substream(seed, rep))
            confounders = [rng.gauss(0.0, confounder_sd) for _ in range(n)]
            group_a = set(rng.sample(range(n), n1))
            mean_a = math.fsum(confounders[i] for i in group_a) / n1
            mean_b = math.fsum(
                confounders[i] for i in range(n) if i not in group_a
            ) / n2
            estimates.append(effect + (mean_a - mean_b))
        if not all(map(math.isfinite, estimates)):
            raise OverflowError
        mean = statistics.fmean(estimates)
        if replications > 1:
            standard_error = _stdev(estimates) / math.sqrt(replications)
        else:
            standard_error = math.nan
    except OverflowError:
        raise ValueError("the simulated estimates overflow the float range") from None
    return AbSummary(mean=mean, standard_error=standard_error)
