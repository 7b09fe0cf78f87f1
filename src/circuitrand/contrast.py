"""Contrast form of design matrices.

A linear model ``E[y] = X theta`` whose column space contains the all-ones
vector ``j`` can be rewritten as ``E[y] = [j : C] phi`` where every column of
``C`` sums to zero.  The columns of ``C`` are contrasts: block totals taken
against them are insensitive to a constant shift, which is what makes block
randomisation analysable.  This module builds that form; ``[j : C]`` spans
the column space of ``X``, and everything downstream reads only ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .exact_linalg import IntMatrix, SingularError, _from_columns, _reduce, rational_solve


class JNotInColumnSpaceError(ValueError):
    """The all-ones vector is not in the design's column space.

    Without an intercept-equivalent direction the contrast form does not
    exist and block-orthogonality analysis does not apply.
    """


class RankDeficientError(ValueError):
    """The contrast columns of a model are linearly dependent."""


@dataclass(frozen=True)
class DesignModel:
    """A design matrix together with run and parameter labels."""

    matrix: IntMatrix
    run_labels: tuple[str, ...]
    param_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_labels", tuple(str(s) for s in self.run_labels))
        object.__setattr__(self, "param_labels", tuple(str(s) for s in self.param_labels))
        if len(self.run_labels) != self.matrix.n_rows:
            raise ValueError("one run label per matrix row is required")
        if len(self.param_labels) != self.matrix.n_cols:
            raise ValueError("one parameter label per matrix column is required")
        if self.matrix.n_rows < 1:
            raise ValueError("a design needs at least one run")

    @property
    def n_runs(self) -> int:
        return self.matrix.n_rows


@dataclass(frozen=True)
class ContrastModel:
    """Contrast form ``[j : contrast]`` of a design.

    ``contrast`` is an ``n x q`` integer matrix whose columns each sum to
    zero; :func:`to_contrast_form` makes them linearly independent, with
    ``q = rank(X) - 1`` for the design matrix ``X``.
    """

    contrast: IntMatrix

    def __post_init__(self) -> None:
        for j, col in enumerate(self.contrast.columns()):
            if sum(col) != 0:
                raise ValueError(f"contrast column {j} does not sum to zero")

    @property
    def n_runs(self) -> int:
        return self.contrast.n_rows

    @property
    def n_contrasts(self) -> int:
        return self.contrast.n_cols

    @cached_property
    def _lse(self) -> tuple[IntMatrix, int]:
        """The contrast rows of the exact LSE map of ``M = [j : C]``.

        The contrasts sum to zero, so ``M'M = diag(n, C'C)``: the intercept
        row of ``(M'M)^-1 M'`` is ``j' / n`` and the contrast rows are
        ``(C'C)^-1 C'``.  Returns ``(N, d)``: an integer matrix ``N`` and the
        least positive ``d`` with ``(C'C)^-1 C' = N / d``, so that applying
        the map costs integer dot products and one division per estimate.
        Built on first read and kept on the model, which is frozen; being no
        field, it takes no part in equality, hashing or the repr.  Raises
        :class:`RankDeficientError` when the contrast columns are dependent,
        or when there are no runs and ``j`` itself is zero.
        """
        if not self.n_runs:
            raise RankDeficientError("a model with no runs has no intercept")
        ct = self.contrast.transpose()
        try:
            return rational_solve(ct.mul(self.contrast), ct)
        except SingularError:
            raise RankDeficientError("the contrast columns are linearly dependent") from None


def to_contrast_form(design: DesignModel) -> ContrastModel:
    """Rewrite a design model in contrast form.

    Each column ``c`` of the design is centred to ``n*c - (j.c)*j`` and
    divided by the gcd of its entries, which makes it primitive; the pivot
    columns of the nonzero centred columns, a maximal independent set kept
    left to right, are the contrasts.  Centring is ``n`` times the
    projection with kernel ``span(j)``, so they are the pivots after ``j``
    of ``[j | X]``, found in one pass that centres only them.  ``j`` alone
    carries an appended 1 that tracks its coefficient: a remainder that is
    zero but for that entry, which then pivots, marks a dependency of
    ``[j | X]`` that uses ``j``.  Without one, ``j`` is outside the column
    space and :class:`JNotInColumnSpaceError` is raised.
    """
    x = design.matrix
    n = x.n_rows
    echelon = [_reduce((1,) * (n + 1), [])]
    contrasts = []
    for col in x.columns():
        reduced = _reduce(col + (0,), echelon)
        if reduced:
            echelon.append(reduced)
        if reduced and reduced[0] < n:
            total = sum(col)
            w = [n * v - total for v in col]
            g = gcd(*w)
            contrasts.append(tuple(v // g for v in w))
    if all(p < n for p, _ in echelon):
        raise JNotInColumnSpaceError("the all-ones vector is not in the column space")
    return ContrastModel(_from_columns(contrasts, n))
