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
from fractions import Fraction
from math import gcd
from typing import Sequence

from .exact_linalg import IntMatrix, pivot_columns


class JNotInColumnSpaceError(ValueError):
    """The all-ones vector is not in the design's column space.

    Without an intercept-equivalent direction the contrast form does not
    exist and block-orthogonality analysis does not apply.
    """


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
        for j in range(self.contrast.n_cols):
            if sum(self.contrast.column(j)) != 0:
                raise ValueError(f"contrast column {j} does not sum to zero")

    @property
    def n_runs(self) -> int:
        return self.contrast.n_rows

    @property
    def n_contrasts(self) -> int:
        return self.contrast.n_cols

    def model_matrix(self) -> IntMatrix:
        """The full model matrix ``[j : contrast]`` with the ones column first."""
        ones = IntMatrix.from_rows(((1,) for _ in range(self.n_runs)), n_cols=1)
        return ones.hstack(self.contrast)


def to_contrast_form(design: DesignModel) -> ContrastModel:
    """Rewrite a design model in contrast form.

    Each column ``c`` of the design is centred to ``n*c - (j.c)*j`` and
    divided by the gcd of its entries, which makes it primitive; the pivot
    columns of the nonzero centred columns, a maximal independent set kept
    left to right, are the contrasts.  Raises :class:`JNotInColumnSpaceError` when the all-ones
    vector is outside the design's column space.
    """
    x = design.matrix
    n = x.n_rows
    ones = IntMatrix.from_rows(((1,) for _ in range(n)), n_cols=1)
    if x.n_cols in pivot_columns(x.hstack(ones)):
        raise JNotInColumnSpaceError("the all-ones vector is not in the column space")

    centred: list[tuple[int, ...]] = []
    for col in x.columns():
        total = sum(col)
        w = tuple(n * v - total for v in col)
        if any(w):
            g = gcd(*w)
            centred.append(tuple(v // g for v in w))
    centred_matrix = IntMatrix.from_rows(centred, n_cols=n).transpose()
    return ContrastModel(centred_matrix.restrict_columns(pivot_columns(centred_matrix)))


def empirical_contrast_check(coefficients: Sequence) -> bool:
    """True when the coefficient vector sums to zero, i.e. defines a contrast."""
    return sum(Fraction(c) for c in coefficients) == 0
