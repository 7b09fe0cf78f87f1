"""Exact dense linear algebra over the integers.

Everything in this module computes with Python's unbounded integers alone,
and a solve returns an integer matrix over one common denominator, so ranks
and solves are exact at any magnitude.  Matrices are small dense tuples of
tuples; the library targets design matrices with at most a few thousand
entries, not bulk numerics.  Entries are checked once, where they enter:
the public :class:`IntMatrix` constructor and ``from_rows`` check every
entry, and the matrices the package computes from ints it already holds
skip that pass through the module-private :func:`_trusted_matrix`.

The dense algebra has one elimination step, :func:`_reduce`: reduce a
column against the independent columns kept before it, to a primitive
remainder that can be read entry by entry.  Rank and pivot columns count
the columns it keeps.  With a unit vector appended to each column, it also
records the combination of columns that it took, which gives solves.  The
circuit searches in :mod:`circuitrand.circuits` read a remainder only when
it closes a circuit, so they take a fraction-free step on packed columns
instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence


class NonSquareError(ValueError):
    """Raised when an operation requires a square matrix."""


class SingularError(ValueError):
    """Raised when a linear solve meets a singular coefficient matrix."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix.

    ``rows`` is a tuple of row tuples in row-major order.  ``n_rows`` and
    ``n_cols`` are stored explicitly so that matrices with zero rows or zero
    columns keep a well-defined shape.  Instances are hashable and compare
    by value.

    Entries are checked at the input boundary: this constructor and
    :meth:`from_rows` take every entry through ``operator.index`` and check
    the shape, so a float, a ``Fraction`` or a string raises ``TypeError``
    and a ragged or miscounted row raises ``ValueError``.  Matrices that the
    package computes from its own ints (products, transposes, solves,
    parsed files, catalog designs) are trusted and built without that pass.
    """

    n_rows: int
    n_cols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(operator.index(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(rows) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} rows, got {len(rows)}")
        for row in rows:
            if len(row) != self.n_cols:
                raise ValueError(f"expected {self.n_cols} entries per row, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], n_cols: int | None = None) -> "IntMatrix":
        """Build a matrix from an iterable of rows, inferring the shape.

        ``n_cols`` is only required when ``rows`` is empty.
        """
        materialised = tuple(tuple(r) for r in rows)
        if materialised:
            width = len(materialised[0])
        elif n_cols is None:
            raise ValueError("n_cols is required for a matrix with no rows")
        else:
            width = n_cols
        return cls(len(materialised), width, materialised)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        # zip of no rows yields nothing, so a 0-row matrix keeps its empty columns
        return list(zip(*self.rows)) if self.rows else [()] * self.n_cols

    def transpose(self) -> "IntMatrix":
        return _trusted_matrix(self.n_cols, self.n_rows, tuple(self.columns()))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_rows != other.n_rows:
            raise ValueError("hstack needs matching row counts")
        return _trusted_matrix(
            self.n_rows,
            self.n_cols + other.n_cols,
            tuple(a + b for a, b in zip(self.rows, other.rows)),
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimensions do not match")
        cols = other.columns()
        return _trusted_matrix(
            self.n_rows,
            other.n_cols,
            tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in self.rows),
        )

    def mul_vector(self, v: Sequence) -> tuple:
        if len(v) != self.n_cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(operator.mul, row, v)) for row in self.rows)


def _trusted_matrix(n_rows: int, n_cols: int, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """An :class:`IntMatrix` built without checking its entries or shape.

    For matrices the package computes from ints it already holds: ``rows``
    must be a tuple of ``n_rows`` tuples of ``n_cols`` ints.  The result is
    equal, with an equal hash, to the checked ``IntMatrix(n_rows, n_cols,
    rows)``.
    """
    m = object.__new__(IntMatrix)
    m.__dict__.update(n_rows=n_rows, n_cols=n_cols, rows=rows)
    return m


def _from_columns(columns: Sequence[Sequence[int]], n_rows: int) -> IntMatrix:
    """The trusted matrix whose columns are ``columns``, each ``n_rows`` ints long."""
    # zip of no columns yields nothing, so a 0-column matrix keeps its empty rows
    rows = tuple(zip(*columns)) if columns else ((),) * n_rows
    return _trusted_matrix(n_rows, len(columns), rows)


def _reduce(
    v: Sequence[int], echelon: Sequence[tuple[int, tuple[int, ...]]]
) -> tuple[int, tuple[int, ...]] | None:
    """Reduce ``v`` against an integer echelon form; ``None`` when dependent.

    ``echelon`` holds ``(pivot, row)`` pairs, each row zero at the pivots of
    the rows before it.  Clearing ``v`` at every pivot by a fraction-free
    row operation leaves zero exactly when ``v`` lies in their span;
    otherwise the primitive remainder, with its first nonzero coordinate as
    pivot, extends the form by one row.  A remainder that is already
    primitive comes back undivided.
    """
    for p, row in echelon:
        f = v[p]
        if f:
            g = row[p]
            v = [g * x - f * y for x, y in zip(v, row)]
    lead = next(filter(None, v), 0)
    if not lead:
        return None
    g = gcd(*v)
    # every entry before the first occurrence of lead is zero
    return v.index(lead), tuple(v) if g == 1 else tuple([x // g for x in v])


def _unit(k: int, width: int) -> tuple[int, ...]:
    return tuple(int(i == k) for i in range(width))


def pivot_columns(m: IntMatrix) -> list[int]:
    """Greedy left-to-right maximal linearly independent set of columns.

    Column ``c`` is kept exactly when :func:`_reduce` leaves a nonzero
    remainder against the columns kept before it; these are the pivot
    columns of the row echelon form.
    """
    echelon = []
    pivots = []
    for c, col in enumerate(m.columns()):
        reduced = _reduce(col, echelon)
        if reduced is not None:
            echelon.append(reduced)
            pivots.append(c)
    return pivots


def rank(m: IntMatrix) -> int:
    """Rank of an integer matrix: the number of pivot columns."""
    return len(pivot_columns(m))


def rational_solve(gram: IntMatrix, rhs: IntMatrix) -> tuple[IntMatrix, int]:
    """Solve ``gram @ X = rhs`` exactly, over one common denominator.

    ``gram`` is nonsingular exactly when each of its columns is independent
    of the ones before it: reduced with a unit appended, it keeps a nonzero
    entry among its first ``n``, else the solve stops there.  Then each
    column ``b`` of ``rhs``, reduced with a unit appended, leaves a
    primitive ``(beta, alpha)`` with ``alpha b + gram beta = 0``, so its
    solution is ``-beta / alpha`` and ``|alpha|`` is its least denominator.  Returns ``(N, d)`` with ``d``
    the lcm of those denominators, the least positive ``d`` that makes
    ``N = d X`` integer, so ``gram.mul(N) == d * rhs`` exactly.  ``gram``
    must be square (else :class:`NonSquareError`) and nonsingular (else
    :class:`SingularError`); ``rhs`` may have any number of columns.
    """
    if gram.n_rows != gram.n_cols:
        raise NonSquareError(f"solve needs a square matrix, got {gram.n_rows}x{gram.n_cols}")
    if rhs.n_rows != gram.n_rows:
        raise ValueError("right-hand side row count does not match")
    n = gram.n_rows
    echelon = []
    for c, col in enumerate(gram.columns()):
        # the unit entry survives reduction, so the result is never None
        pivot, v = _reduce(col + _unit(c, n + 1), echelon)
        if pivot >= n:
            raise SingularError("coefficient matrix is singular")
        echelon.append((pivot, v))
    # every reduced column is zero in its first n entries
    reduced = [_reduce(b + _unit(n, n + 1), echelon)[1][n:] for b in rhs.columns()]
    d = lcm(*(v[-1] for v in reduced))
    solution = [[-x * (d // v[-1]) for x in v[:-1]] for v in reduced]
    return _from_columns(solution, n), d
