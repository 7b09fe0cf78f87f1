"""Exact dense linear algebra over the integers and rationals.

Everything in this module computes with Python's unbounded integers and
:class:`fractions.Fraction`.  No floating point is used anywhere, so ranks,
determinants, kernels and solves are exact at any magnitude.  Matrices are
small dense tuples of tuples; the library targets design matrices with at
most a few thousand entries, not bulk numerics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows(
            (tuple(int(i == j) for j in range(n)) for i in range(n)), n_cols=n
        )

    @classmethod
    def column_vector(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls.from_rows(((x,) for x in entries), n_cols=1)

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.n_cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(
            (self.column(j) for j in range(self.n_cols)), n_cols=self.n_rows
        )

    def restrict_columns(self, cols: Sequence[int]) -> "IntMatrix":
        return IntMatrix.from_rows(
            (tuple(row[c] for c in cols) for row in self.rows), n_cols=len(cols)
        )

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_rows != other.n_rows:
            raise ValueError("hstack needs matching row counts")
        return IntMatrix.from_rows(
            (a + b for a, b in zip(self.rows, other.rows)),
            n_cols=self.n_cols + other.n_cols,
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimensions do not match")
        cols = other.columns()
        return IntMatrix.from_rows(
            (
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            ),
            n_cols=other.n_cols,
        )

    def mul_vector(self, v: Sequence) -> tuple:
        if len(v) != self.n_cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def to_rational(self) -> "RationalMatrix":
        return RationalMatrix.from_rows(self.rows, n_cols=self.n_cols)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of :class:`fractions.Fraction` entries."""

    n_rows: int
    n_cols: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(rows) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} rows, got {len(rows)}")
        for row in rows:
            if len(row) != self.n_cols:
                raise ValueError(f"expected {self.n_cols} entries per row, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], n_cols: int | None = None) -> "RationalMatrix":
        materialised = tuple(tuple(r) for r in rows)
        if materialised:
            width = len(materialised[0])
        elif n_cols is None:
            raise ValueError("n_cols is required for a matrix with no rows")
        else:
            width = n_cols
        return cls(len(materialised), width, materialised)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_rows(
            (self.column(j) for j in range(self.n_cols)), n_cols=self.n_rows
        )

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimensions do not match")
        cols = [other.column(j) for j in range(other.n_cols)]
        return RationalMatrix.from_rows(
            (
                tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
                for row in self.rows
            ),
            n_cols=other.n_cols,
        )

    def mul_vector(self, v: Sequence) -> tuple[Fraction, ...]:
        if len(v) != self.n_cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((a * Fraction(b) for a, b in zip(row, v)), Fraction(0))
            for row in self.rows
        )


def clear_denominators(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, keeping its sign.

    Primitive means the gcd of the entries is 1.  The zero vector is returned
    unchanged.
    """
    fracs = [Fraction(x) for x in v]
    scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * scale) for f in fracs]
    g = gcd(*ints) if ints else 0
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def canonical_sign(v: Sequence[int]) -> tuple[int, ...]:
    """Flip the sign of ``v`` if needed so its first nonzero entry is positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def _echelon(
    rows: Sequence[Sequence[int]], n_cols: int
) -> tuple[list[int], list[list[int]], int]:
    """Row echelon form of an integer matrix by fraction-free (Bareiss) elimination.

    Returns ``(pivots, rows, sign)``: the pivot column of each of the first
    ``len(pivots)`` rows (the remaining rows are zero), the echelon rows,
    and the sign of the row swaps.  Intermediate entries are minors of the
    input, so every division below is exact and the arithmetic stays in the
    integers.  The last pivot is, up to sign, the minor of the input on its
    pivot rows and columns; for a square nonsingular input it is ``sign``
    times the determinant.
    """
    a = [list(row) for row in rows]
    n_rows = len(a)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        row_r = a[r]
        p = row_r[c]
        for i in range(r + 1, n_rows):
            row_i = a[i]
            f = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        pivots.append(c)
    return pivots, a, sign


def _back_substitute(
    echelon: Sequence[Sequence[int]], pivots: Sequence[int], rhs: Sequence[int]
) -> tuple[int, list[int]]:
    """Solve the echelon system on its pivot columns as ``y / d``.

    ``rhs`` is (up to sign) a column of ``echelon``, one entry per pivot
    row.  Returns ``(d, y)`` with ``sum_k echelon[i][pivots[k]] * y[k] ==
    d * rhs[i]`` for every pivot row ``i``, where ``d`` is the last pivot
    (1 when there is none).  By Cramer's rule ``y`` is integral, so every
    division below is exact.
    """
    r = len(pivots)
    d = echelon[r - 1][pivots[-1]] if r else 1
    y = [0] * r
    for i in range(r - 1, -1, -1):
        row = echelon[i]
        total = d * rhs[i] - sum(row[pivots[k]] * y[k] for k in range(i + 1, r))
        y[i] = total // row[pivots[i]]
    return d, y


def rank(m: IntMatrix) -> int:
    """Rank of an integer matrix: the number of echelon pivots."""
    return len(_echelon(m.rows, m.n_cols)[0])


def pivot_columns(m: IntMatrix) -> list[int]:
    """Greedy left-to-right maximal linearly independent set of columns.

    Column ``c`` is kept exactly when it is independent of the columns
    before it; these are the pivot columns of the row echelon form.
    """
    return _echelon(m.rows, m.n_cols)[0]


def determinant(m: IntMatrix) -> int:
    """Exact determinant of a square integer matrix.

    Raises :class:`NonSquareError` for rectangular input.  The empty 0x0
    matrix has determinant 1.
    """
    if m.n_rows != m.n_cols:
        raise NonSquareError(f"determinant needs a square matrix, got {m.n_rows}x{m.n_cols}")
    n = m.n_rows
    pivots, a, sign = _echelon(m.rows, n)
    if len(pivots) < n:
        return 0
    return sign * a[n - 1][n - 1] if n else 1


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel ``{v : m v = 0}``.

    One basis vector per free (non-pivot) column, in order of free column
    index: the kernel vector that is nonzero on that free column and zero
    on the others, scaled to a primitive integer vector whose first nonzero
    entry is positive.  The list has exactly ``m.n_cols - rank(m)``
    elements.
    """
    pivots, a, _ = _echelon(m.rows, m.n_cols)
    pivot_set = set(pivots)
    basis: list[tuple[int, ...]] = []
    for free in range(m.n_cols):
        if free in pivot_set:
            continue
        d, y = _back_substitute(a, pivots, [-a[i][free] for i in range(len(pivots))])
        v = [0] * m.n_cols
        v[free] = d
        for c, x in zip(pivots, y):
            v[c] = x
        basis.append(canonical_sign(clear_denominators(v)))
    return basis


def rational_solve(gram: RationalMatrix, rhs: RationalMatrix) -> RationalMatrix:
    """Solve ``gram @ X = rhs`` exactly.

    Each row of ``[gram | rhs]`` is scaled to integers and the whole is
    brought to echelon form; ``gram`` is nonsingular exactly when its
    columns are the first ``n`` pivots.  ``gram`` must be square (else
    :class:`NonSquareError`) and nonsingular (else :class:`SingularError`);
    ``rhs`` may have any number of columns.  The result satisfies
    ``gram.mul(result) == rhs`` exactly.
    """
    if gram.n_rows != gram.n_cols:
        raise NonSquareError(f"solve needs a square matrix, got {gram.n_rows}x{gram.n_cols}")
    if rhs.n_rows != gram.n_rows:
        raise ValueError("right-hand side row count does not match")
    n = gram.n_rows
    scaled = []
    for row in (g + b for g, b in zip(gram.rows, rhs.rows)):
        scale = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (scale // x.denominator) for x in row])
    pivots, a, _ = _echelon(scaled, n + rhs.n_cols)
    if pivots[:n] != list(range(n)):
        raise SingularError("coefficient matrix is singular")
    columns = [
        _back_substitute(a, pivots, [a[i][n + k] for i in range(n)])
        for k in range(rhs.n_cols)
    ]
    return RationalMatrix.from_rows(
        (tuple(Fraction(y[i], d) for d, y in columns) for i in range(n)),
        n_cols=rhs.n_cols,
    )
