"""Circuit bases of integer matrices.

A circuit of an integer matrix ``A`` is a nonzero integer vector ``u`` in
the right kernel of ``A`` whose support (set of nonzero coordinates) is
minimal with respect to inclusion among all nonzero kernel vectors, scaled
so its entries are coprime.  Per support a circuit is unique up to sign; the
canonical representative has its first nonzero entry positive.  The circuit
basis is the finite set of all circuits.  Every kernel vector decomposes as
a positive rational combination of circuits that are sign-compatible with it
(a conformal decomposition); circuits are the atoms from which all kernel
vectors, in particular all block randomisation indicators, are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from .exact_linalg import IntMatrix, kernel_basis, rank


class NotInKernelError(ValueError):
    """Raised when a vector expected in the kernel of a matrix is not."""


@dataclass(frozen=True)
class Circuit:
    """A primitive kernel vector of minimal support.

    ``support``, ``positive_support`` and ``negative_support`` hold sorted
    0-based coordinate indices.  Vectors produced by :func:`circuit_basis`
    carry the canonical sign (first nonzero entry positive); sign-aligned
    copies with the opposite sign appear in conformal decompositions.
    """

    vector: tuple[int, ...]
    support: tuple[int, ...]
    positive_support: tuple[int, ...]
    negative_support: tuple[int, ...]

    @classmethod
    def from_vector(cls, vector: Sequence[int]) -> "Circuit":
        v = tuple(int(x) for x in vector)
        if not any(v):
            raise ValueError("a circuit vector must be nonzero")
        return cls(
            vector=v,
            support=tuple(i for i, x in enumerate(v) if x),
            positive_support=tuple(i for i, x in enumerate(v) if x > 0),
            negative_support=tuple(i for i, x in enumerate(v) if x < 0),
        )

    def negated(self) -> "Circuit":
        return Circuit.from_vector(tuple(-x for x in self.vector))

    def is_nonnegative(self) -> bool:
        return not self.negative_support

    def is_binary(self) -> bool:
        return all(x in (0, 1) for x in self.vector)


@dataclass(frozen=True)
class CircuitBasis:
    """All circuits of a matrix, sorted ascending lexicographically by vector."""

    matrix: IntMatrix
    circuits: tuple[Circuit, ...]

    def __len__(self) -> int:
        return len(self.circuits)

    def vectors(self) -> list[tuple[int, ...]]:
        return [c.vector for c in self.circuits]


def circuit_basis(a: IntMatrix) -> CircuitBasis:
    """Enumerate every circuit of ``a``.

    A support set ``S`` carries a circuit exactly when the column submatrix
    ``a[:, S]`` has nullity one and its kernel generator is nonzero on all of
    ``S``: minimality forbids a second kernel dimension (two independent
    kernel vectors can be combined to cancel a coordinate, shrinking the
    support) and full support on ``S`` forbids a smaller support inside.
    Supports are scanned by increasing size up to ``rank(a) + 1`` (a circuit
    on more coordinates would contain a smaller kernel vector), skipping any
    superset of a support already found.
    """
    n = a.n_cols
    bound = min(n, rank(a) + 1)
    found_masks: list[int] = []
    vectors: list[tuple[int, ...]] = []
    for size in range(1, bound + 1):
        for cols in combinations(range(n), size):
            mask = 0
            for c in cols:
                mask |= 1 << c
            if any(fm & mask == fm for fm in found_masks):
                continue
            sub = a.restrict_columns(cols)
            if rank(sub) != size - 1:
                continue
            gen = kernel_basis(sub)[0]
            if any(x == 0 for x in gen):
                continue
            v = [0] * n
            for c, x in zip(cols, gen):
                v[c] = x
            vectors.append(tuple(v))
            found_masks.append(mask)
    vectors.sort()
    return CircuitBasis(matrix=a, circuits=tuple(Circuit.from_vector(v) for v in vectors))


def _reduce(
    v: Sequence[int], echelon: Sequence[tuple[int, tuple[int, ...]]]
) -> tuple[int, tuple[int, ...]] | None:
    """Reduce ``v`` against an integer echelon form; ``None`` when dependent.

    ``echelon`` holds ``(pivot, row)`` pairs, each row zero at the pivots of
    the rows before it.  Clearing ``v`` at every pivot by a fraction-free
    row operation leaves zero exactly when ``v`` lies in their span;
    otherwise the primitive remainder, with its first nonzero coordinate as
    pivot, extends the form by one row.
    """
    for p, row in echelon:
        f = v[p]
        if f:
            g = row[p]
            v = [g * x - f * y for x, y in zip(v, row)]
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return None
    g = gcd(*v)
    return pivot, tuple(x // g for x in v)


def binary_circuit_vectors(a: IntMatrix) -> list[tuple[int, ...]]:
    """The 0/1 circuits of ``a``, found without the full circuit basis.

    A column set ``S`` carries a binary circuit exactly when
    ``S = I + {c}`` with ``I`` linearly independent, ``c > max(I)`` and
    ``col_c == -sum(col_i for i in I)``: the all-ones vector on ``S`` then
    spans the kernel of ``a[:, S]``, whose nullity is one.  Depth-first
    search over independent sets ``I`` in increasing index order, at most
    ``rank(a)`` deep, carrying the running column sum and an integer echelon
    form extended one column at a time; a column that reduces to zero is
    dependent and its branch is cut.  Each node looks ``-sum(I)`` up among
    the columns, so every circuit is found once, through its largest index,
    and the empty ``I`` finds the zero columns.  The vectors come back in
    ascending lexicographic order: the list
    ``[c.vector for c in binary_circuits(circuit_basis(a))]``.
    """
    n = a.n_cols
    cols = a.columns()
    where: dict[tuple[int, ...], list[int]] = {}
    for j, col in enumerate(cols):
        where.setdefault(tuple(-x for x in col), []).append(j)
    depth = rank(a)
    chosen: list[int] = []
    vectors: list[tuple[int, ...]] = []

    def emit(c: int) -> None:
        v = [0] * n
        for i in (*chosen, c):
            v[i] = 1
        vectors.append(tuple(v))

    def search(start: int, total: tuple[int, ...], echelon: list) -> None:
        for j in range(start, n):
            grown = tuple(x + y for x, y in zip(total, cols[j]))
            closing = [c for c in where.get(grown, ()) if c > j]
            last = len(chosen) + 1 == depth
            # a full-rank I has no children, so unless it closes a circuit
            # its independence test is wasted
            if last and not closing:
                continue
            reduced = _reduce(cols[j], echelon)
            if reduced is None:
                continue
            chosen.append(j)
            for c in closing:
                emit(c)
            if not last:
                search(j + 1, grown, [*echelon, reduced])
            chosen.pop()

    for c in where.get((0,) * a.n_rows, ()):
        emit(c)
    search(0, (0,) * a.n_rows, [])
    vectors.sort()
    return vectors


def nonnegative_circuits(basis: CircuitBasis) -> list[Circuit]:
    """The circuits that are nonnegative up to sign, re-signed to be >= 0.

    Canonical circuit vectors have a positive first nonzero entry, so the
    sign-compatible ones are exactly those with no negative entry.
    """
    return [c for c in basis.circuits if c.is_nonnegative()]


def binary_circuits(basis: CircuitBasis) -> list[Circuit]:
    """The nonnegative circuits whose entries all lie in {0, 1}."""
    return [c for c in nonnegative_circuits(basis) if c.is_binary()]


def _conformal(u: tuple[int, ...], rem: Sequence[Fraction]) -> bool:
    # supp(u+) inside supp(rem+) and supp(u-) inside supp(rem-)
    return all((x > 0) <= (r > 0) and (x < 0) <= (r < 0) for x, r in zip(u, rem))


def conformal_decompose(
    v: Sequence[int], basis: CircuitBasis
) -> list[tuple[Fraction, Circuit]]:
    """Write a kernel vector as a positive combination of conformal circuits.

    Returns pairs ``(weight, circuit)`` with every weight a positive rational,
    every circuit sign-aligned with ``v`` (positive entries only where ``v``
    is positive, negative only where negative), and
    ``sum(weight * circuit.vector) == v`` exactly.  Greedy elimination: each
    step picks the first sign-aligned circuit in basis order and removes it
    with the largest conformal weight, zeroing at least one coordinate, so
    the chosen circuits are linearly independent and the decomposition has
    at most ``n_cols - rank`` terms.  Raises :class:`NotInKernelError` when
    ``v`` is not in the kernel of the basis matrix.
    """
    a = basis.matrix
    if len(v) != a.n_cols:
        raise ValueError("vector length does not match the matrix column count")
    if any(a.mul_vector(tuple(int(x) for x in v))):
        raise NotInKernelError("vector is not in the kernel of the matrix")

    remainder = [Fraction(int(x)) for x in v]
    terms: list[tuple[Fraction, Circuit]] = []
    while any(remainder):
        aligned: Circuit | None = None
        for c in basis.circuits:
            if _conformal(c.vector, remainder):
                aligned = c
                break
            if _conformal(tuple(-x for x in c.vector), remainder):
                aligned = c.negated()
                break
        if aligned is None:
            # cannot happen for a kernel vector: a minimal-support kernel
            # vector conformal with the remainder always exists
            raise NotInKernelError("no conformal circuit found; vector is not in the kernel")
        weight = min(
            Fraction(remainder[i], aligned.vector[i]) for i in aligned.support
        )
        remainder = [r - weight * x for r, x in zip(remainder, aligned.vector)]
        terms.append((weight, aligned))
    return terms
