"""Reference implementations used to cross-check the package.

Everything in this module is written from first principles: plain Fraction
Gaussian elimination, exhaustive subset scans and a textbook set-partition
recursion.  None of it shares code with the package under test, so the two
sides cannot hide a common bug.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns of a Fraction matrix."""
    a = [row[:] for row in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, pivots


def nullspace(rows: list[list[int]], n_cols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the exact nullspace, one vector per free column."""
    if not rows:
        rows = [[0] * n_cols]
    a, pivots = rref([[Fraction(x) for x in row] for row in rows])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(tuple(v))
    return basis


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    denoms = [x.denominator for x in v]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(x * lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def contrast_columns(rows: Sequence[Sequence[int]], n_cols: int) -> list[tuple[int, ...]] | None:
    """Contrast columns of a design, or ``None`` when ``j`` is outside its column space.

    Each column ``c`` is centred to ``n*c - sum(c)`` and divided by the
    gcd of its entries; the nonzero centred columns at the pivots of their
    Fraction row echelon form are the contrasts.  ``j`` is in the column
    space exactly when appending it leaves the rank unchanged.
    """
    n = len(rows)
    cols = [[row[c] for row in rows] for c in range(n_cols)]

    def pivots(columns: list[list[int]]) -> list[int]:
        if not columns:
            return []
        return rref([[Fraction(col[i]) for col in columns] for i in range(n)])[1]

    if len(pivots(cols + [[1] * n])) != len(pivots(cols)):
        return None
    centred = []
    for col in cols:
        w = [n * v - sum(col) for v in col]
        if any(w):
            g = gcd(*w)
            centred.append([v // g for v in w])
    return [tuple(centred[p]) for p in pivots(centred)]


def brute_circuit_vectors(rows: list[list[int]], n_cols: int) -> list[tuple[int, ...]]:
    """Every circuit of the matrix, by scanning all column subsets.

    A subset is a circuit support exactly when the restricted matrix has
    nullity one and the kernel generator is nonzero on the whole subset.
    No pruning at all: each subset is judged on its own.
    """
    found = []
    for size in range(1, n_cols + 1):
        for sub in itertools.combinations(range(n_cols), size):
            restricted = [[row[j] for j in sub] for row in rows]
            ns = nullspace(restricted, size)
            if len(ns) != 1 or any(x == 0 for x in ns[0]):
                continue
            full = [Fraction(0)] * n_cols
            for j, x in zip(sub, ns[0]):
                full[j] = x
            found.append(primitive(full))
    return sorted(found)


def canonical_sign(v: Sequence[int]) -> tuple[int, ...]:
    """``v`` or ``-v``, whichever has its first nonzero entry positive."""
    lead = next((x for x in v if x), 0)
    return tuple(-x for x in v) if lead < 0 else tuple(v)


def identity(n: int) -> list[list[int]]:
    """Rows of the n x n identity matrix."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def model_matrix(model) -> list[tuple[int, ...]]:
    """Rows of the full model matrix ``[j : C]`` of a contrast model, ones first."""
    return [(1, *row) for row in model.contrast.rows]


def det_cofactor(rows: list[list[int]]):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def is_psd_by_minors(rows: Sequence[Sequence]) -> bool:
    """A symmetric matrix is positive semidefinite iff every principal minor is >= 0."""
    n = len(rows)
    return all(
        det_cofactor([[rows[i][j] for j in sub] for i in sub]) >= 0
        for size in range(1, n + 1)
        for sub in itertools.combinations(range(n), size)
    )


def inverse(rows: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Inverse of a square matrix by reducing ``[A | I]``; None when singular."""
    n = len(rows)
    augmented = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    a, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in a]


def covariance_ordering_by_inverses(
    contrast_rows: Sequence[Sequence[int]], z_rows: Sequence[Sequence[int]]
) -> str | None:
    """Loewner order of the blocked against the naive contrast covariance.

    The naive covariance is the contrast block of the inverse Gram matrix
    of ``[j : C]``.  The blocked fit keeps every contrast column, then each
    column of ``[Z | j]`` that is independent of the columns kept so far,
    and its covariance is the contrast block of its inverse Gram matrix.
    Returns ``"equal"`` when the two agree, ``"proper_dominates"`` when
    their difference is positive semidefinite by principal minors,
    ``"incomparable"`` otherwise, and None when the naive Gram matrix is
    singular.
    """
    n = len(contrast_rows)
    c_cols = [tuple(row[h] for row in contrast_rows) for h in range(len(contrast_rows[0]))]
    z_cols = [tuple(row[k] for row in z_rows) for k in range(len(z_rows[0]))]
    q = len(c_cols)
    ones = (1,) * n

    def contrast_block(cols: list[tuple[int, ...]], offset: int) -> list[list[Fraction]] | None:
        inv = inverse([[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols])
        if inv is None:
            return None
        return [row[offset : offset + q] for row in inv[offset : offset + q]]

    naive = contrast_block([ones, *c_cols], 1)
    if naive is None:
        return None
    kept = list(c_cols)
    for col in [*z_cols, ones]:
        if len(rref([[Fraction(x) for x in u] for u in [*kept, col]])[1]) > len(kept):
            kept.append(col)
    blocked = contrast_block(kept, 0)
    diff = [[b - a for a, b in zip(ra, rb)] for ra, rb in zip(naive, blocked)]
    if not any(x for row in diff for x in row):
        return "equal"
    return "proper_dominates" if is_psd_by_minors(diff) else "incomparable"


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All set partitions of the given items."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def binary_kernel_supports(rows: list[list[int]], n_cols: int) -> list[frozenset[int]]:
    """Supports of all nonzero 0/1 kernel vectors, by a full 2^n scan."""
    out = []
    for mask in range(1, 1 << n_cols):
        sup = [i for i in range(n_cols) if mask >> i & 1]
        if all(sum(row[i] for i in sup) == 0 for row in rows):
            out.append(frozenset(sup))
    return out


def minimal_supports(supports: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    sups = list(supports)
    return {s for s in sups if not any(t < s for t in sups)}


def exact_covers_naive(n: int, blocks: Sequence[frozenset[int]]) -> list[frozenset[frozenset[int]]]:
    """All exact covers of range(n), branching on the lowest uncovered point."""
    covers: list[frozenset[frozenset[int]]] = []

    def search(uncovered: frozenset[int], chosen: tuple[frozenset[int], ...]) -> None:
        if not uncovered:
            covers.append(frozenset(chosen))
            return
        point = min(uncovered)
        for b in blocks:
            if point in b and b <= uncovered:
                search(uncovered - b, chosen + (b,))

    search(frozenset(range(n)), ())
    return covers


def random_balanced_digraph(rng: random.Random, max_edges: int = 8) -> list[tuple[int, int]]:
    """A random digraph with equal in- and out-degrees at every vertex.

    Built as an edge-disjoint union of simple directed cycles, which is
    exactly the class of balanced digraphs.
    """
    edges: set[tuple[int, int]] = set()
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(2, 4)
        verts = rng.sample(range(5), length)
        cycle = [(verts[i], verts[(i + 1) % length]) for i in range(length)]
        if len(edges) + length <= max_edges and not edges.intersection(cycle):
            edges.update(cycle)
    if not edges:
        edges = {(0, 1), (1, 0)}
    return sorted(edges)


def covering_pairs(partitions: Sequence[Iterable[Iterable[int]]]) -> list[tuple[int, int]]:
    """Covering pairs ``(coarser, finer)`` of the refinement order, by definition.

    Partition ``j`` strictly refines partition ``i`` when the two differ and
    every block of ``j`` lies inside some block of ``i``.  A covering pair is
    a strict refinement with no partition of the list strictly between.
    """
    parts = [frozenset(frozenset(b) for b in p) for p in partitions]
    strict = {
        (i, j)
        for i, coarse in enumerate(parts)
        for j, fine in enumerate(parts)
        if fine != coarse and all(any(b <= c for c in coarse) for b in fine)
    }
    return sorted(
        (i, j)
        for i, j in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(len(parts)))
    )


def is_simple_directed_cycle(edges: Sequence[tuple[int, int]]) -> bool:
    """True when the (tail, head) pairs form one directed cycle through distinct vertices."""
    succ = dict(edges)
    if not edges or len(succ) != len(edges) or set(succ.values()) != set(succ):
        return False
    start = vertex = edges[0][0]
    seen = set()
    for _ in edges:
        seen.add(vertex)
        vertex = succ[vertex]
    return vertex == start and len(seen) == len(edges)
