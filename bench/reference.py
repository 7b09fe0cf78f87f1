"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports the package.  Ranks come from a cross-multiplying
integer elimination, solutions from Fraction Gauss-Jordan, circuit
supports from an exhaustive subset scan, graph cycles from a depth-first
search and exact covers from a textbook recursion, so a bug in the package
cannot hide behind a shared helper.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by cross-multiplying elimination.

    Each step replaces a row by pivot * row - lead * pivot_row and divides
    out the gcd; both are nonzero scalings of row operations, so the rank is
    exact and the entries stay small.
    """
    a = [list(row) for row in rows]
    n_cols = len(a[0]) if a else 0
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p, top = a[r][c], a[r]
        for i in range(r + 1, len(a)):
            lead = a[i][c]
            if lead:
                row = [p * x - lead * y for x, y in zip(a[i], top)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(a):
            break
    return r


def solve(gram: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """The unique solution of a nonsingular square system, by Gauss-Jordan."""
    n = len(gram)
    a = [list(row) + [b] for row, b in zip(gram, rhs)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if a[i][c])
        a[c], a[pivot] = a[pivot], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n] for row in a]


def columns(rows: Matrix) -> list[tuple[int, ...]]:
    return [tuple(col) for col in zip(*rows)]


def block_is_orthogonal(rows: Matrix, block: Sequence[int]) -> bool:
    """n * (sum over the block) == |block| * (sum over all runs), per column.

    That is the block indicator being orthogonal to every centred design
    column, with integers only.
    """
    n = len(rows)
    for col in columns(rows):
        if n * sum(col[i] for i in block) != len(block) * sum(col):
            return False
    return True


def contrast_basis(rows: Matrix) -> list[tuple[int, ...]]:
    """The contrast columns the package documents for ``to_contrast_form``.

    Each design column c is centred to n*c - sum(c), divided by the gcd of
    its entries (sign kept), zero columns dropped, and a left-to-right greedy
    scan keeps the columns independent of those already kept.
    """
    n = len(rows)
    kept: list[tuple[int, ...]] = []
    for col in columns(rows):
        w = [n * x - sum(col) for x in col]
        g = gcd(*w)
        if g == 0:
            continue
        w = tuple(x // g for x in w)
        if rank(kept + [w]) == len(kept) + 1:
            kept.append(w)
    return kept


def contrast_estimates(contrasts: list[tuple[int, ...]], y: Sequence[Fraction]) -> list[Fraction]:
    """Contrast part of the least-squares fit of y on [j : C].

    Every contrast column sums to zero, so the normal equations split and
    the contrast coefficients solve (C'C) phi = C'y.
    """
    gram = [[Fraction(sum(a * b for a, b in zip(ci, cj))) for cj in contrasts] for ci in contrasts]
    rhs = [sum((a * v for a, v in zip(c, y)), Fraction(0)) for c in contrasts]
    return solve(gram, rhs)


def covariance_equal(contrasts: list[tuple[int, ...]], blocks: Sequence[Sequence[int]], n: int) -> bool:
    """Whether fitting the blocks leaves the contrast covariance unchanged.

    The blocked fit keeps each block indicator, then the all-ones column,
    only when it is independent of the columns already kept.  With the
    contrasts C and the kept extra columns B, the contrast covariance is
    (C'(I - P_B)C)^-1 against the naive (C'C)^-1, so the two are equal
    exactly when every kept column of B is orthogonal to every contrast.
    """
    kept = list(contrasts)
    extra = []
    candidates = [tuple(int(i in set(b)) for i in range(n)) for b in blocks]
    candidates.append(tuple(1 for _ in range(n)))
    for z in candidates:
        if rank(kept + [z]) == len(kept) + 1:
            kept.append(z)
            extra.append(z)
    return all(sum(a * b for a, b in zip(z, c)) == 0 for z in extra for c in contrasts)


def circuit_supports(rows: Matrix) -> set[frozenset[int]]:
    """Every circuit support of the matrix, by scanning all small subsets.

    A set S is a circuit support exactly when it is dependent and every
    proper subset is independent, which for S of size k means rank(S) and
    the rank of each (k-1)-subset all equal k-1.
    """
    n_cols = len(rows[0])
    cols = columns(rows)
    bound = min(n_cols, rank(rows) + 1)
    ranks: dict[tuple[int, ...], int] = {(): 0}
    found = set()
    for size in range(1, bound + 1):
        for sub in combinations(range(n_cols), size):
            r = rank([cols[j] for j in sub])
            ranks[sub] = r
            if r == size - 1 and all(
                ranks[sub[:i] + sub[i + 1 :]] == size - 1 for i in range(size)
            ):
                found.add(frozenset(sub))
    return found


def undirected_cycles(n_vertices: int, edges: Sequence[tuple[int, int]]) -> set[frozenset[int]]:
    """Edge sets of the simple cycles of a simple graph, orientation ignored."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for idx, (a, b) in enumerate(edges):
        adj[a].append((idx, b))
        adj[b].append((idx, a))
    cycles: set[frozenset[int]] = set()

    def walk(start: int, v: int, visited: int, path: tuple[int, ...]) -> None:
        for idx, w in adj[v]:
            if w == start and len(path) >= 2 and idx != path[-1]:
                cycles.add(frozenset(path + (idx,)))
            elif w > start and not visited >> w & 1:
                walk(start, w, visited | 1 << w, path + (idx,))

    for s in range(n_vertices):
        walk(s, s, 1 << s, ())
    return cycles


def directed_cycles(n_vertices: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Edge bitmasks of the simple directed cycles of a multi-digraph.

    Each cycle is found once, from its smallest vertex; parallel edges give
    distinct cycles.
    """
    out: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for idx, (t, h) in enumerate(edges):
        out[t].append((idx, h))
    cycles: list[int] = []

    def walk(start: int, v: int, visited: int, mask: int) -> None:
        for idx, h in out[v]:
            if h == start:
                cycles.append(mask | 1 << idx)
            elif h > start and not visited >> h & 1:
                walk(start, h, visited | 1 << h, mask | 1 << idx)

    for s in range(n_vertices):
        walk(s, s, 1 << s, 0)
    return cycles


def _by_lowest(n: int, masks: Sequence[int]) -> list[list[int]]:
    return [[m for m in masks if m >> i & 1] for i in range(n)]


def count_exact_covers(n: int, masks: Sequence[int]) -> int:
    """Number of partitions of range(n) into the given bitmask blocks."""
    by_low = _by_lowest(n, masks)
    memo = {0: 1}

    def count(rem: int) -> int:
        if rem not in memo:
            low = (rem & -rem).bit_length() - 1
            memo[rem] = sum(count(rem & ~m) for m in by_low[low] if m & rem == m)
        return memo[rem]

    return count((1 << n) - 1)


def exact_covers(n: int, masks: Sequence[int]) -> set[frozenset[int]]:
    """All partitions of range(n) into the given bitmask blocks."""
    by_low = _by_lowest(n, masks)
    covers: set[frozenset[int]] = set()

    def search(rem: int, chosen: tuple[int, ...]) -> None:
        if not rem:
            covers.add(frozenset(chosen))
            return
        low = (rem & -rem).bit_length() - 1
        for m in by_low[low]:
            if m & rem == m:
                search(rem & ~m, chosen + (m,))

    search((1 << n) - 1, ())
    return covers


def submatrix_count(n_rows: int, n_cols: int) -> int:
    """Square submatrices of an n_rows x n_cols matrix: sum C(m,k) C(n,k)."""
    return sum(comb(n_rows, k) * comb(n_cols, k) for k in range(1, min(n_rows, n_cols) + 1))
