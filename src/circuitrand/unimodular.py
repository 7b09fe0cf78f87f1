"""Total unimodularity and directed graph incidence matrices.

A matrix is totally unimodular when every square submatrix has determinant
-1, 0 or 1; it is tested here by signing sets of rows, not by determinants.
For such contrast matrices every randomisation vector is a sum of binary
circuits, so the circuit-based catalog of randomisation systems is
complete.  Incidence matrices of directed graphs are the standard source of
totally unimodular examples; their circuits with constant sign are the
directed simple cycles of the graph, which cover every edge exactly when
each weakly connected component is strongly connected, as in an Eulerian
balanced graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import add, index, sub
from typing import Iterable

from .circuits import _network_edges
from .exact_linalg import IntMatrix, _trusted_matrix


class TooLargeError(ValueError):
    """The square-submatrix budget was exceeded."""

    def __init__(self, count: int, size_cap: int):
        super().__init__(
            f"would need to test {count} square submatrices, budget is {size_cap}"
        )
        self.count = count
        self.size_cap = size_cap


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on vertices ``0 .. n_vertices-1`` without self-loops.

    ``edges`` keeps the construction order; parallel edges are allowed and
    each edge indexes one column of the incidence matrix.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = tuple((index(t), index(h)) for t, h in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.n_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        for t, h in edges:
            if not (0 <= t < self.n_vertices and 0 <= h < self.n_vertices):
                raise ValueError(f"edge ({t}, {h}) has an endpoint out of range")
            if t == h:
                raise ValueError(f"self-loop at vertex {t} is not allowed")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n_vertices: int | None = None) -> "DirectedGraph":
        es = tuple((index(t), index(h)) for t, h in edges)
        if n_vertices is None:
            n_vertices = 1 + max((max(t, h) for t, h in es), default=-1)
        return cls(n_vertices=n_vertices, edges=es)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def out_degree(self, v: int) -> int:
        return sum(1 for t, _ in self.edges if t == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for _, h in self.edges if h == v)


def incidence_matrix(g: DirectedGraph) -> IntMatrix:
    """Vertex-by-edge incidence matrix: +1 at the tail, -1 at the head."""
    rows = []
    for v in range(g.n_vertices):
        rows.append(
            tuple((1 if t == v else 0) - (1 if h == v else 0) for t, h in g.edges)
        )
    return _trusted_matrix(g.n_vertices, g.n_edges, tuple(rows))


def is_eulerian_balanced(g: DirectedGraph) -> bool:
    """True when every vertex has equal in- and out-degree.

    Equivalent to every row of the incidence matrix summing to zero, which
    is what lets each edge play the role of a run with the vertex rows as
    contrasts.
    """
    return Counter(t for t, _ in g.edges) == Counter(h for _, h in g.edges)


DEFAULT_SIZE_CAP = 1_000_000


def is_totally_unimodular(a: IntMatrix, size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Total unimodularity by Ghouila-Houri's signing criterion.

    A {-1, 0, 1} matrix is totally unimodular exactly when every set of its
    rows can be signed so that their sum has entries in {-1, 0, 1}
    (Ghouila-Houri 1962; Schrijver, *Theory of Linear and Integer
    Programming*, 1986, Thm 19.3).  Since a matrix and its transpose are
    totally unimodular together, the scan runs over the shorter side and,
    for each set of at least two lines, over the signings that keep its
    first line positive.  The budget is still counted in square
    submatrices, ``comb(m + n, m) - 1`` of them by Vandermonde's identity,
    and :class:`TooLargeError` is raised when that exceeds ``size_cap``.

    Within the budget, a network matrix (every column, or every row,
    holding at most one +1 and at most one -1) is a submatrix of a directed
    graph's incidence matrix, so it is totally unimodular with no scan
    (Schrijver 1986, ch. 19).
    """
    n_rows, n_cols = a.n_rows, a.n_cols
    if any(x not in (-1, 0, 1) for row in a.rows for x in row):
        return False
    total = comb(n_rows + n_cols, n_rows) - 1
    if total > size_cap:
        raise TooLargeError(total, size_cap)
    if _network_edges(a.columns()) is not None or _network_edges(a.rows) is not None:
        return True
    lines = a.rows if n_rows <= n_cols else tuple(a.columns())
    for k in range(2, len(lines) + 1):
        for first, *rest in combinations(lines, k):
            sums = {first}  # signings that reach the same partial sum count once
            for line in rest:
                sums = {tuple(map(op, s, line)) for s in sums for op in (add, sub)}
            if not any(all(-1 <= x <= 1 for x in s) for s in sums):
                return False
    return True
