"""Generators for the worked design families.

Each generator returns a :class:`~circuitrand.contrast.DesignModel` ready for
:func:`~circuitrand.contrast.to_contrast_form`: two-level full factorials,
two-way ANOVA layouts, paired-comparison choice designs and designs built
from balanced directed graphs.  Latin squares enter as block systems laid
over a two-way layout rather than as designs of their own.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .contrast import DesignModel
from .exact_linalg import _trusted_matrix
from .randomisation import RandomisationSystem
from .unimodular import DirectedGraph, incidence_matrix, is_eulerian_balanced

MAX_FACTORIAL_FACTORS = 12
MAX_RUNS = 4096


class OutOfBudgetError(ValueError):
    """A generator parameter would produce an unreasonably large design."""


class NotBalancedError(ValueError):
    """The digraph is not Eulerian balanced, so its edges admit no contrast form."""


def factorial_two_level(k: int) -> DesignModel:
    """Full two-level factorial on k factors, 2**k runs in standard order.

    Columns are the intercept followed by the k main effects in +-1 coding;
    the first factor alternates slowest.  Runs are labelled by their sign
    pattern.  ``k`` outside 1..12 raises :class:`OutOfBudgetError`.
    """
    if not 1 <= k <= MAX_FACTORIAL_FACTORS:
        raise OutOfBudgetError(f"k must be between 1 and {MAX_FACTORIAL_FACTORS}, got {k}")
    n = 2**k
    rows = []
    labels = []
    for i in range(n):
        signs = [1 if (i >> (k - 1 - f)) & 1 == 0 else -1 for f in range(k)]
        rows.append((1, *signs))
        labels.append("".join("+" if s > 0 else "-" for s in signs))
    return DesignModel(
        matrix=_trusted_matrix(n, k + 1, tuple(rows)),
        run_labels=tuple(labels),
        param_labels=("1",) + tuple(string.ascii_uppercase[:k]),
    )


def anova_two_way(n_rows: int, n_cols: int) -> DesignModel:
    """Additive two-way layout: one run per cell, row and column indicators.

    The design matrix is the ``n_rows*n_cols x (n_rows+n_cols)`` cell/level
    incidence, rank ``n_rows + n_cols - 1``.  Cells are ordered row-major.
    More than ``MAX_RUNS`` cells raises :class:`OutOfBudgetError`.
    """
    if n_rows < 2 or n_cols < 2:
        raise ValueError("a two-way layout needs at least two levels per factor")
    # the other factor has two levels or more, so past MAX_RUNS // 2 levels the
    # cells exceed the budget, and a count too long to print is never formed
    if max(n_rows, n_cols) > MAX_RUNS // 2:
        raise OutOfBudgetError(
            f"a factor of more than {MAX_RUNS // 2} levels gives more than {MAX_RUNS} runs, "
            f"beyond the budget of {MAX_RUNS}"
        )
    if n_rows * n_cols > MAX_RUNS:
        raise OutOfBudgetError(f"{n_rows * n_cols} runs exceed the budget of {MAX_RUNS}")
    rows = []
    labels = []
    for i in range(n_rows):
        for j in range(n_cols):
            rows.append(
                tuple(int(i == r) for r in range(n_rows))
                + tuple(int(j == c) for c in range(n_cols))
            )
            labels.append(f"r{i + 1}c{j + 1}")
    return DesignModel(
        matrix=_trusted_matrix(n_rows * n_cols, n_rows + n_cols, tuple(rows)),
        run_labels=tuple(labels),
        param_labels=tuple(f"a{r + 1}" for r in range(n_rows))
        + tuple(f"b{c + 1}" for c in range(n_cols)),
    )


def choice_k_of_2k(k: int) -> DesignModel:
    """Choice-set design: all k-subsets of 2k attributes, one run per subset.

    Runs are the ``comb(2k, k)`` subsets in lexicographic order; the matrix
    is the subset/attribute 0/1 incidence.  ``k < 2`` raises ``ValueError``;
    more than ``MAX_RUNS`` runs raises :class:`OutOfBudgetError`, before
    ``comb(2k, k)`` is computed once ``2^k`` alone exceeds the budget.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    # comb(2k, k) >= 2^k, and 2^k > MAX_RUNS from k = MAX_RUNS.bit_length() on
    if k >= MAX_RUNS.bit_length():
        raise OutOfBudgetError(f"k = {k} gives at least 2^{k} runs, beyond the budget of {MAX_RUNS}")
    n = comb(2 * k, k)
    if n > MAX_RUNS:
        raise OutOfBudgetError(f"{n} runs exceed the budget of {MAX_RUNS}")
    subsets = list(combinations(range(2 * k), k))
    rows = [tuple(int(a in s) for a in range(2 * k)) for s in subsets]
    return DesignModel(
        matrix=_trusted_matrix(n, 2 * k, tuple(rows)),
        run_labels=tuple(",".join(str(a + 1) for a in s) for s in subsets),
        param_labels=tuple(str(a + 1) for a in range(2 * k)),
    )


def choice_complementary_pairs(k: int) -> RandomisationSystem:
    """Pair each run of :func:`choice_k_of_2k` with its complementary subset.

    Complementary subsets have opposite centred rows, so these two-run
    blocks are always orthogonal to the contrasts.
    """
    design = choice_k_of_2k(k)
    subsets = list(combinations(range(2 * k), k))
    index = {s: i for i, s in enumerate(subsets)}
    full = frozenset(range(2 * k))
    blocks = []
    for i, s in enumerate(subsets):
        j = index[tuple(sorted(full - set(s)))]
        if i < j:
            blocks.append((i, j))
    return RandomisationSystem(design.matrix.n_rows, blocks)


@dataclass(frozen=True)
class LatinSquare:
    """A Latin square: each symbol once per row and once per column."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(tuple(map(operator.index, row)) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        n = len(cells)
        want = set(range(n))
        for row in cells:
            if set(row) != want:
                raise ValueError("each symbol must appear exactly once per row")
        for j in range(n):
            if {row[j] for row in cells} != want:
                raise ValueError("each symbol must appear exactly once per column")

    @property
    def order(self) -> int:
        return len(self.cells)

    @classmethod
    def from_text(cls, text: str) -> "LatinSquare":
        """Parse a whitespace-separated grid; symbols may be any tokens.

        Tokens are mapped to 0..n-1 in sorted order, so 'A B C' and '1 2 3'
        grids read the same way.
        """
        grid = [line.split() for line in text.splitlines() if line.split()]
        symbols = sorted({tok for row in grid for tok in row})
        lookup = {tok: i for i, tok in enumerate(symbols)}
        return cls(cells=tuple(tuple(lookup[tok] for tok in row) for row in grid))


def latin_square_blocks(square: LatinSquare) -> RandomisationSystem:
    """Blocks of a two-way layout given by the square's symbols.

    Cell (i, j) of the row-major :func:`anova_two_way` layout of the same
    order joins the block of symbol ``square.cells[i][j]``.  Every symbol
    hits each row and column once, so all blocks are orthogonal to the row
    and column contrasts.
    """
    n = square.order
    blocks: dict[int, list[int]] = {s: [] for s in range(n)}
    for i in range(n):
        for j in range(n):
            blocks[square.cells[i][j]].append(i * n + j)
    return RandomisationSystem(n * n, blocks.values())


def mols_order3() -> tuple[LatinSquare, LatinSquare]:
    """The classical pair of mutually orthogonal Latin squares of order 3."""
    first = LatinSquare.from_text("A B C\nC A B\nB C A")
    second = LatinSquare.from_text("a b c\nb c a\nc a b")
    return first, second


def digraph_design(g: DirectedGraph) -> DesignModel:
    """Design with one run per edge: intercept plus transposed incidence.

    Vertex columns hold +1 where the edge leaves the vertex and -1 where it
    enters.  Requires an Eulerian balanced graph (else
    :class:`NotBalancedError`): balance makes every vertex column sum to
    zero, so centring leaves the columns unchanged and the contrast matrix
    keeps the (totally unimodular) incidence structure.  More than
    ``MAX_RUNS`` edges or vertices raises :class:`OutOfBudgetError`.
    """
    if max(g.n_edges, g.n_vertices) > MAX_RUNS:
        # a vertex count past the budget is left out: it may be too long to print
        vertices = g.n_vertices if g.n_vertices <= MAX_RUNS else f"more than {MAX_RUNS}"
        raise OutOfBudgetError(
            f"{g.n_edges} edges on {vertices} vertices exceed the budget of {MAX_RUNS}"
        )
    if not is_eulerian_balanced(g):
        raise NotBalancedError("every vertex must have equal in- and out-degree")
    inc_t = incidence_matrix(g).transpose()
    ones = _trusted_matrix(g.n_edges, 1, ((1,),) * g.n_edges)
    return DesignModel(
        matrix=ones.hstack(inc_t),
        run_labels=tuple(f"{t + 1}->{h + 1}" for t, h in g.edges),
        param_labels=("1",) + tuple(f"v{v + 1}" for v in range(g.n_vertices)),
    )
