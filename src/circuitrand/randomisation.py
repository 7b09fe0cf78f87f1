"""Valid randomisation systems for contrast-form designs.

A randomisation system is a partition of the runs into blocks of size at
least two.  It is valid for a contrast model when every block's 0/1
indicator vector is orthogonal to every contrast column: randomly permuting
runs inside such blocks (and the blocks of equal size among themselves)
leaves the contrast estimates untouched.  Binary nonnegative circuits of the
transposed contrast matrix are the minimal valid blocks, and partitions of
the runs into circuit supports, found by exact cover, are the systems this
module enumerates.  The supports are searched for directly
(:func:`~circuitrand.circuits.binary_circuit_vectors`), without building the
mixed-sign circuit basis, and the refinement edges among the systems follow
in closed form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from operator import index
from typing import Collection, Iterable, Iterator, Sequence

# circuit_basis stays importable here: bench/worker.py traces randomisation.circuit_basis
from .circuits import binary_circuit_vectors, circuit_basis  # noqa: F401
from .contrast import ContrastModel
from .exact_linalg import _from_columns


class DimensionMismatchError(ValueError):
    """Raised when a system's run count does not match the model's."""


class NotARandomisationVectorError(ValueError):
    """Raised for a binary vector that is not orthogonal to the contrasts."""


@dataclass(frozen=True)
class RandomisationSystem:
    """A partition of ``range(n_runs)`` into blocks of size >= 2.

    The blocks may come in any order.  They are checked in the order given,
    by :func:`_check_blocks` and then for covering every run, and stored
    0-based, each sorted ascending, in plain tuple order, which for disjoint
    blocks is the order of their smallest runs, so equal partitions compare
    and hash equal.
    """

    n_runs: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = [tuple(map(index, b)) for b in self.blocks]
        _check_blocks(self.n_runs, blocks)
        # disjoint blocks of runs below n_runs cover them all when sizes sum to it
        if sum(map(len, blocks)) != self.n_runs:
            raise ValueError("blocks must partition the runs exactly once each")
        object.__setattr__(self, "blocks", tuple(sorted(map(tuple, map(sorted, blocks)))))

    @property
    def shape(self) -> tuple[int, ...]:
        """Block sizes in descending order."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))


def _check_blocks(n_runs: int, blocks: Iterable[Collection[int]]) -> None:
    """Raise ``ValueError`` unless the blocks are disjoint sets of two or more runs.

    Runs are 0-based indices below ``n_runs``, and need not all be covered.
    """
    seen: set[int] = set()
    for b in blocks:
        if len(b) < 2:
            raise ValueError("blocks need at least two runs")
        runs = set(b)
        if len(runs) != len(b):
            raise ValueError("repeated run inside a block")
        if min(runs) < 0:
            raise ValueError("run indices cannot be negative")
        if max(runs) >= n_runs:
            raise ValueError(f"run index beyond {n_runs}")
        if seen & runs:
            raise ValueError("blocks overlap")
        seen |= runs


@dataclass(frozen=True)
class SchemeCatalog:
    """All valid circuit-based randomisation systems of one contrast model.

    A view of the exact-cover search: ``supports`` are the blocks the
    search could use, in tuple order, and each entry of ``covers`` is one
    system, the ascending indices of its blocks in ``supports``.  Ascending
    indices are the canonical block order, and the covers are listed in the
    order of their block tuples, the order :func:`_cover_systems` finds
    them in.  ``len``, ``shape_counts`` and ``refinement_edges`` read the
    indices alone; ``systems`` builds and validates every
    :class:`RandomisationSystem` on first read and keeps them, so a listing
    that never reads it builds none.
    """

    model: ContrastModel
    supports: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.covers)

    @cached_property
    def systems(self) -> tuple[RandomisationSystem, ...]:
        """The covers as systems, in listing order, built on first read."""
        n, supports = self.model.n_runs, self.supports
        return tuple(
            RandomisationSystem(n, tuple(map(supports.__getitem__, c))) for c in self.covers
        )

    @property
    def shape_counts(self) -> dict[tuple[int, ...], int]:
        """Systems per multiset of block sizes, shapes descending.

        A counting-by-keys pass (Knuth, TAOCP 4A, section 7.2.1): each
        distinct support size owns one ``W``-bit field of an integer key,
        ``W = n_runs.bit_length()``, the largest size in the lowest field.
        A support adds 1 to its size's field, and no count of blocks reaches
        ``2**W > n_runs``, so a cover's key is the sum of its supports'
        codes, summed with no per-cover tuple or sort.  Each distinct key is
        decoded once into its descending shape.
        """
        width = self.model.n_runs.bit_length()
        sizes = sorted({len(s) for s in self.supports}, reverse=True)
        field = {size: rank * width for rank, size in enumerate(sizes)}
        code = [1 << field[len(s)] for s in self.supports]
        keys = Counter(map(sum, map(partial(map, code.__getitem__), self.covers)))
        mask = (1 << width) - 1
        shapes = {
            tuple(chain.from_iterable(
                repeat(size, key >> field[size] & mask) for size in sizes
            )): count
            for key, count in keys.items()
        }
        return dict(sorted(shapes.items(), reverse=True))

    @property
    def refinement_edges(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs ``(coarser_index, finer_index)`` of refinement.

        Written down, not searched for: distinct circuit-based systems never
        refine one another (a block inside another block of a cover by
        inclusion-minimal supports is that block), so the edges are
        ``(full, j)`` for every other system ``j`` when the single-block
        full randomisation sits at ``full``, and none otherwise.
        """
        return tuple(self._edges())

    def _edges(self) -> Iterator[tuple[int, int]]:
        # at most one cover has a single block
        for at, c in enumerate(self.covers):
            if len(c) == 1:
                yield from ((at, j) for j in range(len(self.covers)) if j != at)


def _block_violation(
    model: ContrastModel, blocks: Iterable[Collection[int]]
) -> tuple[Collection[int], int, int] | None:
    """The first block not orthogonal to a contrast column, or ``None``.

    Returns ``(block, column, product)``: the first block, in order, with a
    nonzero sum over some contrast column, the 0-based index of the first
    such column, and that sum.
    """
    cols = model.contrast.columns()
    for b in blocks:
        for j, col in enumerate(cols):
            product = sum(col[i] for i in b)
            if product:
                return b, j, product
    return None


def is_valid_randomisation(model: ContrastModel, system: RandomisationSystem) -> bool:
    """True when every block indicator is orthogonal to every contrast column."""
    if system.n_runs != model.n_runs:
        raise DimensionMismatchError(
            f"system has {system.n_runs} runs, model has {model.n_runs}"
        )
    return _block_violation(model, system.blocks) is None


def randomisation_vectors(model: ContrastModel) -> list[tuple[int, ...]]:
    """Binary nonnegative circuits of the transposed contrast matrix.

    These are the inclusion-minimal 0/1 vectors orthogonal to all contrasts,
    i.e. the indicators of the minimal usable blocks.
    """
    return binary_circuit_vectors(model.contrast.transpose())


def _cover_systems(
    n: int, supports: Sequence[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Every exact cover of ``range(n)`` by the distinct ``supports``.

    ``supports`` are ascending run tuples of size >= 2.  Returns
    ``(supports, covers)``: the supports in tuple order, and each cover as
    the tuple of its ascending indices into them, the covers in the order
    of their block tuples.  Depth-first search over the bitmask of
    uncovered runs, branching on the lowest one (Knuth, "Dancing Links",
    2000): a block that covers that run and lies inside the uncovered runs
    must start at it, so only the blocks grouped under their first run are
    tried, and each cover is reached exactly once.

    The search lists the covers already sorted.  Each step picks the block
    of the lowest uncovered run, which starts later than every block picked
    before it, so the chosen indices ascend and list the blocks in tuple
    order.  Two covers first differ at the block of some run r, and the
    search tries run r's supports in tuple order, so it reaches the smaller
    cover first.
    """
    supports = sorted(supports)
    starting_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, s in enumerate(supports):
        starting_at[s[0]].append((sum(1 << i for i in s), idx))
    covers: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def search(remaining: int) -> None:
        if not remaining:
            covers.append(tuple(chosen))
            return
        for mask, idx in starting_at[(remaining & -remaining).bit_length() - 1]:
            if mask & remaining == mask:
                chosen.append(idx)
                search(remaining ^ mask)
                chosen.pop()

    search((1 << n) - 1)
    return supports, covers


def refines(r1: RandomisationSystem, r2: RandomisationSystem) -> bool:
    """True when every block of ``r1`` is contained in some block of ``r2``."""
    if r1.n_runs != r2.n_runs:
        raise DimensionMismatchError("systems have different run counts")
    bigger = [set(b) for b in r2.blocks]
    return all(any(set(b) <= big for big in bigger) for b in r1.blocks)


def enumerate_circuit_randomisations(
    model: ContrastModel, include_full: bool = False
) -> SchemeCatalog:
    """Every partition of the runs into binary-circuit supports.

    Exact cover of ``range(n_runs)`` by the supports of the model's
    randomisation vectors.  Singleton supports can never join a partition
    into blocks >= 2, and a support of all the runs forms only the
    single-block cover, so both are dropped; so is the empty cover of no
    runs.  The trivial single-block randomisation, valid for every model,
    is listed only when ``include_full`` is set: its block, usually not a
    circuit support, joins the search as one more support and forms the one
    single-block cover.  Systems are sorted by their canonical block tuples;
    the refinement edges follow in closed form, as :class:`SchemeCatalog`
    describes.
    """
    n = model.n_runs
    supports = [
        tuple(i for i, x in enumerate(v) if x)
        for v in randomisation_vectors(model)
    ]
    supports = [s for s in supports if 2 <= len(s) < n]
    if include_full and n >= 2:
        supports.append(tuple(range(n)))
    supports, covers = _cover_systems(n, supports) if n else ([], [])
    return SchemeCatalog(model=model, supports=tuple(supports), covers=tuple(covers))


def is_decomposable(model: ContrastModel, v: Sequence[int]) -> bool:
    """True when a randomisation vector splits into smaller ones.

    ``v`` must be a 0/1 vector orthogonal to every contrast column, else
    :class:`NotARandomisationVectorError` (or ``ValueError`` when not
    binary).  Decomposable means the support of some binary nonnegative
    circuit lies strictly inside the support of ``v``: subtracting that
    circuit leaves another randomisation vector, so ``v`` is a sum of
    randomisation vectors with smaller supports.

    The circuits inside a set of columns are exactly the circuits of the
    matrix restricted to those columns (Oxley, *Matroid Theory*, 2011,
    section 1.3), so the search runs on the contrast rows of the support
    alone; a zero row is a singleton circuit there as in the full search.
    """
    w = tuple(map(index, v))
    if len(w) != model.n_runs:
        raise DimensionMismatchError("vector length does not match the model")
    if any(x not in (0, 1) for x in w):
        raise ValueError("randomisation vectors must be binary")
    if not any(w):
        raise NotARandomisationVectorError("the zero vector is not a randomisation vector")
    support = [i for i, x in enumerate(w) if x]
    if _block_violation(model, [support]) is not None:
        raise NotARandomisationVectorError(
            "vector is not orthogonal to the contrast columns"
        )
    rows = model.contrast.rows
    inside = _from_columns([rows[i] for i in support], model.n_contrasts)
    return any(sum(u) < len(support) for u in binary_circuit_vectors(inside))
