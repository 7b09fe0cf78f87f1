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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Collection, Iterable, Mapping, Sequence

# circuit_basis stays importable here: bench/worker.py traces randomisation.circuit_basis
from .circuits import binary_circuit_vectors, circuit_basis  # noqa: F401
from .contrast import ContrastModel
from .exact_linalg import IntMatrix


class DimensionMismatchError(ValueError):
    """Raised when a system's run count does not match the model's."""


class NotARandomisationVectorError(ValueError):
    """Raised for a binary vector that is not orthogonal to the contrasts."""


@dataclass(frozen=True)
class RandomisationSystem:
    """A partition of ``range(n_runs)`` into blocks of size >= 2.

    Blocks are stored 0-based, each sorted ascending, and ordered by
    (size, smallest element) so equal partitions compare and hash equal.
    """

    n_runs: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if len(b) < 2:
                raise ValueError("every block needs at least two runs")
            if list(b) != sorted(b):
                raise ValueError("blocks must be sorted ascending")
            seen.update(b)
        if sorted(seen) != list(range(self.n_runs)) or sum(len(b) for b in blocks) != self.n_runs:
            raise ValueError("blocks must partition the runs exactly once each")
        if list(blocks) != sorted(blocks, key=lambda b: (len(b), b[0])):
            raise ValueError("blocks must be ordered by (size, smallest element)")

    @classmethod
    def from_blocks(cls, n_runs: int, blocks: Iterable[Iterable[int]]) -> "RandomisationSystem":
        """Canonicalise and validate an arbitrary collection of blocks."""
        norm = sorted(
            (tuple(sorted(int(i) for i in b)) for b in blocks),
            key=lambda b: (len(b), b[0] if b else -1),
        )
        return cls(n_runs=n_runs, blocks=tuple(norm))

    @property
    def shape(self) -> tuple[int, ...]:
        """Block sizes in descending order."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def indicator(self, block_index: int) -> tuple[int, ...]:
        b = set(self.blocks[block_index])
        return tuple(int(i in b) for i in range(self.n_runs))

    def indicator_matrix(self) -> IntMatrix:
        """The ``n_runs x n_blocks`` 0/1 block indicator matrix."""
        return IntMatrix.from_rows(
            (
                tuple(int(run in set(b)) for b in self.blocks)
                for run in range(self.n_runs)
            ),
            n_cols=len(self.blocks),
        )


@dataclass(frozen=True)
class SchemeCatalog:
    """All valid circuit-based randomisation systems of one contrast model.

    ``shape_counts`` maps the multiset of block sizes (descending tuple) to
    the number of systems with that shape.  ``refinement_edges`` lists the
    covering pairs ``(coarser_index, finer_index)`` of the refinement order
    on ``systems``.  It is written down, not searched for: distinct
    circuit-based systems never refine one another (a block inside another
    block of a cover by inclusion-minimal supports is that block), so the
    edges are ``(full, j)`` for every other system ``j`` when the
    single-block full randomisation is included, and none otherwise.
    """

    model: ContrastModel
    systems: tuple[RandomisationSystem, ...]
    shape_counts: Mapping[tuple[int, ...], int] = field(compare=False)
    refinement_edges: tuple[tuple[int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.systems)


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


@lru_cache(maxsize=64)
def _randomisation_vectors(model: ContrastModel) -> tuple[tuple[int, ...], ...]:
    return tuple(binary_circuit_vectors(model.contrast.transpose()))


def randomisation_vectors(model: ContrastModel) -> list[tuple[int, ...]]:
    """Binary nonnegative circuits of the transposed contrast matrix.

    These are the inclusion-minimal 0/1 vectors orthogonal to all contrasts,
    i.e. the indicators of the minimal usable blocks.  Cached per model, so
    repeated queries against the same model pay for the circuit search once.
    """
    return list(_randomisation_vectors(model))


def _exact_covers(n: int, block_masks: Sequence[int]) -> list[list[int]]:
    """All exact covers of ``range(n)`` by the given bitmask blocks.

    Depth-first cover search: always branch on the uncovered point with the
    fewest usable blocks, which prunes hopeless branches early and emits
    each cover exactly once.  Deterministic: candidates are tried in input
    order.
    """
    member: list[list[int]] = [[] for _ in range(n)]
    for idx, m in enumerate(block_masks):
        for i in range(n):
            if m >> i & 1:
                member[i].append(idx)
    covers: list[list[int]] = []
    chosen: list[int] = []

    def search(remaining: int) -> None:
        if remaining == 0:
            covers.append(list(chosen))
            return
        best: list[int] | None = None
        best_point = -1
        for i in range(n):
            if remaining >> i & 1:
                cands = [idx for idx in member[i] if block_masks[idx] & ~remaining == 0]
                if best is None or len(cands) < len(best):
                    best, best_point = cands, i
                    if not cands:
                        return
        assert best is not None and best_point >= 0
        for idx in best:
            chosen.append(idx)
            search(remaining & ~block_masks[idx])
            chosen.pop()

    search((1 << n) - 1)
    return covers


def _cover_systems(
    n: int, supports: Sequence[tuple[int, ...]]
) -> list[RandomisationSystem]:
    masks = []
    for s in supports:
        m = 0
        for i in s:
            m |= 1 << i
        masks.append(m)
    # distinct supports make the covers, each emitted once, distinct systems
    systems = [
        RandomisationSystem.from_blocks(n, (supports[i] for i in cover))
        for cover in _exact_covers(n, masks)
    ]
    return sorted(systems, key=lambda s: s.blocks)


def refines(r1: RandomisationSystem, r2: RandomisationSystem) -> bool:
    """True when every block of ``r1`` is contained in some block of ``r2``."""
    if r1.n_runs != r2.n_runs:
        raise DimensionMismatchError("systems have different run counts")
    bigger = [set(b) for b in r2.blocks]
    return all(any(set(b) <= big for big in bigger) for b in r1.blocks)


def shared_blocks(
    r1: RandomisationSystem, r2: RandomisationSystem
) -> list[tuple[int, ...]]:
    """The blocks the two systems have in common, in canonical order."""
    if r1.n_runs != r2.n_runs:
        raise DimensionMismatchError("systems have different run counts")
    common = set(r1.blocks) & set(r2.blocks)
    return sorted(common, key=lambda b: (len(b), b[0]))


def enumerate_circuit_randomisations(
    model: ContrastModel, include_full: bool = False
) -> SchemeCatalog:
    """Every partition of the runs into binary-circuit supports.

    Exact cover of ``range(n_runs)`` by the supports of the model's
    randomisation vectors (singleton supports can never join a partition of
    blocks >= 2 and are dropped).  The trivial single-block randomisation,
    valid for every model, is appended only when ``include_full`` is set;
    its block is usually not a circuit support.  Systems are sorted by their
    canonical block tuples; the refinement edges follow in closed form, as
    :class:`SchemeCatalog` describes.
    """
    n = model.n_runs
    supports = [
        tuple(i for i, x in enumerate(v) if x)
        for v in randomisation_vectors(model)
    ]
    supports = [s for s in supports if len(s) >= 2]
    systems = [s for s in _cover_systems(n, supports) if len(s.blocks) >= 2]
    edges: tuple[tuple[int, int], ...] = ()
    if include_full and n >= 2:
        full = RandomisationSystem.from_blocks(n, [range(n)])
        systems.append(full)
        systems.sort(key=lambda s: s.blocks)
        at = systems.index(full)
        edges = tuple((at, j) for j in range(len(systems)) if j != at)
    shape_counts = Counter(s.shape for s in systems)
    return SchemeCatalog(
        model=model,
        systems=tuple(systems),
        shape_counts=dict(sorted(shape_counts.items(), reverse=True)),
        refinement_edges=edges,
    )


def is_decomposable(model: ContrastModel, v: Sequence[int]) -> bool:
    """True when a randomisation vector splits into smaller ones.

    ``v`` must be a 0/1 vector orthogonal to every contrast column, else
    :class:`NotARandomisationVectorError` (or ``ValueError`` when not
    binary).  Decomposable means the support of some binary nonnegative
    circuit lies strictly inside the support of ``v``: subtracting that
    circuit leaves another randomisation vector, so ``v`` is a sum of
    randomisation vectors with smaller supports.
    """
    w = tuple(int(x) for x in v)
    if len(w) != model.n_runs:
        raise DimensionMismatchError("vector length does not match the model")
    if any(x not in (0, 1) for x in w):
        raise ValueError("randomisation vectors must be binary")
    if not any(w):
        raise NotARandomisationVectorError("the zero vector is not a randomisation vector")
    support = {i for i, x in enumerate(w) if x}
    if _block_violation(model, [support]) is not None:
        raise NotARandomisationVectorError(
            "vector is not orthogonal to the contrast columns"
        )
    return any(set(s) < support for s in (
        tuple(i for i, x in enumerate(u) if x) for u in _randomisation_vectors(model)
    ))
