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

A network matrix, whose every column holds at most one +1 and at most one
-1, is a directed graph's incidence matrix less one row, and its circuits
are the graph's cycles; both searches list those by walking the graph.
Every other matrix takes a depth-first search over independent column
sets, eliminated by one fraction-free step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, prod
from typing import Sequence

from .exact_linalg import IntMatrix, rank


class NotInKernelError(ValueError):
    """Raised when a vector expected in the kernel of a matrix is not."""


@dataclass(frozen=True)
class Circuit:
    """A primitive kernel vector of minimal support.

    ``support`` reads the sorted 0-based coordinate indices off
    ``vector``.  Vectors produced by :func:`circuit_basis` carry the
    canonical sign (first nonzero entry positive); sign-aligned copies with
    the opposite sign appear in conformal decompositions.
    """

    vector: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.vector):
            raise ValueError("a circuit vector must be nonzero")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.vector) if x)

    def negated(self) -> "Circuit":
        return Circuit(tuple(-x for x in self.vector))

    def is_nonnegative(self) -> bool:
        return min(self.vector) >= 0

    def is_binary(self) -> bool:
        return all(x in (0, 1) for x in self.vector)


def _trusted_circuit(vector: tuple[int, ...]) -> Circuit:
    """A :class:`Circuit` built without checking that ``vector`` is nonzero.

    For the vectors the searches build, each nonzero by construction.  The
    result is equal, with an equal hash, to the checked ``Circuit(vector)``.
    """
    c = object.__new__(Circuit)
    c.__dict__["vector"] = vector
    return c


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

    A network matrix, one whose every column holds at most one +1, at most
    one -1 and zeros elsewhere, has the cycles of its graph as circuits,
    and :func:`_cycle_vectors` lists them with no elimination.  Every other
    matrix goes to :func:`_general_basis`.
    """
    vectors = _cycle_vectors(a, directed=False)
    if vectors is None:
        return _general_basis(a)
    return CircuitBasis(matrix=a, circuits=tuple(map(_trusted_circuit, vectors)))


def binary_circuit_vectors(a: IntMatrix) -> list[tuple[int, ...]]:
    """The 0/1 circuits of ``a``, found without the full circuit basis.

    A network matrix's are the directed cycles of its graph, listed by
    :func:`_cycle_vectors`; every other matrix goes to
    :func:`_general_binary`.  The vectors come back in ascending
    lexicographic order: the list
    ``[c.vector for c in binary_circuits(circuit_basis(a))]``.
    """
    vectors = _cycle_vectors(a, directed=True)
    return _general_binary(a) if vectors is None else vectors


def _network_edges(lines: Sequence[tuple[int, ...]]) -> list[tuple[int, int]] | None:
    """Each line as a directed edge ``(tail, head)``, or None if one is not.

    A network line holds at most one +1, at most one -1 and zeros
    elsewhere.  Its tail is the row of its +1 and its head the row of its
    -1; a missing end is the ground vertex ``len(line)``, so a zero line is
    a loop at ground.  The lines are then the columns of a directed graph's
    incidence matrix with the ground row deleted.  That row is minus the
    sum of the others, so the kernel is the same, and a submatrix of a
    totally unimodular matrix is totally unimodular.
    """
    edges = []
    for line in lines:
        ground = len(line)
        plus, minus = line.count(1), line.count(-1)
        if plus > 1 or minus > 1 or plus + minus + line.count(0) != ground:
            return None
        edges.append((line.index(1) if plus else ground, line.index(-1) if minus else ground))
    return edges


def _cycle_vectors(a: IntMatrix, directed: bool) -> list[tuple[int, ...]] | None:
    """The circuits of a network matrix as cycles of its graph, or None.

    The circuits of a directed graph's incidence matrix are its cycles
    (Oxley, *Matroid Theory*, 2nd ed., 2011, §5.1; Schrijver, *Theory of
    Linear and Integer Programming*, 1986, ch. 19): walked in either
    direction, an edge gets +1 when travelled from tail to head and -1
    otherwise, so the entries of each vertex cancel.  A loop is a circuit
    of one edge.  The binary circuits, with ``directed``, are the cycles
    travelled with every edge from tail to head.

    The columns are the edges of :func:`_network_edges`; None means some
    column is not a network column.  From each start vertex ``s`` in turn
    the search walks every simple path through vertices above ``s``, and
    an edge back to ``s`` closes a cycle, so each cycle is found from its
    lowest vertex only.  Undirected, it is found once in each direction
    and kept when its first edge index is below its closing edge index;
    directed, walking edges only from tail to head finds it once.  The
    walk keeps an explicit stack of iterators, not recursion, since a
    cycle may pass through every row.  Each cycle is signed so that its
    lowest edge is +1, and the vectors come back sorted.
    """
    edges = _network_edges(a.columns())
    if edges is None:
        return None
    n, ground = a.n_cols, a.n_rows
    # around[v]: (w, j, sign) for each edge j from v to w, sign +1 when v is its tail
    around: list[list[tuple[int, int, int]]] = [[] for _ in range(ground + 1)]
    vectors = []

    def emit(cycle: list[tuple[int, int]]) -> None:
        u = [0] * n
        flip = min(cycle)[1]
        for j, sign in cycle:
            u[j] = sign * flip
        vectors.append(tuple(u))

    for j, (t, h) in enumerate(edges):
        if t == h:
            emit([(j, 1)])
            continue
        around[t].append((h, j, 1))
        if not directed:
            around[h].append((t, j, -1))
    on_path = [False] * (ground + 1)
    for s in range(ground + 1):
        path: list[tuple[int, int, int]] = []
        stack = [iter(around[s])]
        while stack:
            for w, j, sign in stack[-1]:
                if w == s:
                    # no edge leaves s back to s, so path holds the first edge
                    if directed or path[0][1] < j:
                        emit([(i, x) for _, i, x in path] + [(j, sign)])
                elif w > s and not on_path[w]:
                    on_path[w] = True
                    path.append((w, j, sign))
                    stack.append(iter(around[w]))
                    break
            else:
                stack.pop()
                if path:
                    on_path[path.pop()[0]] = False
    vectors.sort()
    return vectors


def _general_basis(a: IntMatrix) -> CircuitBasis:
    """Every circuit of ``a``, by elimination over independent column sets.

    Every circuit ``C`` is the fundamental circuit of its largest column
    ``j`` over the independent set ``I = C - {j}``: the kernel of
    ``a[:, I + {j}]`` is one-dimensional and its generator is nonzero on
    all of ``I + {j}``.  Depth-first search over linearly independent
    column sets ``I`` in increasing index order.  Each column carries a
    unit part that tracks the combination of columns its elimination took:
    slot ``k`` for the ``k``-th column of ``I``.  A node holds its pending
    columns, the ``j > max(I)`` independent of ``I``, already eliminated at
    the pivots of ``I``; each one's own coefficient is the pivot chosen
    last (1 at the root), so it is not stored.  Choosing a pending ``j``
    writes that coefficient to slot ``len(I)`` and makes ``j`` the one new
    pivot row, and each later pending column takes one :func:`_step`
    against it.  A later column that becomes zero in its first ``n_rows``
    entries depends on ``I + {j}``; its slots and its own coefficient, the
    pivot of ``j``, are a kernel vector on ``I + {j}`` and itself.  It is
    a circuit exactly when its support is all of that set, so each circuit
    is found once, through its largest index, and is made primitive and
    canonically signed then.  The column then depends on every larger set
    too, where its kernel vector is zero on the added columns, so it
    leaves the subtree.  The search is at most ``rank(a)`` deep, and two
    rules keep it from visiting nodes that hold no circuit:

    - One column short of full rank, the quotient of the column space by
      the span of ``I`` is a line, so every pending column is a multiple
      of one direction on the rows and all share one pivot ``p``.  Each
      pair ``c < l`` of pending columns then closes exactly one
      dependency, ``w_c[p] * w_l - w_l[p] * w_c``, which is a circuit
      exactly when it is nonzero on every slot of ``I``.  These pairs are
      closed directly, with no node and no step per child; a rank-one
      matrix takes this path at the root.
    - Every vector formed below a node is an integer combination
      ``sum(z_p * w_p)`` of its pending columns, so its coefficient on the
      ``k``-th column of ``I`` is ``sum(z_p * s_pk)`` over their unit
      parts.  A circuit found below is nonzero there, so the search enters
      a node only when some pending column is nonzero in each slot of
      ``I``, and only when it has two pending columns, one to choose and
      one to close a dependency.

    Each ``(I, j)`` pair above the last level costs one step by one row.

    A column is one integer of signed ``W``-bit fields, as packed by
    :func:`_packing`: the ``n_rows`` rows, then the ``rank(a)`` slots.
    The steps are fraction-free (Bareiss), so every field of a pending
    column with ``k`` columns chosen is, up to sign, a minor of ``a`` on
    the chosen columns and at most one more: a row is the
    ``(k + 1)``-minor on the chosen pivot rows and that row, and a slot the
    ``k``-minor that leaves its chosen column out.  A pair's combination
    divided by the last pivot, which is exact for the same reason, has
    the same ``rank(a)``-minors in its slots.  Each is at most Hadamard's
    bound, the product of the ``rank(a)`` largest column norms, which is
    what ``W`` holds; a product formed inside a step may overflow its
    field, but packing is linear and the exact quotient fits again.  The
    fields that are tested and read are those of a stored column or a
    divided pair, so a nonzero test is one mask for all the slots, and
    the lowest set bit of a column finds its pivot.
    """
    m, n = a.n_rows, a.n_cols
    cols = a.columns()
    depth = rank(a)
    width, half, mask, high, low = _packing(cols, depth, m + depth)
    rows = (1 << width * m) - 1
    # slots[k]: the top bit of each of the first k slots
    slots = [high & ((1 << width * (m + k)) - 1) & ~rows for k in range(depth + 1)]
    chosen: list[int] = []
    vectors: list[tuple[int, ...]] = []

    def full(t: int, need: int) -> bool:
        # are the fields of t, in two's complement, nonzero wherever need is set?
        return (((t & low) + low) | t) & need == need

    def emit(support: Sequence[int], v: int, tail: list[int]) -> None:
        # the coefficients of chosen are the slots of v, and tail follows them
        v += high
        coefficients = [(v >> width * f & mask) - half for f in range(m, m + len(chosen))] + tail
        # the support ascends and no coefficient is zero, so the first one
        # is the circuit's first nonzero entry and sets its sign
        g = gcd(*coefficients)
        if coefficients[0] < 0:
            g = -g
        if g != 1:
            coefficients = [x // g for x in coefficients]
        u = [0] * n
        for i, x in zip(support, coefficients):
            u[i] = x
        vectors.append(tuple(u))

    def close_pairs(pending: list, prev: int) -> None:
        need = slots[len(chosen)]
        first = pending[0][1]
        shift = ((first & -first).bit_length() - 1) // width * width
        parts = [(j, ((v + high) >> shift & mask) - half, v) for j, v in pending]
        for k, (c, f_c, w_c) in enumerate(parts):
            for l, f_l, w_l in parts[k + 1 :]:
                # zero on every row
                u = (f_c * w_l - f_l * w_c) // prev
                if full((u + high) ^ high, need):
                    emit((*chosen, c, l), u, [-f_l, f_c])

    def search(pending: list, prev: int) -> None:
        # pending is never empty here: the root holds a nonzero column, and
        # a node is entered only with two
        if len(chosen) + 1 == depth:
            close_pairs(pending, prev)
            return
        slot, need = width * (m + len(chosen)), slots[len(chosen) + 1]
        for k, (j, r) in enumerate(pending):
            shift = ((r & -r).bit_length() - 1) // width * width
            p = ((r + high) >> shift & mask) - half
            r += prev << slot
            chosen.append(j)
            children = []
            seen = 0
            for later, w in pending[k + 1 :]:
                w = _step(w, ((w + high) >> shift & mask) - half, r, p, prev)
                t = (w + high) ^ high
                if w & rows:
                    children.append((later, w))
                    seen |= t
                elif full(t, need):
                    emit((*chosen, later), w, [p])
            # does some child have a nonzero entry in every slot of chosen?
            if len(children) > 1 and full(seen, need):
                search(children, p)
            chosen.pop()

    pending = []
    for j, col in enumerate(cols):
        v = sum(x << width * i for i, x in enumerate(col))
        if v & rows:
            pending.append((j, v))
        else:
            emit((j,), v, [1])
    if pending:
        search(pending, 1)
    vectors.sort()
    return CircuitBasis(matrix=a, circuits=tuple(map(_trusted_circuit, vectors)))


def _general_binary(a: IntMatrix) -> list[tuple[int, ...]]:
    """The 0/1 circuits of ``a``, by elimination over independent column sets.

    A column set ``S`` carries a binary circuit exactly when
    ``S = I + {c}`` with ``I`` linearly independent, ``c > max(I)`` and
    ``col_c == -sum(col_i for i in I)``: the all-ones vector on ``S`` then
    spans the kernel of ``a[:, S]``, whose nullity is one.  Depth-first
    search over independent sets ``I`` in increasing index order, at most
    ``rank(a)`` deep, carrying the running column sum.  As in
    :func:`_general_basis`, a node holds its pending columns, the
    ``j > max(I)`` independent of ``I`` eliminated at the pivots of ``I``,
    here with no unit part; choosing one takes each later pending column
    one :func:`_step` against it, and a column that becomes zero is
    dependent and leaves the subtree.  A full-rank ``I`` has no children,
    so a node one column short of full rank steps only the columns that
    close a circuit.  Each node looks ``-sum(I)`` up among the columns, so
    every circuit is found once, through its largest index, and the empty
    ``I`` finds the zero columns.

    A pending column is one integer of signed ``W``-bit fields, one per
    row, as packed by :func:`_packing`.  The steps are fraction-free
    (Bareiss), so with ``k`` columns chosen each field is, up to sign, the
    ``(k + 1)``-minor of ``a`` on the chosen columns and the column itself,
    and the division in each step is exact by Sylvester's identity.  No
    column is stepped past ``k = rank(a) - 1``, so every field is at most
    Hadamard's bound, the product of the ``rank(a)`` largest column norms,
    which is what ``W`` holds; a product formed inside a step may overflow
    its field, but packing is linear and the exact quotient fits again.
    So a column is dependent exactly when its integer is zero, and the
    lowest set bit finds its pivot.

    The sum keys are a second packing.  A column is keyed by one integer
    of ``K``-bit fields: row ``r`` goes in field ``r`` and its negation in
    field ``m + r``, ``m`` the row count.  The key is linear, so the
    running sum costs one integer add per child and ``-sum(I)`` is looked
    up as one integer.  It also bounds every row at once.  Below a node
    that has just chosen ``j``, with ``k`` columns chosen and packed sum
    ``S``, a circuit adds at most ``t = rank(a) + 1 - k`` columns past
    ``j``, and they sum to ``-S``.  So each row needs ``S_r + hi_r >= 0``
    and ``-S_r - lo_r >= 0``, where ``hi_r`` and ``lo_r`` are the largest
    and smallest sums of at most ``t`` entries of row ``r`` among the
    columns ``s = j + 1`` onwards.  ``reach[s][t]`` packs ``hi_r`` in
    field ``r`` and ``-lo_r`` in field ``m + r``, plus ``guard``, the top
    bit of every field, so each field of ``S + reach[s][t]`` holds one of
    those differences biased by ``2**(K - 1)``.  A node steps its children
    only when ``(S + reach[j + 1][t]) & guard == guard``: one add and one
    mask test every row from both sides.  The test runs one column short
    of full rank too, where a cut saves a look-up per child.

    The key width makes the test exact.  Every field of a sum formed
    above, keys included, lies within ``M = (rank(a) + 1) * max|a|`` of
    zero, and ``K = (2 * M + 1).bit_length() + 1`` keeps it below
    ``2**(K - 2)`` in magnitude.  Biased by ``2**(K - 1)``, such a field
    stays inside ``[0, 2**K)``, so no field borrows from or carries into
    the next, the packing is unique, and the top bit of a biased field is
    set exactly when the field is nonnegative.

    The vectors come back in ascending lexicographic order.
    """
    m, n = a.n_rows, a.n_cols
    cols = a.columns()
    depth = rank(a)
    width, half, mask, high, _ = _packing(cols, depth, m)
    big = max((abs(x) for col in cols for x in col), default=0)
    key_width = (2 * (depth + 1) * big + 1).bit_length() + 1
    shifts = [key_width * f for f in range(2 * m)]
    guard = sum(1 << (s + key_width - 1) for s in shifts)
    keys = []
    for col in cols:
        packed = sum(x << s for x, s in zip(col, shifts))
        keys.append(packed - (packed << (key_width * m)))
    where: dict[int, list[int]] = {}
    for j, key in enumerate(keys):
        where.setdefault(-key, []).append(j)
    reach = _reach(cols, shifts, depth, guard)
    chosen: list[int] = []
    vectors: list[tuple[int, ...]] = []

    def emit(c: int) -> None:
        v = [0] * n
        for i in (*chosen, c):
            v[i] = 1
        vectors.append(tuple(v))

    def search(total: int, pending: list, prev: int) -> None:
        for k, (j, r) in enumerate(pending):
            grown = total + keys[j]
            chosen.append(j)
            for c in where.get(grown, ()):
                if c > j:
                    emit(c)
            t = depth + 1 - len(chosen)
            if t > 1 and (grown + reach[j + 1][t]) & guard == guard:
                shift = ((r & -r).bit_length() - 1) // width * width
                p = ((r + high) >> shift & mask) - half
                last = t == 2
                children = []
                for later, w in pending[k + 1 :]:
                    # a full-rank child has no children, so unless it closes
                    # a circuit (a later column in the ascending where list)
                    # its independence test is wasted
                    if last and where.get(grown + keys[later], [-1])[-1] <= later:
                        continue
                    w = _step(w, ((w + high) >> shift & mask) - half, r, p, prev)
                    if w:
                        children.append((later, w))
                search(grown, children, p)
            chosen.pop()

    for c in where.get(0, ()):
        emit(c)
    pending = []
    for j, col in enumerate(cols):
        v = sum(x << width * i for i, x in enumerate(col))
        if v:
            pending.append((j, v))
    search(0, pending, 1)
    vectors.sort()
    return vectors


def _packing(
    cols: Sequence[tuple[int, ...]], depth: int, fields: int
) -> tuple[int, int, int, int, int]:
    """Field width and masks for columns of ``fields`` signed fields.

    A vector ``v`` packs as ``sum(v[f] << W * f)``, with no bias, so
    packing is linear.  ``W`` is one bit wider than Hadamard's bound on
    the minors of ``cols`` with at most ``depth`` columns, the product of
    the ``depth`` largest column norms, so a field ``x`` within that bound
    satisfies ``-2**(W - 1) < x < 2**(W - 1)``.  Adding
    ``high``, the top bit of every field, biases each such field into
    ``[0, 2**W)`` with no borrow between fields: field ``f`` of ``v``
    reads as ``((v + high) >> W * f & (2**W - 1)) - 2**(W - 1)``, and
    ``(v + high) ^ high`` holds every field in ``W``-bit two's complement,
    zero exactly where ``v`` is.  With ``low = high - ones``, ``ones``
    the low bit of every field, a field ``t`` in two's complement is
    nonzero exactly when the top bit of ``((t & low) + low) | t`` is set.
    Returns ``(W, 2**(W - 1), 2**W - 1, high, low)``.
    """
    norms = sorted((sum(x * x for x in col) for col in cols), reverse=True)
    width = isqrt(prod(norms[:depth])).bit_length() + 1
    half, mask = 1 << (width - 1), (1 << width) - 1
    ones = ((1 << width * fields) - 1) // mask
    return width, half, mask, ones * half, ones * (half - 1)


def _step(column: int, q: int, row: int, p: int, prev: int) -> int:
    """One fraction-free elimination step on packed columns, by one row.

    ``row`` is the packed column chosen last and ``p`` its entry at its
    pivot, ``q`` is the entry of ``column`` at that pivot, and ``prev`` the
    pivot entry of the column chosen before (1 at the root).  Returns
    ``(p * column - q * row) // prev``, which is zero at the pivot.  By
    Sylvester's identity every field of the result is a minor of the
    chosen columns and ``column``, so the division is exact (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968).  That holds only when every pending
    column has taken every step, so a column with ``q == 0`` is rescaled
    to ``p * column // prev`` all the same.
    """
    if q:
        return (p * column - q * row) // prev
    return p * column // prev


def _reach(
    cols: Sequence[tuple[int, ...]], shifts: Sequence[int], depth: int, guard: int
) -> list[list[int]]:
    """``reach[s][t]`` of :func:`_general_binary` for ``t <= depth``.

    Field ``r`` of a column holds its row ``r`` entry, field ``m + r`` the
    negated entry.  Scanning the columns from the right, each field keeps
    the ``depth`` largest positive values it has seen, descending and
    padded with zeros, and ``packed[i]`` packs the ``i``-th of every field,
    so the running sums of ``packed`` give the bounds for every ``t`` at
    once.  A column that changes no field shares the previous entry.
    """
    m = len(shifts) // 2
    tops = [[0] * depth for _ in shifts]
    packed = [0] * depth
    sums = list(accumulate(packed, initial=guard))
    reach = [sums]
    for col in reversed(cols):
        changed = False
        for f, x in enumerate(col):
            if x < 0:
                f, x = m + f, -x
            elif not x:
                continue
            top = tops[f]
            if x > top[-1]:
                changed = True
                for i in range(depth):
                    if top[i] < x:
                        packed[i] += (x - top[i]) << shifts[f]
                        top[i], x = x, top[i]
        if changed:
            sums = list(accumulate(packed, initial=guard))
        reach.append(sums)
    reach.reverse()
    return reach


def nonnegative_circuits(basis: CircuitBasis) -> list[Circuit]:
    """The circuits that are nonnegative up to sign, re-signed to be >= 0.

    Canonical circuit vectors have a positive first nonzero entry, so the
    sign-compatible ones are exactly those with no negative entry.
    """
    return [c for c in basis.circuits if c.is_nonnegative()]


def binary_circuits(basis: CircuitBasis) -> list[Circuit]:
    """The circuits whose entries all lie in {0, 1}; each is nonnegative."""
    return [c for c in basis.circuits if c.is_binary()]


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
    v = tuple(map(operator.index, v))
    if any(a.mul_vector(v)):
        raise NotInKernelError("vector is not in the kernel of the matrix")

    remainder = list(map(Fraction, v))
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
