"""The four workloads: seeded input files, job lists and answer checks.

Each builder takes a seeded ``random.Random``, a scratch directory and a
tracer, writes the input files and returns the jobs.  A job is one
``circuitrand`` command line; the package sees only the files.  Each job
carries a check that judges the exit code and stdout against answers from
``reference`` (never from the package), and the check runs only after the
timed section.

No design repeats within a pass of ``enumerate-ladder``,
``systems-multidigraph`` or ``basis-mixed``, because the package memoises
per model and a repeat would time a dictionary lookup.  ``verify-blockings``
reuses each design across its jobs on purpose: that is how a library user
checks one blocking after another.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path
from typing import Callable, Sequence

import reference as ref
from circuitrand import design_catalog
from circuitrand.unimodular import DirectedGraph

Check = Callable[[int, str], "str | None"]

# The five-vertex digraph of the paper's worked example, 1-based.
DIGRAPH5_EDGES = (
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
    (3, 1), (4, 5), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3),
)


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Check
    # Size of the full circuit basis, checked in the traced run whenever
    # the job builds one.
    circuits: int | None = None
    # Jobs with the same request answer one user question together and are
    # timed as one for the latency percentiles; empty means the job alone.
    request: str = ""


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _write_matrix(path: Path, rows: Sequence[Sequence[int]]) -> str:
    body = "".join(" ".join(str(x) for x in row) + "\n" for row in rows)
    return _write(path, f"{len(rows)} {len(rows[0])}\n{body}")


def _checked(check: Check) -> Check:
    """Turn unparseable output into a failure message instead of a crash."""

    def guarded(code: int, out: str) -> str | None:
        try:
            return check(code, out)
        except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            return f"unparseable output: {exc!r}"

    return guarded


# --- randomise --enumerate ---------------------------------------------------


def _systems_check(
    rows: list[tuple[int, ...]],
    expected: int | Callable[[], set[frozenset[frozenset[int]]]],
    lattice: bool,
) -> Check:
    """Check a ``randomise --enumerate --shapes`` report.

    Every listed system must partition the runs into blocks that pass the
    integer orthogonality test, no system may repeat, the shape table must
    tally the listed systems, and the count (or, given a reference, the
    exact set of systems) must match.  Distinct systems built from
    inclusion-minimal supports never refine one another, so ``--lattice``
    must report no edges.
    """
    n = len(rows)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if not lines[0].startswith("systems="):
            return "missing systems= line"
        count = int(lines[0].removeprefix("systems="))
        seen: set[frozenset[frozenset[int]]] = set()
        shapes: Counter = Counter()
        for line in lines[1 : 1 + count]:
            blocks = [[int(x) - 1 for x in tok.strip("{}").split(",")] for tok in line.split()]
            if sorted(i for b in blocks for i in b) != list(range(n)):
                return f"not a partition of the runs: {line}"
            for b in blocks:
                if len(b) < 2 or not ref.block_is_orthogonal(rows, b):
                    return f"block {b} is not orthogonal to the design"
            key = frozenset(frozenset(b) for b in blocks)
            if key in seen:
                return f"system listed twice: {line}"
            seen.add(key)
            shapes[tuple(sorted((len(b) for b in blocks), reverse=True))] += 1
        if isinstance(expected, int):
            if count != expected:
                return f"{count} systems, expected {expected}"
        elif seen != expected():
            return f"{count} systems differ from the {len(expected())} of the reference"
        rest = lines[1 + count :]
        if rest[0] != "shapes:":
            return "missing shape table"
        table = Counter()
        for line in rest[1:]:
            if line.startswith("lattice-edges="):
                break
            shape, num = line.split()
            table[tuple(int(x) for x in shape.split("+"))] = int(num)
        if table != shapes:
            return "shape table does not tally the listed systems"
        if lattice and rest[-1] != "lattice-edges=0":
            return f"unexpected lattice report {rest[-1]!r}"
        return None

    return _checked(check)


def _permuted(rows: Sequence[Sequence[int]], rng: random.Random) -> list[tuple[int, ...]]:
    order = list(range(len(rows)))
    cols = list(range(len(rows[0])))
    rng.shuffle(order)
    rng.shuffle(cols)
    return [tuple(rows[i][j] for j in cols) for i in order]


# (rung, generator, arguments, systems, circuits of the transposed contrasts)
LADDER = (
    ("f3", design_catalog.factorial_two_level, (3,), 2, 20),
    ("f4", design_catalog.factorial_two_level, (4,), 75, 456),
    ("dg5", design_catalog.digraph_design, (DirectedGraph.from_edges([(t - 1, h - 1) for t, h in DIGRAPH5_EDGES], 5),), 57, 198),
    ("ch3", design_catalog.choice_k_of_2k, (3,), 446, 1210),
    ("a44", design_catalog.anova_two_way, (4, 4), 24, 460),
)


def enumerate_ladder(rng: random.Random, workdir: Path, tracer) -> list[Job]:
    """The ROADMAP ladder, each design with its rows and columns shuffled."""
    jobs = []
    for rung, make, args, systems, circuits in LADDER:
        with tracer.span("catalog"):
            design = make(*args)
        rows = _permuted(design.matrix.rows, rng)
        path = _write_matrix(workdir / f"{rung}.txt", rows)
        argv = ["randomise", path, "--enumerate", "--shapes", "--lattice"]
        jobs.append(Job(rung, argv, _systems_check(rows, systems, lattice=True), circuits))
    return jobs


def _multidigraph(rng: random.Random) -> tuple[int, list[tuple[int, int]], int]:
    """A balanced multi-digraph: an edge union of random directed 2-4-cycles.

    Drawn again until it has 3-4 vertices, all of them used, and 13-16
    edges.  Returns the vertex count, the edges and the number of cycle
    partitions (the systems the package should find).
    """
    while True:
        n_vertices = rng.choice((3, 4))
        target = rng.randint(13, 16)
        edges: list[tuple[int, int]] = []
        while len(edges) < target:
            length = rng.randint(2, min(4, n_vertices))
            cycle = rng.sample(range(n_vertices), length)
            edges += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
        if len(edges) <= 16 and len({v for e in edges for v in e}) == n_vertices:
            count = ref.count_exact_covers(len(edges), ref.directed_cycles(n_vertices, edges))
            return n_vertices, edges, count


def _cycle_partitions(n_vertices: int, edges: list[tuple[int, int]]) -> set[frozenset[frozenset[int]]]:
    covers = ref.exact_covers(len(edges), ref.directed_cycles(n_vertices, edges))
    return {
        frozenset(frozenset(i for i in range(len(edges)) if m >> i & 1) for m in cover)
        for cover in covers
    }


# Designs per band of system counts.  The refinement-edge pass costs the
# square of the system count, so drawing designs freely would make the work
# of a pass swing by about 30%, and a wide middle band moves the job-time
# median by 20% from run to run.  Each band holds one to three of the counts
# the generator draws most often (96; 200, 204 and 216; 432 and 456), so
# the bands fill after about a hundred draws and every pass does about the
# same work.
SYSTEM_BANDS = {(84, 97): 3, (200, 217): 4, (432, 457): 3}


def systems_multidigraph(rng: random.Random, workdir: Path, tracer) -> list[Job]:
    """Replicated paired comparisons: ten distinct balanced multi-digraphs."""
    jobs: list[Job] = []
    filled = Counter()
    seen = set()
    while len(jobs) < sum(SYSTEM_BANDS.values()):
        n_vertices, edges, count = _multidigraph(rng)
        band = next((b for b in SYSTEM_BANDS if b[0] <= count < b[1]), None)
        if band is None or filled[band] == SYSTEM_BANDS[band] or tuple(edges) in seen:
            continue
        filled[band] += 1
        seen.add(tuple(edges))
        with tracer.span("catalog"):
            design = design_catalog.digraph_design(DirectedGraph.from_edges(edges, n_vertices))
        rows = list(design.matrix.rows)
        path = _write_matrix(workdir / f"multi{len(jobs)}.txt", rows)
        reference = functools.cache(lambda n_vertices=n_vertices, edges=edges: _cycle_partitions(n_vertices, edges))
        check = _systems_check(rows, reference, lattice=False)
        jobs.append(Job(f"multi{len(jobs)}", ["randomise", path, "--enumerate", "--shapes"], check))
    return jobs


# --- circuits ------------------------------------------------------------------


def _circuits_check(rows: list[list[int]], supports: Callable[[], set[frozenset[int]]], unit: bool) -> Check:
    """Check a ``circuits`` report against the reference supports.

    Each vector must lie in the kernel, be primitive with its first nonzero
    entry positive, and (for an incidence matrix) have entries in {-1,0,1};
    the vectors must come sorted, and their supports must be exactly the
    reference supports.  A kernel vector whose support is a circuit support
    is that circuit up to scale, so this pins down every vector.
    """
    n_cols = len(rows[0])

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        vectors = [tuple(int(x) for x in line.split()) for line in lines[:-1]]
        if lines[-1] != f"circuits={len(vectors)}":
            return f"summary {lines[-1]!r} does not count {len(vectors)} vectors"
        if vectors != sorted(vectors):
            return "circuits are not sorted"
        for v in vectors:
            if len(v) != n_cols or any(sum(a * x for a, x in zip(row, v)) for row in rows):
                return f"{v} is not in the kernel"
            lead = next((x for x in v if x), 0)
            if lead <= 0 or gcd(*v) != 1 or (unit and any(abs(x) > 1 for x in v)):
                return f"{v} is not a primitive canonical circuit"
        found = [frozenset(i for i, x in enumerate(v) if x) for v in vectors]
        if len(set(found)) != len(found):
            return "a support is listed twice"
        expected = supports()
        if set(found) != expected:
            return f"{len(found)} circuits, reference has {len(expected)}"
        return None

    return _checked(check)


def _general_matrix(rng: random.Random) -> list[list[int]]:
    """A rank-5 5x13 matrix with entries in [-2, 2] and every 4 columns independent.

    Every circuit then has 5 or 6 elements, about 1,600 in all, so the two
    generic matrices of a pass cost about the same.
    """
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(13)] for _ in range(5)]
        cols = ref.columns(rows)
        if ref.rank(rows) == 5 and all(
            ref.rank([cols[j] for j in sub]) == 4 for sub in combinations(range(13), 4)
        ):
            return rows


def _oriented_graph(rng: random.Random) -> list[tuple[int, int]]:
    """A random orientation of a random simple graph on 7 vertices, 16-18 edges.

    Drawn again until it has 400-449 cycles: the basis costs about in
    proportion to the cycles, and at that size an incidence job costs about
    what a generic one does, so the four jobs of a pass are alike.
    """
    while True:
        pairs = rng.sample(list(combinations(range(7), 2)), rng.randint(16, 18))
        edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]
        if 400 <= len(ref.undirected_cycles(7, edges)) < 450:
            return edges


def basis_mixed(rng: random.Random, workdir: Path, tracer) -> list[Job]:
    """Full mixed-sign bases: two generic integer matrices, two incidence matrices."""
    jobs = []
    for k in range(2):
        rows = _general_matrix(rng)
        path = _write_matrix(workdir / f"general{k}.txt", rows)
        supports = functools.cache(lambda rows=rows: ref.circuit_supports(rows))
        jobs.append(Job(f"general{k}", ["circuits", path], _circuits_check(rows, supports, unit=False)))
        edges = _oriented_graph(rng)
        rows = [[(t == v) - (h == v) for t, h in edges] for v in range(7)]
        path = _write_matrix(workdir / f"incidence{k}.txt", rows)
        supports = functools.cache(lambda edges=edges: ref.undirected_cycles(7, edges))
        jobs.append(Job(f"incidence{k}", ["circuits", path], _circuits_check(rows, supports, unit=True)))
    return jobs


# --- randomise --check, analyse and tu ------------------------------------------


def _merge_some(blocks: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Join random neighbours; a union of orthogonal blocks stays orthogonal."""
    rng.shuffle(blocks)
    out: list[list[int]] = []
    for b in blocks:
        if out and len(out[-1]) < 8 and rng.random() < 0.3:
            out[-1] = out[-1] + b
        else:
            out.append(list(b))
    return out


def _fold_over(n: int, rng: random.Random) -> list[list[int]]:
    # In standard order run n-1-i is run i with every sign flipped.
    return _merge_some([[i, n - 1 - i] for i in range(n // 2)], rng)


def _latin_blocks(rng: random.Random, tracer) -> list[list[int]]:
    symbols, rows_, cols_ = (rng.sample(range(4), 4) for _ in range(3))
    cells = tuple(tuple(symbols[(rows_[i] + cols_[j]) % 4] for j in range(4)) for i in range(4))
    with tracer.span("catalog"):
        system = design_catalog.latin_square_blocks(design_catalog.LatinSquare(cells))
    return _merge_some([list(b) for b in system.blocks], rng)


def _choice_pairs(rng: random.Random, tracer) -> list[list[int]]:
    with tracer.span("catalog"):
        system = design_catalog.choice_complementary_pairs(3)
    return _merge_some([list(b) for b in system.blocks], rng)


def _random_partition(n: int, rng: random.Random) -> list[list[int]]:
    runs = list(range(n))
    rng.shuffle(runs)
    blocks = []
    while runs:
        size = rng.randint(2, 4)
        if size > len(runs) or len(runs) - size == 1:
            size = len(runs) if len(runs) <= 4 else 2
        blocks.append(runs[:size])
        runs = runs[size:]
    return blocks


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.strip().strip("()").split(", ") if tok]


def _analyse_check(rows, contrasts, blocks, y, gamma, valid: bool) -> Check:
    """Estimates and bias from the reference normal equations.

    Estimates are linear in y, so shifting y by Z gamma moves them by
    exactly the bias, and invariance holds exactly when the bias is zero.
    """
    n = len(rows)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        report = dict(line.split(": ", 1) for line in out.splitlines())
        basis = contrasts()
        shift = [sum((g for b, g in zip(blocks, gamma) if i in b), Fraction(0)) for i in range(n)]
        bias = ref.contrast_estimates(basis, shift)
        want = {
            "estimates": ref.contrast_estimates(basis, y),
            "bias": bias,
            "invariance": "violated" if any(bias) else "exact",
            "covariance": "equal" if ref.covariance_equal(basis, blocks, n) else "proper_dominates",
        }
        got = {
            "estimates": _fractions(report["estimates"]),
            "bias": _fractions(report["bias"]),
            "invariance": report["invariance"],
            "covariance": report["covariance"],
        }
        for key, value in want.items():
            if got[key] != value:
                return f"{key} {got[key]} differs from the reference {value}"
        if valid and (any(bias) or got["covariance"] != "equal"):
            return "a valid blocking shows bias or a covariance change"
        return None

    return _checked(check)


def _rational_text(values: Sequence[Fraction]) -> str:
    return "".join(f"{v}\n" for v in values)


BLOCKINGS_PER_KIND = 7


def verify_blockings(rng: random.Random, workdir: Path, tracer) -> list[Job]:
    """Check-then-analyse on many blockings of four designs, then a few tu jobs."""
    with tracer.span("catalog"):
        designs = {
            "f4": design_catalog.factorial_two_level(4),
            "f5": design_catalog.factorial_two_level(5),
            "a44": design_catalog.anova_two_way(4, 4),
            "ch3": design_catalog.choice_k_of_2k(3),
        }
    valid_maker = {
        "f4": lambda: _fold_over(16, rng),
        "f5": lambda: _fold_over(32, rng),
        "a44": lambda: _latin_blocks(rng, tracer),
        "ch3": lambda: _choice_pairs(rng, tracer),
    }
    jobs: list[Job] = []
    for name, design in designs.items():
        rows = list(design.matrix.rows)
        n = len(rows)
        path = _write_matrix(workdir / f"{name}.txt", rows)
        contrasts = functools.cache(lambda rows=rows: ref.contrast_basis(rows))
        for k in range(2 * BLOCKINGS_PER_KIND):
            blocks = valid_maker[name]() if k % 2 == 0 else _random_partition(n, rng)
            for b in blocks:
                rng.shuffle(b)
            valid = all(ref.block_is_orthogonal(rows, b) for b in blocks)
            y = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(n)]
            gamma = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in blocks]
            stem = workdir / f"{name}-{k}"
            blocks_text = "".join(" ".join(str(i + 1) for i in b) + "\n" for b in blocks)
            system = _write(stem.with_suffix(".blocks"), blocks_text)
            y_path = _write(stem.with_suffix(".y"), _rational_text(y))
            gamma_path = _write(stem.with_suffix(".gamma"), _rational_text(gamma))
            label = f"{name}/{k}/{'valid' if valid else 'invalid'}"
            verdict = _expect(0, "valid\n") if valid else _expect(4, "")
            check = ["randomise", path, "--check", system]
            jobs.append(Job(f"{label}/check", check, verdict, request=label))
            analyse = ["analyse", path, "--system", system, "--y", y_path, "--gamma", gamma_path]
            analysed = _analyse_check(rows, contrasts, blocks, y, gamma, valid)
            jobs.append(Job(f"{label}/analyse", analyse, analysed, request=label))
    jobs += _tu_jobs(rng, workdir)
    return jobs


def _tu_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    """Digraph incidence matrices are totally unimodular; an entry of 2 is not."""
    jobs = []
    for k in range(3):
        pairs = rng.sample([(t, h) for t in range(5) for h in range(5) if t != h], rng.randint(8, 10))
        rows = [[(t == v) - (h == v) for t, h in pairs] for v in range(5)]
        path = _write_matrix(workdir / f"tu-incidence{k}.txt", rows)
        jobs.append(Job(f"tu/incidence{k}", ["tu", path], _expect(0, "totally unimodular: yes\n")))
        rows = [[rng.randint(-1, 1) for _ in range(6)] for _ in range(4)]
        rows[rng.randrange(4)][rng.randrange(6)] = rng.choice((-2, 2))
        path = _write_matrix(workdir / f"tu-dense{k}.txt", rows)
        jobs.append(Job(f"tu/dense{k}", ["tu", path], _expect(0, "totally unimodular: no\n")))
    return jobs


def _expect(code: int, out: str) -> Check:
    def check(got_code: int, got_out: str) -> str | None:
        if (got_code, got_out) != (code, out):
            return f"exit {got_code}, output {got_out!r}; expected exit {code}, output {out!r}"
        return None

    return check


WORKLOADS = {
    "enumerate-ladder": enumerate_ladder,
    "systems-multidigraph": systems_multidigraph,
    "basis-mixed": basis_mixed,
    "verify-blockings": verify_blockings,
}
