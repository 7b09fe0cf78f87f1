"""Acceptance gate: one test per numbered criterion.

Each test prints a single pass/fail line with the measured values next to
the required ones (collected again in the terminal summary).  Everything is
checked in exact arithmetic; the only tolerances are wall-clock budgets.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from circuitrand import cli
from circuitrand.analysis_sim import (
    CovarianceOrdering,
    block_shift_invariance,
    covariance_comparison,
    naive_block_bias,
)
from circuitrand.circuits import binary_circuits, circuit_basis, nonnegative_circuits
from circuitrand.contrast import to_contrast_form
from circuitrand.design_catalog import (
    anova_two_way,
    choice_complementary_pairs,
    choice_k_of_2k,
    digraph_design,
    factorial_two_level,
    latin_square_blocks,
    mols_order3,
)
from circuitrand.exact_linalg import IntMatrix, rank
from circuitrand.randomisation import (
    enumerate_circuit_randomisations,
    is_valid_randomisation,
    refines,
)
from circuitrand.unimodular import DirectedGraph, incidence_matrix, is_totally_unimodular

import oracles
from conftest import DIGRAPH_EDGES, digraph_five

PRINTED_NONNEG_2CUBED = (
    (0, 0, 0, 1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, 1, 0),
    (0, 1, 1, 0, 1, 0, 0, 1),
    (1, 0, 0, 0, 0, 0, 0, 1),
    (1, 0, 0, 1, 0, 1, 1, 0),
)

FIGURE_FIVE_PARTITIONS = [
    {frozenset(b) for b in part}
    for part in (
        ({6, 7, 9, 12}, {5, 8, 10, 11}, {2, 3, 13, 16}, {1, 4, 14, 15}),
        ({6, 7, 9, 12}, {4, 5, 11, 14}, {2, 3, 13, 16}, {1, 8, 10, 15}),
        ({6, 7, 9, 12}, {4, 5, 10, 15}, {2, 3, 13, 16}, {1, 8, 11, 14}),
        ({6, 7, 9, 12}, {3, 8, 10, 13}, {2, 5, 11, 16}, {1, 4, 14, 15}),
        ({6, 7, 9, 12}, {3, 5, 10, 16}, {2, 8, 11, 13}, {1, 4, 14, 15}),
    )
]

REQUIRED_DIGRAPH_SHAPES = {
    (5, 5, 5): 1,
    (5, 5, 3, 2): 5,
    (5, 3, 3, 2, 2): 5,
    (5, 2, 2, 2, 2, 2): 1,
    (4, 4, 3, 2, 2): 10,
    (4, 3, 2, 2, 2, 2): 5,
    (3, 3, 3, 2, 2, 2): 5,
}


def blocks_1based(system):
    return {frozenset(i + 1 for i in b) for b in system.blocks}


def test_criterion_01_two_cubed_circuits(criterion_report):
    model = to_contrast_form(factorial_two_level(3))
    start = time.perf_counter()
    basis = circuit_basis(model.contrast.transpose())
    nn = nonnegative_circuits(basis)
    elapsed = time.perf_counter() - start
    rows = tuple(c.vector for c in nn)
    ok = (
        len(basis) == 20
        and len(nn) == 6
        and rows == PRINTED_NONNEG_2CUBED
        and elapsed < 1.0
    )
    assert criterion_report(
        1,
        ok,
        f"circuits={len(basis)} (required 20), nonnegative={len(nn)} (required 6), "
        f"printed 6x8 rows {'match' if rows == PRINTED_NONNEG_2CUBED else 'differ'}, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_02_two_cubed_schemes(criterion_report):
    start = time.perf_counter()
    model = to_contrast_form(factorial_two_level(3))
    catalog = enumerate_circuit_randomisations(model)
    elapsed = time.perf_counter() - start
    got = [blocks_1based(s) for s in catalog.systems]
    required = [
        {frozenset({1, 4, 6, 7}), frozenset({2, 3, 5, 8})},
        {frozenset({1, 8}), frozenset({2, 7}), frozenset({3, 6}), frozenset({4, 5})},
    ]
    ok = got == required and elapsed < 1.0
    assert criterion_report(
        2,
        ok,
        f"systems={[sorted(map(sorted, s)) for s in got]} equal to the two required schemes: "
        f"{got == required}, {elapsed:.3f}s < 1s",
    )


def test_criterion_03_two_fourth_counts(criterion_report):
    start = time.perf_counter()
    model = to_contrast_form(factorial_two_level(4))
    basis = circuit_basis(model.contrast.transpose())
    nn = nonnegative_circuits(basis)
    binary = binary_circuits(basis)
    catalog = enumerate_circuit_randomisations(model)
    elapsed = time.perf_counter() - start
    sup2 = sum(1 for c in binary if len(c.support) == 2)
    sup4 = sum(1 for c in binary if len(c.support) == 4)
    two_block_systems = [s for s in catalog.systems if s.shape == (2,) * 8]
    four_block_systems = [s for s in catalog.systems if s.shape == (4, 4, 4, 4)]
    target = frozenset({6, 7, 9, 12})
    with_target = [s for s in four_block_systems if target in blocks_1based(s)]
    figure_match = (
        len(with_target) == 5
        and all(blocks_1based(s) in FIGURE_FIVE_PARTITIONS for s in with_target)
    )
    ok = (
        len(basis) == 456
        and len(nn) == 48
        and len(binary) == 32
        and (sup2, sup4) == (8, 24)
        and len(two_block_systems) == 1
        and len(four_block_systems) == 30
        and figure_match
        and elapsed < 30.0
    )
    assert criterion_report(
        3,
        ok,
        f"circuits={len(basis)} (required 456), nonnegative={len(nn)} (required 48), "
        f"binary={len(binary)} (required 32: {sup2} of support 2, {sup4} of support 4), "
        f"2-block systems={len(two_block_systems)} (required 1), "
        f"4-block systems={len(four_block_systems)} (required 30), "
        f"systems of 4-blocks containing {{6,7,9,12}}={len(with_target)} (required 5, "
        f"matching the five printed partitions: {figure_match}), {elapsed:.2f}s < 30s",
    )


def test_criterion_04_choice_design(criterion_report):
    start = time.perf_counter()
    model = to_contrast_form(choice_k_of_2k(2))
    basis = circuit_basis(model.contrast.transpose())
    supports = {frozenset(i + 1 for i in c.support) for c in basis.circuits}
    system = choice_complementary_pairs(2)
    valid = is_valid_randomisation(model, system)
    elapsed = time.perf_counter() - start
    required = {frozenset({1, 6}), frozenset({2, 5}), frozenset({3, 4})}
    ok = len(basis) == 3 and supports == required and valid and elapsed < 1.0
    assert criterion_report(
        4,
        ok,
        f"circuits={len(basis)} (required 3), supports={sorted(map(sorted, supports))} "
        f"(required {{1,6}},{{2,5}},{{3,4}}), complementary pairs valid={valid}, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_05_digraph_example(criterion_report):
    start = time.perf_counter()
    model = to_contrast_form(digraph_design(digraph_five()))
    basis = circuit_basis(model.contrast.transpose())
    nn = nonnegative_circuits(basis)
    catalog = enumerate_circuit_randomisations(model)
    elapsed = time.perf_counter() - start
    profile = tuple(sum(1 for c in nn if len(c.support) == k) for k in (2, 3, 4, 5))
    shapes = {shape: n for shape, n in catalog.shape_counts.items()}
    s555 = [s for s in catalog.systems if s.shape == (5, 5, 5)]
    s52 = [s for s in catalog.systems if s.shape == (5, 2, 2, 2, 2, 2)]
    shared = (
        blocks_1based(s555[0]) & blocks_1based(s52[0])
        if len(s555) == 1 and len(s52) == 1
        else set()
    )
    counts_ok = len(basis) == 198 and len(nn) == 33 and profile == (5, 10, 10, 8)
    shared_ok = len(shared) == 1
    table_ok = len(catalog.systems) == 32 and shapes == REQUIRED_DIGRAPH_SHAPES
    required_subset_counts = {
        shape: n for shape, n in shapes.items() if shape in REQUIRED_DIGRAPH_SHAPES
    }
    extra = {shape: n for shape, n in shapes.items() if shape not in REQUIRED_DIGRAPH_SHAPES}
    ok = counts_ok and shared_ok and table_ok and elapsed < 60.0
    assert criterion_report(
        5,
        ok,
        f"circuits={len(basis)} (required 198), nonnegative={len(nn)} (required 33), "
        f"size profile={profile} (required (5, 10, 10, 8)), "
        f"555 and 522222 share {len(shared)} 5-block (required 1); "
        f"systems={len(catalog.systems)} (required 32), "
        f"required seven shape classes counted "
        f"{'exactly as required' if required_subset_counts == REQUIRED_DIGRAPH_SHAPES else required_subset_counts}, "
        f"but the enumeration also finds {extra or 'no'} further exact covers, "
        f"so the required total and table do not hold; {elapsed:.2f}s < 60s",
    )


def test_digraph_systems_outside_the_paper_table_are_cycle_decompositions():
    """Certify the 25 digraph systems that criterion 5 counts beyond the paper.

    Each one is checked from its definition: every block is a simple directed
    cycle of the digraph, the blocks partition the 15 edges, and every block
    is orthogonal to the contrasts.
    """
    model = to_contrast_form(digraph_design(digraph_five()))
    catalog = enumerate_circuit_randomisations(model)
    # each exact cover is emitted once, so no system repeats
    assert len(set(catalog.systems)) == len(catalog.systems) == 57
    extra = [s for s in catalog.systems if s.shape not in REQUIRED_DIGRAPH_SHAPES]
    assert Counter(s.shape for s in extra) == {(5, 4, 3, 3): 15, (4, 3, 3, 3, 2): 10}
    columns = model.contrast.columns()
    for system in extra:
        assert sorted(i for b in system.blocks for i in b) == list(range(len(DIGRAPH_EDGES)))
        for block in system.blocks:
            assert oracles.is_simple_directed_cycle([DIGRAPH_EDGES[i] for i in block])
            assert all(sum(col[i] for i in block) == 0 for col in columns)


def test_criterion_06_tu_properties(criterion_report):
    budget = 30.0
    start = time.perf_counter()
    inc = incidence_matrix(digraph_five())
    tu = is_totally_unimodular(inc)
    model = to_contrast_form(digraph_design(digraph_five()))
    basis = circuit_basis(model.contrast.transpose())
    entries = {x for c in basis.circuits for x in c.vector}
    entries_ok = entries <= {-1, 0, 1}
    catalog = enumerate_circuit_randomisations(model)

    contrast_rows = [list(c) for c in model.contrast.columns()]
    kernel = oracles.binary_kernel_supports(contrast_rows, 15)
    minimal = oracles.minimal_supports(kernel)
    package_supports = {
        frozenset(c.support) for c in binary_circuits(basis)
    }
    minimal_ok = minimal == package_supports
    covers = oracles.exact_covers_naive(15, sorted(minimal, key=sorted))
    catalog_sets = {frozenset(frozenset(b) for b in s.blocks) for s in catalog.systems}
    covers_ok = set(covers) == catalog_sets

    rng = random.Random(20260815)
    random_ok = True
    for _ in range(3):
        edges = oracles.random_balanced_digraph(rng)
        g = DirectedGraph.from_edges(edges, 1 + max(v for e in edges for v in e))
        m = to_contrast_form(digraph_design(g))
        cat = enumerate_circuit_randomisations(m)
        cat_sets = {frozenset(frozenset(b) for b in s.blocks) for s in cat.systems}
        rows = [list(c) for c in m.contrast.columns()]
        n = g.n_edges
        kern = oracles.binary_kernel_supports(rows, n)
        minim = oracles.minimal_supports(kern)
        brute_minimal = set()
        brute_valid = []
        for part in oracles.set_partitions(range(n)):
            blocks = [frozenset(b) for b in part]
            if len(blocks) < 2 or any(len(b) < 2 for b in blocks):
                continue
            if not all(b in kern for b in blocks):
                continue
            brute_valid.append(frozenset(blocks))
            if all(b in minim for b in blocks):
                brute_minimal.add(frozenset(blocks))
        if brute_minimal != cat_sets:
            random_ok = False
        refined = all(
            any(
                all(any(cb <= vb for vb in valid_blocks) for cb in cat_blocks)
                for cat_blocks in cat_sets
            )
            for valid_blocks in brute_valid
        )
        if not refined:
            random_ok = False
    elapsed = time.perf_counter() - start
    ok = tu and entries_ok and minimal_ok and covers_ok and random_ok and elapsed < budget
    assert criterion_report(
        6,
        ok,
        f"incidence TU={tu} (required yes), circuit entries={sorted(entries)} "
        f"(required within -1..1), scan found {len(kernel)} binary kernel vectors with "
        f"{len(minimal)} minimal supports equal to the package binary circuits: {minimal_ok}, "
        f"exact covers from the scan equal the catalog ({len(covers)} vs {len(catalog_sets)}): "
        f"{covers_ok}, random balanced digraphs agree: {random_ok}, "
        f"{elapsed:.2f}s < {budget:.0f}s declared budget",
    )


def test_criterion_07_circuit_oracle(criterion_report):
    rng = random.Random(12345)
    start = time.perf_counter()
    matrices_ok = True
    compat_ok = True
    for _ in range(200):
        n_rows = rng.randint(1, 3)
        n_cols = rng.randint(1, 7)
        rows = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        m = IntMatrix.from_rows(rows, n_cols=n_cols)
        basis = circuit_basis(m)
        if sorted(c.vector for c in basis.circuits) != oracles.brute_circuit_vectors(rows, n_cols):
            matrices_ok = False
        full_vectors = [c.vector for c in basis.circuits]
        for size in (4, 5):
            if n_cols < size:
                continue
            for sel in itertools.combinations(range(n_cols), size):
                sub = IntMatrix.from_rows([[row[j] for j in sel] for row in rows])
                sub_basis = circuit_basis(sub)
                restricted = sorted(
                    tuple(v[j] for j in sel)
                    for v in full_vectors
                    if all(v[j] == 0 for j in range(n_cols) if j not in sel)
                )
                if sorted(c.vector for c in sub_basis.circuits) != restricted:
                    compat_ok = False
    elapsed = time.perf_counter() - start
    ok = matrices_ok and compat_ok
    assert criterion_report(
        7,
        ok,
        f"200 random matrices match the subset-nullity oracle: {matrices_ok}, "
        f"restriction compatibility on all 4- and 5-column subsets: {compat_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_analysis_identities(
    criterion_report, model_2cubed, catalog_2cubed, model_choice, catalog_choice,
    model_digraph, catalog_digraph,
):
    rng = random.Random(777)
    start = time.perf_counter()
    invariant_ok = True
    pair_count = 0
    for model, catalog in (
        (model_2cubed, catalog_2cubed),
        (model_choice, catalog_choice),
        (model_digraph, catalog_digraph),
    ):
        n = model.n_runs
        for system in catalog.systems:
            pair_count += 1
            for _ in range(100):
                y = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
                gamma = [
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in system.blocks
                ]
                if not block_shift_invariance(model, system, y, gamma):
                    invariant_ok = False

    blocks = [[0, 1, 2, 3]]
    bias_ok = True
    for _ in range(100):
        g = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if naive_block_bias(model_2cubed, blocks, [g]) != (g / 2, Fraction(0), Fraction(0)):
            bias_ok = False
    ordering = covariance_comparison(model_2cubed, blocks)
    ordering_ok = ordering == CovarianceOrdering.PROPER_DOMINATES
    elapsed = time.perf_counter() - start
    ok = invariant_ok and bias_ok and ordering_ok
    assert criterion_report(
        8,
        ok,
        f"block-shift invariance exact on {pair_count} (model, system) pairs x 100 random "
        f"(y, gamma): {invariant_ok}, bias on the {{1,2,3,4}} block equals (gamma/2, 0, 0) "
        f"for 100 random gamma: {bias_ok}, covariance ordering={ordering.value} "
        f"(required proper_dominates), {elapsed:.1f}s",
    )


def test_criterion_09_latin_squares(criterion_report):
    start = time.perf_counter()
    model = to_contrast_form(anova_two_way(3, 3))
    l1, l2 = mols_order3()
    b1 = latin_square_blocks(l1)
    b2 = latin_square_blocks(l2)
    got1 = blocks_1based(b1)
    got2 = blocks_1based(b2)
    req1 = {frozenset({1, 5, 9}), frozenset({2, 6, 7}), frozenset({3, 4, 8})}
    req2 = {frozenset({1, 6, 8}), frozenset({2, 4, 9}), frozenset({3, 5, 7})}
    valid = is_valid_randomisation(model, b1) and is_valid_randomisation(model, b2)
    elapsed = time.perf_counter() - start
    ok = got1 == req1 and got2 == req2 and valid and elapsed < 1.0
    assert criterion_report(
        9,
        ok,
        f"square 1 blocks={sorted(map(sorted, got1))} (required {{1,5,9}},{{2,6,7}},{{3,4,8}}), "
        f"square 2 blocks={sorted(map(sorted, got2))} (required {{1,6,8}},{{2,4,9}},{{3,5,7}}), "
        f"both valid={valid}, {elapsed:.3f}s < 1s",
    )


def test_criterion_10_determinism(criterion_report, tmp_path, capsys):
    design = tmp_path / "design.txt"
    assert cli.main(["catalog", "factorial", "--k", "3", "-o", str(design)]) == 0
    contrast = tmp_path / "x1t.txt"
    contrast.write_text(
        "3 8\n1 1 1 1 -1 -1 -1 -1\n1 1 -1 -1 1 1 -1 -1\n1 -1 1 -1 1 -1 1 -1\n"
    )
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{a} {b}\n" for a, b in DIGRAPH_EDGES))
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("1 8\n2 7\n3 6\n4 5\n")
    y = tmp_path / "y.txt"
    y.write_text("".join(f"{i}\n" for i in range(1, 9)))
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("1\n-2\n1/3\n4\n")
    capsys.readouterr()

    commands = [
        ["catalog", "factorial", "--k", "3"],
        ["catalog", "anova2", "--I", "3", "--J", "3"],
        ["catalog", "choice", "--k", "2"],
        ["catalog", "digraph", "--edges", str(edges)],
        ["circuits", str(contrast), "--nonnegative", "--binary"],
        ["circuits", str(contrast), "--format", "records"],
        ["randomise", str(design), "--enumerate", "--shapes", "--lattice"],
        ["randomise", str(design), "--enumerate", "--format", "records"],
        ["randomise", str(design), "--check", str(blocks)],
        ["tu", str(contrast)],
        ["analyse", str(design), "--system", str(blocks), "--y", str(y), "--gamma", str(gamma)],
        ["analyse", str(design), "--system", str(blocks), "--y", str(y),
         "--gamma", str(gamma), "--format", "records"],
        ["analyse", "--simulate", "--n1", "4", "--n2", "4", "--sd", "1",
         "--replications", "100", "--seed", "42"],
    ]

    def run_all():
        outputs = []
        for argv in commands:
            code = cli.main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out.encode(), captured.err.encode()))
        return outputs

    first = run_all()
    second = run_all()
    repeat_ok = first == second
    codes_ok = all(code == 0 for code, _, _ in first)
    # no setting outside the command line can change an output
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    readers = [
        m.name for m in modules if re.search(r"\b(?:environb?|getenv)\b", m.read_text())
    ]
    ok = repeat_ok and codes_ok and not readers
    assert criterion_report(
        10,
        ok,
        f"{len(commands)} commands byte-identical across two runs: {repeat_ok}, "
        f"modules of the {len(modules)} that read the environment: "
        f"{', '.join(readers) or 'none'} (required none)",
    )


def test_records_and_human_share_numbers(tmp_path, capsys):
    """The machine-readable output carries the same numeric content."""
    design = tmp_path / "design.txt"
    assert cli.main(["catalog", "factorial", "--k", "3", "-o", str(design)]) == 0
    capsys.readouterr()
    assert cli.main(["randomise", str(design), "--enumerate", "--format", "records"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert cli.main(["randomise", str(design), "--enumerate"]) == 0
    human = capsys.readouterr().out
    for system in data["systems"]:
        for block in system:
            assert "{" + ",".join(str(i) for i in block) + "}" in human
