from __future__ import annotations

import pytest

from circuitrand import (
    choice_k_of_2k,
    circuits,
    cli,
    digraph_design,
    enumerate_circuit_randomisations,
    factorial_two_level,
    to_contrast_form,
)
from circuitrand.unimodular import DirectedGraph

_ACCEPTANCE_LINES: list[str] = []

# Edge list for the five-vertex balanced digraph used throughout: the tail
# and head of each of the 15 edges, 1-based.
DIGRAPH_EDGES = [
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
    (3, 1), (4, 5), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3),
]


def digraph_five() -> DirectedGraph:
    return DirectedGraph.from_edges([(a - 1, b - 1) for a, b in DIGRAPH_EDGES], 5)


@pytest.fixture(autouse=True)
def fresh_model_memo():
    """Start each test with an empty design-text memo in ``cli``, so that
    what a test counts or sees does not depend on the tests before it."""
    cli._model_of_text.cache_clear()


@pytest.fixture
def count_steps(monkeypatch):
    """Count the circuit searches' steps that clear a nonzero entry.

    A step with ``q == 0`` only rescales its column, so it is not counted:
    the counted steps are those that reduce a column by a row.
    """
    calls = []
    step = circuits._step

    def counted(column, q, row, p, prev):
        if q:
            calls.append(None)
        return step(column, q, row, p, prev)

    monkeypatch.setattr(circuits, "_step", counted)
    return calls


@pytest.fixture(scope="session")
def model_2cubed():
    return to_contrast_form(factorial_two_level(3))


@pytest.fixture(scope="session")
def model_2fourth():
    return to_contrast_form(factorial_two_level(4))


@pytest.fixture(scope="session")
def model_choice():
    return to_contrast_form(choice_k_of_2k(2))


@pytest.fixture(scope="session")
def model_digraph():
    return to_contrast_form(digraph_design(digraph_five()))


@pytest.fixture(scope="session")
def catalog_2cubed(model_2cubed):
    return enumerate_circuit_randomisations(model_2cubed)


@pytest.fixture(scope="session")
def catalog_2fourth(model_2fourth):
    return enumerate_circuit_randomisations(model_2fourth)


@pytest.fixture(scope="session")
def catalog_choice(model_choice):
    return enumerate_circuit_randomisations(model_choice)


@pytest.fixture(scope="session")
def catalog_digraph(model_digraph):
    return enumerate_circuit_randomisations(model_digraph)


@pytest.fixture(scope="session")
def criterion_report():
    """Record and print one pass/fail line per acceptance criterion."""

    def _report(num: int, ok: bool, detail: str) -> bool:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
