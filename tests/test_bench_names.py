"""The package names that the benchmark reads still exist.

``bench/worker.py`` wraps package functions by name to time them, and
``bench/workloads.py`` builds its designs and blockings from
``design_catalog``; a name that a refactor drops would crash every
benchmark pass.  These tests read the two files' syntax trees (they never
import or run them) and check each ``tracer.patch(<module>, "<name>", ...)``
call whose name is a literal, and each ``design_catalog.<name>`` attribute.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKER = BENCH / "worker.py"
WORKLOADS = BENCH / "workloads.py"


def patched_names() -> list[tuple[str, str]]:
    names = []
    for node in ast.walk(ast.parse(WORKER.read_text(), str(WORKER))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.append((node.args[0].id, node.args[1].value))
    return names


def test_every_traced_name_exists():
    names = patched_names()
    assert ("cli", "is_totally_unimodular") in names
    assert ("randomisation", "circuit_basis") in names
    assert len(names) >= 12
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"circuitrand.{module}"), attr)
    ]
    assert missing == []


def test_every_catalog_name_in_the_workloads_exists():
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "design_catalog"
    }
    assert {"latin_square_blocks", "choice_complementary_pairs", "LatinSquare"} <= names
    catalog = importlib.import_module("circuitrand.design_catalog")
    assert sorted(name for name in names if not hasattr(catalog, name)) == []


def called_names(module: str) -> set[str]:
    """The bare names called inside the function bodies of ``circuitrand.<module>``."""
    path = Path(importlib.import_module(f"circuitrand.{module}").__file__)
    return {
        node.func.id
        for function in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_traced_name_is_called_by_name():
    """A traced name the module only imports, or calls some other way, would
    let a refactor route around its span and leave the layer reading zero."""
    names = patched_names()
    assert ("cli", "covariance_comparison") in names
    uncalled = [
        f"{module}.{attr}"
        for module, attr in names
        # kept importable only for the tracer; the module calls binary_circuit_vectors
        if (module, attr) != ("randomisation", "circuit_basis")
        and attr not in called_names(module)
    ]
    assert uncalled == []
