"""The package names that the benchmark's tracer patches still exist.

``bench/worker.py`` wraps package functions by name to time them; a name
that a refactor drops would crash every traced benchmark pass.  This test
reads that file's syntax tree (it never imports or runs it) and checks each
``tracer.patch(<module>, "<name>", ...)`` call whose name is a literal.
"""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


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
