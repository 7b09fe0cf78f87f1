"""The exact core stays exact and stdlib-only.

Every number the core computes is an int or a Fraction, so its answers are
exact and byte-reproducible on every platform.  These tests read the source
of the core modules and reject anything that would bring floating point in:
the name ``float``, a float literal, true division ``/``, or a call into
``math`` other than its integer functions.  They also reject imports from
outside the standard library and the package, in every module.  Only the
Monte Carlo part of ``analysis_sim`` (``simulate_ab`` and its helpers) and
``cli`` (its ``--simulate`` options) use floats; the rest of
``analysis_sim`` is checked for floats with those definitions left out, and
``cli`` only for its imports.
"""

import ast
import sys
from pathlib import Path

import pytest

import circuitrand

PACKAGE = Path(circuitrand.__file__).parent
CORE = ["exact_linalg", "circuits", "randomisation", "contrast", "unimodular", "design_catalog"]
# the float-using Monte Carlo definitions of analysis_sim
MONTE_CARLO = {"simulate_ab", "_substream", "AbSummary"}
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_uses(tree: ast.AST) -> list[str]:
    """Describe each use of floating point in a module's syntax tree."""
    from_math = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names
        if alias.name not in INTEGER_MATH
    }
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {line}: the name float")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {line}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {line}: true division")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and func.attr not in INTEGER_MATH
            ) or (isinstance(func, ast.Name) and func.id in from_math):
                found.append(f"line {line}: call to {ast.unparse(func)}")
    return found


def foreign_imports(tree: ast.AST) -> list[str]:
    """Top-level modules imported from outside the standard library and the package."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    roots = {name.split(".")[0] for name in names}
    return sorted(roots - set(sys.stdlib_module_names) - {"circuitrand"})


@pytest.mark.parametrize("module", CORE)
def test_core_module_is_exact_and_stdlib_only(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert float_uses(tree) == []
    assert foreign_imports(tree) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_module_is_stdlib_only(path):
    assert foreign_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_exact_linalg_is_integer_only():
    """The elimination core computes with ints alone, so it imports no fractions."""
    path = PACKAGE / "exact_linalg.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert "fractions" not in modules


def test_exact_half_of_analysis_sim_is_exact_and_stdlib_only():
    path = PACKAGE / "analysis_sim.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    definitions = (ast.FunctionDef, ast.ClassDef)
    names = {node.name for node in tree.body if isinstance(node, definitions)}
    assert MONTE_CARLO <= names
    tree.body = [
        node
        for node in tree.body
        if not (isinstance(node, definitions) and node.name in MONTE_CARLO)
    ]
    assert float_uses(tree) == []
    assert foreign_imports(tree) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = float(1)",
        "x = 0.5",
        "x = 1 / 2",
        "x = 1\nx /= 2",
        "import math\nx = math.sqrt(2)",
        "from math import sqrt as root\nx = root(2)",
    ],
)
def test_float_checker_flags(source):
    assert float_uses(ast.parse(source))


def test_float_checker_allows_exact_code():
    source = "import math\nfrom math import gcd, prod\nx = gcd(4, 6) * prod([2]) // math.comb(4, 2)"
    assert float_uses(ast.parse(source)) == []
    assert foreign_imports(ast.parse("import numpy\nfrom .x import y\nimport fractions")) == ["numpy"]
