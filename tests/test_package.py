"""The package surface: the names ``circuitrand`` exports and its version."""

from pathlib import Path

import pytest

import circuitrand

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves_once():
    names = circuitrand.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(circuitrand, name)] == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with PYPROJECT.open("rb") as file:
        project = tomllib.load(file)["project"]
    assert circuitrand.__version__ == project["version"]
