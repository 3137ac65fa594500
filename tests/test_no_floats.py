"""The package computes exactly: no float literal, no `float(...)` call and
no floating-point `math` function appears anywhere in its source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "narayana").glob("*.py"))
FLOAT_MATH = {"sqrt", "exp", "log", "pow", "fsum"}


def float_uses(source: str) -> list:
    """(line, what) for every float literal, float() call and float math function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exact_core.py", "identities.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text()) == []


def test_scanner_catches_each_kind():
    planted = "x = 1.5\ny = float(2)\nz = math.sqrt(4)\nfrom math import fsum\nw = 2j\n"
    assert sorted(line for line, _ in float_uses(planted)) == [1, 2, 3, 4, 5]
