"""The package's source is exact: no binary floating point anywhere in `src/toricstab`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricstab"
EXACT_MATH = {"gcd", "lcm", "comb", "prod", "factorial", "isqrt", "ceil"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_source_has_no_float(path):
    """No float literal, no `float` name, `math` imported whole and used only
    for its integer functions."""
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    floats = [n.lineno for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, float)]
    names = [n.lineno for n in nodes if isinstance(n, ast.Name) and n.id == "float"]
    from_math = [n.lineno for n in nodes if isinstance(n, ast.ImportFrom) and n.module == "math"]
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "math"}
    assert (floats, names, from_math, attrs - EXACT_MATH) == ([], [], [], set())
