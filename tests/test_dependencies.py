"""The package needs nothing beyond the standard library.

numpy is a test-only float reference (the ``test`` extra of
``pyproject.toml``); no module under ``src/weylops`` may import it, at the
top or inside a function.  Nor may one import ``dataclasses``: it would
load inspect, ast, dis and tokenize at every start-up.  ``tests/test_cli.py``
checks both at run time, after a whole ``verify all``.

The two realizations decide by exact equality, so neither reaches for float
math: ``oscillator.py`` and ``realization.py`` import no ``cmath`` and
neither ``sqrt`` nor ``isfinite`` from ``math``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weylops"


def _imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


FORBIDDEN = ("numpy", "dataclasses")


def test_no_module_imports_a_forbidden_root():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"oscillator.py", "report.py", "suites.py", "__init__.py"} <= {p.name for p in modules}
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in modules}
    for root in FORBIDDEN:
        assert [name for name, tree in trees.items() if root in _imported_roots(tree)] == [], root


def test_the_guard_sees_both_import_forms():
    for source in ("import numpy as np", "from numpy import ndarray", "def f():\n    import numpy.linalg"):
        assert "numpy" in _imported_roots(ast.parse(source))
    assert "numpy" not in _imported_roots(ast.parse("from . import oscillator"))


FLOAT_MATH = frozenset(("sqrt", "isfinite"))


def _float_math(tree: ast.AST) -> set[str]:
    """cmath, and the names of FLOAT_MATH a module takes from math."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update("cmath" for alias in node.names if alias.name == "cmath")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "cmath":
                found.add("cmath")
            elif node.module == "math":
                found.update({alias.name for alias in node.names} & FLOAT_MATH)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math":
            found.update({node.attr} & FLOAT_MATH)
    return found


def test_the_realizations_use_no_float_math():
    for name in ("oscillator.py", "realization.py"):
        assert _float_math(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))) == set(), name


def test_the_float_math_guard_sees_every_form():
    for source, found in (
        ("from math import comb, sqrt", "sqrt"),
        ("from math import isfinite", "isfinite"),
        ("import math\nmath.sqrt(2)", "sqrt"),
        ("import cmath", "cmath"),
        ("from cmath import phase", "cmath"),
    ):
        assert _float_math(ast.parse(source)) == {found}
    assert _float_math(ast.parse("from math import comb, perm")) == set()
