"""Every name the package exports has a caller outside the tests.

A caller is a name that is read (an assignment is no caller of the name it
binds) or an attribute reference, parsed with ``ast``, in a
``weylops`` module other than ``__init__.py``, a demo or a benchmark file
(``perfbench/`` without its tests), or a string entry of the tracer's
``SPANNED`` table, which wraps the named function by its dotted path.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylops"


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _caller_files() -> list[Path]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    bench = ROOT / "perfbench"
    files += [p for p in sorted(bench.rglob("*.py")) if "tests" not in p.relative_to(bench).parts]
    return files


def _referenced(tree: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANNED" for t in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    out.update(const.value.split("."))
    return out


def test_every_export_has_a_caller_outside_the_tests():
    exports, files = _exports(), _caller_files()
    # the scan itself must see the package, the demos and the benchmark
    assert {"run_suite", "WeylElement", "validate_reordering", "reports_to_json"} <= exports
    assert {"suites.py", "weight_tables.py", "tracing.py"} <= {p.name for p in files}
    referenced = set()
    for path in files:
        referenced |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(exports - referenced) == []
