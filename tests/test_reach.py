"""Every function and method of ``weylops`` is called by a shipped entry
point, or is listed in ALLOWED with the reason it stays.

The shipped entry points are the command line (``verify all`` and
``tables``, in both formats), ``validate_reordering`` and the demos.  A child
process sets a global ``sys.settrace`` hook before it imports ``weylops``, so
calls made at import time count; it runs each entry point in process and
prints the code objects of the package that ran.  This process has imported
``weylops`` already, hence the child.  The hook returns None, so it sees
only the entry into each frame, not its lines: about half the cost of a
``sys.setprofile`` hook, which also sees every return and builtin call.

The functions are found by compiling each module and walking its code
objects, without class bodies, module bodies, lambdas and comprehensions.
They are keyed by file and first line and named by ``ast``, as
``module.Class.method``.  To keep a function that no entry point calls, add
that name to ALLOWED with its reason; an entry that is reached, or that
names no function, fails the test too.
"""

import ast
import json
import subprocess
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylops"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ALLOWED = {
    "scalars.FlatTerms.__repr__": "debugging",
    "scalars.FlatTerms.__setattr__": "immutability: refuses every write",
    "scalars.FlatTerms.__hash__": "the __eq__/__hash__ contract: equal values hash alike",
    "scalars.CTerms._scalar_key": "the __eq__/__hash__ contract: FlatTerms.__hash__ reads it",
    "scalars.FlatTerms.__rsub__": "reflected operator of the number API: number - value",
    "weyl.nested_commutator": "pinned by the benchmark tracer's SPANNED table",
    "weyl.left_nested_commutator": "pinned by the benchmark tracer's SPANNED table",
    "suites._unpacked": "a failing binomial form's witness: no shipped run fails",
    "suites._digit": "splits a failing binomial record's fused sums and unpacks its witness: no shipped run fails",
}

# argv: the package directory, then the demos; prints [file, first line]
# of each code object of the package that ran
CHILD = """
import contextlib, io, json, os, runpy, sys

package, demos = sys.argv[1], sys.argv[2:]
seen = set()
sys.settrace(lambda frame, event, arg: seen.add(frame.f_code))
from weylops import validate_reordering
from weylops.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    for fmt in ("text", "json"):
        assert main(["verify", "all", "--max-n", "3", "--max-m", "3", "--max-l", "2", "--format", fmt]) == 0
        assert main(["tables", "--format", fmt]) == 0
    validate_reordering(2, 4)
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
sys.settrace(None)
inside = [code for code in seen if code.co_filename.startswith(package + os.sep)]
print(json.dumps([[os.path.relpath(code.co_filename, package), code.co_firstlineno] for code in inside]))
"""


def _names(tree: ast.Module, prefix: str) -> dict[int, str]:
    """{first line: dotted name} of each def, the first line being its first
    decorator's where it has one, as in the compiled code object."""
    names = {}

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{path}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    names[min([child.lineno, *(d.lineno for d in child.decorator_list)])] = name
                visit(child, name)
            else:
                visit(child, path)

    visit(tree, prefix)
    return names


def _functions() -> dict[tuple[str, int], str]:
    """{(file, first line): dotted name} of every function and method that
    the compiled modules of the package define."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source, rel = path.read_text(encoding="utf-8"), path.relative_to(PACKAGE).as_posix()
        names = _names(ast.parse(source), rel[:-3].replace("/", "."))
        stack = [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, CodeType)]
            if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<"):
                out[(rel, code.co_firstlineno)] = names[code.co_firstlineno]
    return out


def test_every_function_is_reached_or_allowed(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE), *map(str, DEMOS)],
        cwd=tmp_path, env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    functions = _functions()
    reached = {functions[key] for key in map(tuple, json.loads(proc.stdout)) if key in functions}
    unreached = set(functions.values()) - reached
    assert sorted(unreached - ALLOWED.keys()) == [], "no entry point calls these: call, delete or allow each"
    assert sorted(ALLOWED.keys() & reached) == [], "stale ALLOWED entries: an entry point calls these"
    assert sorted(ALLOWED.keys() - set(functions.values())) == [], "stale ALLOWED entries: no such function"
    assert all(reason.strip() for reason in ALLOWED.values())
