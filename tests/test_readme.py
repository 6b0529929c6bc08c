"""README stays true: its examples run, its commands parse, and its lists
name what the tree holds.

The ```python blocks run in order in one namespace, as a reader pastes them.
Every ``weylops …`` line of the Command line block is parsed by the CLI's
own parser.  The Demos list names exactly the scripts in ``demos/``.  The
Design map has one paragraph per module of the package, each led by the
module's name in bold (``__main__`` aside: it only calls ``cli.main``), and
each of those modules has a docstring, since that is where its design lives.
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from weylops import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGE = ROOT / "src" / "weylops"


def _section(title: str) -> str:
    """The body of README's ``## title`` section, up to the next ``## `` heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_python_examples_run_in_order():
    blocks = _blocks(README, "python")
    assert blocks
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)


def test_command_lines_parse():
    lines = [line.split("#")[0] for block in _blocks(_section("Command line"), "bash") for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("weylops ")]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: weylops {shlex.join(argv)}")


def test_demo_list_names_every_demo():
    listed = re.findall(r"^- `(\w+\.py)`", _section("Demos"), re.M)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_design_map_names_every_module_and_each_has_a_docstring():
    named = re.findall(r"^- \*\*`(\w+)`\*\*", _section("Design map"), re.M)
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")
    assert sorted(named) == modules
    for name in modules:
        assert ast.get_docstring(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))), name
