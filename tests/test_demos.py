"""Every shipped demo runs to completion at its real bounds, and reads only
public names of the package."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_reads_no_private_name(demo):
    # a demo shows the public API: no attribute or imported name with a leading underscore
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and _private(node.attr)]
    private += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if _private(alias.name)]
    assert private == []
