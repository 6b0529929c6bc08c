"""Every shipped demo runs to completion at its real bounds."""

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
    child_env.pop("WEYLOPS_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
