"""Every shipped demo runs to completion at its real bounds, fails when a
claim it prints is false, and reads only public names of the package.

The demos run in process through ``runpy``.  Under one gate of
``test_mutation.py`` each must stop with an ``AssertionError`` or a nonzero
``SystemExit``: the reordering rule without its k = 1 term wherever the demo
reads the engine, and for the closure demo sums in which i^2 = +1, since it
passes under every wrong reordering rule.
"""

import ast
import runpy
from pathlib import Path

import pytest

from test_mutation import VARIANTS, _i_squared_is_plus_one
from weylops import weyl
from weylops.scalars import FlatTerms

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

DROPPED_K1 = (weyl, "contraction_weights", VARIANTS["dropped-k1"])
GATES = {  # demo -> the patch (owner, name, wrong) under which it must fail
    "conjugation_closure": (FlatTerms, "_accumulate", classmethod(_i_squared_is_plus_one)),
    "differential_oracle": DROPPED_K1,
    "matrix_realization": DROPPED_K1,
    "symmetrized_powers": DROPPED_K1,
    "weight_tables": DROPPED_K1,
    "weighted_expansions": DROPPED_K1,
}


def test_all_demos_are_collected():
    assert [demo.stem for demo in DEMOS] == sorted(GATES)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    runpy.run_path(str(demo), run_name="__main__")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_fails_under_a_broken_engine(demo, monkeypatch):
    monkeypatch.setattr(*GATES[demo.stem])
    with pytest.raises((AssertionError, SystemExit)) as info:
        runpy.run_path(str(demo), run_name="__main__")
    if info.type is SystemExit:
        assert info.value.code not in (0, None)


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
