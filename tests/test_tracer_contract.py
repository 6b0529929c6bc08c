"""The benchmark tracer finds every name it wraps.

``perfbench/tracing.py`` wraps a method through its class's own ``__dict__``
and a function through its module, and reports a name it cannot find as an
absent metric instead of failing.  So a refactor that moves a traced method
into a base class, or renames a traced function, would pass unnoticed; this
test reads the tracer's SPANNED and COUNTED tables and fails instead.  A
second test checks that leaving a tracer block restores every weylops
module's namespace exactly, with no attribute added.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _tables() -> list[tuple[str, str, str]]:
    tracing = _tracing()
    return [*tracing.SPANNED, *tracing.COUNTED]


def test_every_traced_name_is_where_the_tracer_looks():
    entries = _tables()
    assert len(entries) > 40
    missing = []
    for module_name, path, _ in entries:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if outer:
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert missing == []


def _weylops_namespaces() -> dict[str, dict]:
    return {name: dict(vars(m)) for name, m in list(sys.modules.items())
            if name == "weylops" or name.startswith("weylops.")}


def test_an_empty_tracer_block_leaves_every_module_as_it_was():
    # the tracer patches a function in every weylops module that binds it;
    # leaving the block must restore each binding and add none
    tracing = _tracing()
    for module_name in dict.fromkeys(m for m, _, _ in [*tracing.SPANNED, *tracing.COUNTED]):
        importlib.import_module(module_name)
    before = _weylops_namespaces()
    with tracing.Tracer():
        pass
    after = _weylops_namespaces()
    assert after.keys() == before.keys()
    for name, space in before.items():
        assert sorted(set(after[name]) ^ set(space)) == [], name
        assert [k for k, v in space.items() if after[name][k] is not v] == [], name
