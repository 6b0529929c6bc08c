"""The benchmark tracer finds every name it wraps.

``perfbench/tracing.py`` wraps a method through its class's own ``__dict__``
and a function through its module, and reports a name it cannot find as an
absent metric instead of failing.  So a refactor that moves a traced method
into a base class, or renames a traced function, would pass unnoticed; this
test reads the tracer's SPANNED and COUNTED tables and fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
