"""One benchmark pass, run as its own process:  python3 child.py SPEC

SPEC is a JSON file written by run.py.  The pass imports weylops from the
checkout's ``src`` directory, notes when that import finished, then calls
``weylops.cli.main`` once per selector of the workload (so the sequence
caches carry across selectors, as in ``weylops verify all``) and, for the
oracles workload, ``weylops.realization.validate_reordering()``.  It writes
what it saw to the spec's result path; run.py checks it.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _call(fn, *args):
    """Exit code of a CLI call, or the error that stopped it."""
    try:
        return fn(*args)
    except SystemExit as exc:  # argparse rejects an unknown selector or flag
        return exc.code
    except Exception as exc:
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def _validate(realization) -> str:
    try:
        realization.validate_reordering()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _metadata() -> dict:
    """numpy and BLAS facts of this process (read once per run, untimed)."""
    import ctypes
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libs": libs,
        "blas_threads": threads,
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import weylops  # noqa: F401  (set-up ends when the package is importable)

    t_ready = time.monotonic()
    out: dict = {"t_ready": t_ready}
    if spec.get("metadata"):
        out["metadata"] = _metadata()
    if spec.get("runs"):
        import contextlib
        import importlib

        cli = importlib.import_module("weylops.cli")
        realization = importlib.import_module("weylops.realization")
        if spec.get("trace"):
            from tracing import Tracer

            scope = Tracer()
        else:
            scope = contextlib.nullcontext()
        with scope as tracer:
            # cli.main is looked up inside the block, so a traced pass calls the wrapper
            out["exit_codes"] = {sel: _call(cli.main, argv) for sel, argv in spec["runs"]}
            if spec.get("validate"):
                out["validate"] = _validate(realization)
        # the work ends here; writing and summarising spans below is not timed
        out["t_done"] = time.monotonic()
        if tracer is not None:
            tracer.write_spans(spec["spans"])
            out["layers"], out["absent"] = tracer.summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
