#!/usr/bin/env python3
"""Re-pin gate.json from one untraced pass of every workload at seed 0.

    python3 perfbench/pin.py

Run it only when a change alters the report stream on purpose, and land the
new gate.json with that change.  Every record of the pinning pass must pass.
"""

from __future__ import annotations

import json
import sys
import time

import gate
import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    pins = {}
    for name, wl in run.WORKLOADS.items():
        res, streams = run.execute(name, gate.PINNED_SEED, False, time.monotonic() + run.RUN_LIMIT_S)
        records = [r for sel in wl.selectors for r in (streams[sel] or [])]
        bad = [r for r in records if r["status"] != "pass"]
        if res["exit"] != 0 or bad or any(streams[sel] is None for sel in wl.selectors):
            print(f"error: {name} did not pass cleanly; nothing pinned", file=sys.stderr)
            return 1
        if wl.validate and res["result"].get("validate") != "ok":
            print(f"error: {name}: validate_reordering gave {res['result'].get('validate')}", file=sys.stderr)
            return 1
        pins[name] = {
            "digest": gate.stream_digest(records),
            "counts": {sel: len(streams[sel]) for sel in wl.selectors},
            "validate": wl.validate,
        }
        print(f"{name}: {len(records)} records, digest {pins[name]['digest'][:16]}")
    gate.GATE_FILE.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
