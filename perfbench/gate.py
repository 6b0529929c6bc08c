"""Correctness gate: a pass counts only if its report stream is right.

The pins live in gate.json, one entry per workload: the record count of each
selector and, at seed 0, the digest of the whole stream.  The digest follows
the project's golden-stream recipe: the JSON records of every selector in
workload order, ``elapsed_ms`` blanked, ``json.dumps(sort_keys=True)``,
sha256.  At any other seed the gate is every record passing plus the pinned
counts.  An intended change to the stream lands with a re-pinned gate.json
(see pin.py).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GATE_FILE = Path(__file__).with_name("gate.json")
PINNED_SEED = 0


def load_pins() -> dict:
    with open(GATE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def stream_digest(records: list[dict]) -> str:
    blanked = [{**r, "elapsed_ms": None} for r in records]
    return hashlib.sha256(json.dumps(blanked, sort_keys=True).encode()).hexdigest()


def evaluate(
    pin: dict, seed: int, streams: dict, exit_codes: dict, validate: str | None
) -> tuple[int, list[str]]:
    """(operations attempted, failures) for one pass.

    ``streams`` maps each selector to its parsed JSON records (None when the
    CLI wrote nothing readable), ``exit_codes`` to what ``cli.main`` returned.
    ``validate`` is what the pass's validate_reordering() call gave: "ok",
    an error string, or None when it never ran; the pin says whether the
    workload makes that call.  Each failure is one failed operation: a record
    that did not pass, a record missing or extra against the pinned count, a
    validate_reordering that raised, and, only when nothing above explains
    it, a non-zero exit or a digest mismatch.
    """
    failures: list[str] = []
    for sel, want in pin["counts"].items():
        records = streams.get(sel)
        if records is None:
            failures.extend([f"{sel}: no readable output (exit {exit_codes.get(sel)!r})"] * max(want, 1))
            continue
        bad = [r for r in records if r.get("status") != "pass"]
        failures.extend(f"{sel}: {r.get('suite')}({r.get('params')}) is {r.get('status')}" for r in bad)
        if len(records) != want:
            failures.extend([f"{sel}: {len(records)} records, pinned {want}"] * abs(len(records) - want))
        if not bad and len(records) == want and exit_codes.get(sel) != 0:
            failures.append(f"{sel}: exit {exit_codes.get(sel)!r} with every record passing")
    if pin.get("validate") and validate != "ok":
        failures.append(f"validate_reordering: {validate or 'not run'}")
    if not failures and seed == PINNED_SEED:
        stream = [r for sel in pin["counts"] for r in streams[sel]]
        digest = stream_digest(stream)
        if digest != pin["digest"]:
            failures.append(f"stream digest {digest[:16]}, pinned {pin['digest'][:16]}")
    attempted = sum(pin["counts"].values()) + bool(pin.get("validate"))
    return attempted, failures[:attempted]
