"""Structured verification results.

One report per checked instance: which suite, which parameters, pass/fail,
and on failure a textual witness (the rendered difference element, worst
numerical error, or equivalent).  Parameter and witness values carrying
exact rationals are rendered as strings ("-61/64") so serialization never
loses precision.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Any, Callable, NamedTuple

PASS = "pass"
FAIL = "fail"
ERROR = "error"
_ENCODER = json.JSONEncoder(sort_keys=True)  # no indent, so json encodes in C
_SCALARS = {bool, int, float, str}  # JSON values as they are: _plain returns them unchanged


def _plain(v: Any) -> Any:
    # exact values go to strings; containers recurse; everything else is
    # assumed JSON-representable already
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (bool, int, float)):
        return v
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    return str(v)


class VerificationReport(NamedTuple):
    suite: str
    params: dict[str, Any]
    status: str  # pass | fail | error
    witness: str = ""
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "params": {str(k): v if type(v) in _SCALARS else _plain(v) for k, v in self.params.items()},
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }

    def render(self) -> str:
        args = ", ".join(f"{k}={_plain(v)}" for k, v in self.params.items())
        line = f"[{self.status.upper():5s}] {self.suite}({args})"
        if self.witness:
            line += f"  -- {self.witness}"
        return line


def reports_to_json(reports: list[VerificationReport]) -> str:
    """The records as a JSON list, one per line between "[" and "]" lines; "[]" if none."""
    lines = [_ENCODER.encode(r.to_dict()) for r in reports]
    return "[\n" + ",\n".join(lines) + "\n]" if lines else "[]"


def _orders(**orders: int) -> None:
    """ValueError unless each order is >= 0: the suites' and both realizations' one check."""
    for name, v in orders.items():
        if v < 0:
            raise ValueError(f"need {name} >= 0, got {v}")


def run_check(suite: str, params: dict[str, Any], fn: Callable[[], str]) -> VerificationReport:
    """Time one check.  ``fn`` returns "" on pass, a witness string on failure;
    a raised exception becomes an error report (suites keep going)."""
    t0 = time.perf_counter()
    try:
        witness = fn() or ""
        status = PASS if not witness else FAIL
    except Exception as exc:
        witness = f"{type(exc).__name__}: {exc}"
        status = ERROR
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(suite, params, status, witness, round(elapsed, 3))
