"""Structured verification results.

One report per checked instance: which suite, which parameters, pass/fail,
and on failure a textual witness: the first mismatch (a differing form and
its first differing term, value or column), or the exception raised.  Every
verdict is exact.  Parameter and witness values carrying exact rationals
are rendered as strings ("-61/64") so serialization never loses precision.
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
_quote = json.encoder.encode_basestring_ascii  # a str as _ENCODER writes it, quotes included
_SCALARS = {bool, int, float, str}  # JSON values as they are: _plain returns them unchanged


def _plain(v: Any) -> Any:
    # bools, ints and floats stay as they are; lists, tuples and dicts
    # recurse; everything else, a Fraction included, becomes its str
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

    def render(self) -> str:
        args = ", ".join(f"{k}={v if type(v) in _SCALARS else _plain(v)}" for k, v in self.params.items())
        line = f"[{self.status.upper():5s}] {self.suite}({args})"
        if self.witness:
            line += f"  -- {self.witness}"
        return line


def _json(v: Any) -> str:
    """v as _ENCODER writes ``_plain(v)``: a str, an int, a bool or a finite
    float directly, anything else through the encoder."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int or t is float and v - v == 0:  # NaN and +-inf take the encoder's spelling
        return repr(v)
    if t is bool:
        return "true" if v else "false"
    return _ENCODER.encode(_plain(v))


def reports_to_json(reports: list[VerificationReport]) -> str:
    """The records as a JSON list, one per line between "[" and "]" lines; "[]" if none.
    A line is what ``_ENCODER`` writes for the record's five fields as a dict,
    the params under ``str`` keys with ``_plain`` values, formatted here: the
    encoder's own work on such small sorted dicts costs more than the line."""
    lines = []
    for suite, params, status, witness, elapsed_ms in reports:
        params = {str(k): v for k, v in params.items()}
        fields = ", ".join([f"{_quote(k)}: {_json(params[k])}" for k in sorted(params)])
        lines.append(
            f'{{"elapsed_ms": {_json(elapsed_ms)}, "params": {{{fields}}}, "status": {_json(status)}, '
            f'"suite": {_json(suite)}, "witness": {_json(witness)}}}'
        )
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
    return VerificationReport(suite, params, status, witness, round(elapsed, 4))  # 0.1 us steps
