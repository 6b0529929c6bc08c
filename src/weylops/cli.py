"""Command line: verification sweeps and the weight-sequence tables.

Exit status is 0 when every report passes, 1 when any record fails or
errors, and 2 for unusable invocations or config files: among them bounds
that ``run_suite`` refuses (the one place bounds are checked), a sweep that
runs no checks at all and an --output path that cannot be written.  A JSON
config file named by --config (or the WEYLOPS_CONFIG environment variable)
supplies defaults for any flag not given explicitly; the command line checks
only its schema and hands every bound to ``run_suite`` as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .report import reports_to_json
from .sequences import bernoulli_number, euler_zero, kappa, lam
from .suites import SELECTORS, run_suite

CONFIG_ENV = "WEYLOPS_CONFIG"

_INT_KEYS = ("max_n", "max_m", "max_l", "dim", "seed")
_CONFIG_KEYS = frozenset((*_INT_KEYS, "format"))


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {', '.join(unknown)}")
    for key in _INT_KEYS:
        if key in cfg and (isinstance(cfg[key], bool) or not isinstance(cfg[key], int)):
            raise ConfigError(f"config {path}: {key} must be an integer")
    if "format" in cfg and cfg["format"] not in ("text", "json"):
        raise ConfigError(f"config {path}: format must be 'text' or 'json'")
    return cfg


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), dest="fmt", default=None)
    sub.add_argument("--output", metavar="PATH", default=None, help="write to a file instead of stdout")
    sub.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help=f"JSON defaults file (falls back to ${CONFIG_ENV})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylops",
        description="Exact verification of operator identities in the algebra pq - qp = c.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification suite, or all of them")
    verify.add_argument("suite", choices=("all", *SELECTORS))
    verify.add_argument("--max-n", type=int, dest="max_n", default=None)
    verify.add_argument("--max-m", type=int, dest="max_m", default=None)
    verify.add_argument("--max-l", type=int, dest="max_l", default=None)
    verify.add_argument("--dim", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    _add_common(verify)

    tables = sub.add_parser("tables", help="print the weight-sequence tables")
    tables.add_argument("--max-n", type=int, dest="max_n", default=None)
    _add_common(tables)

    return parser


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _emit(body: str, path: str | None) -> bool:
    """Write body to path, or to stdout; False, with an error on stderr, if
    path cannot be written."""
    if not body.endswith("\n"):
        body += "\n"
    if path is None:
        sys.stdout.write(body)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _tables_body(max_n: int, fmt: str) -> str:
    if max_n < 0:
        raise ValueError(f"max_n must be at least 0, got {max_n}")
    ns = range(max_n + 1)
    # (column header, json key, rendered values)
    columns = (
        ("n", "n", [str(n) for n in ns]),
        ("E_n(0)", "euler_at_zero", [str(euler_zero(n)) for n in ns]),
        ("B_n", "bernoulli", [str(bernoulli_number(n)) for n in ns]),
        ("kappa_n", "kappa", [str(kappa(n)) for n in ns]),
        ("lambda_n", "lambda", [str(lam(n)) for n in ns]),
    )
    if fmt == "json":
        payload: dict = {"N": max_n}
        payload.update({key: vals for _, key, vals in columns})
        return json.dumps(payload, indent=2, sort_keys=True)
    widths = [max(len(name), *(len(v) for v in vals)) for name, _, vals in columns]
    lines = ["  ".join(name.rjust(w) for (name, _, _), w in zip(columns, widths))]
    for i in ns:
        lines.append("  ".join(vals[i].rjust(w) for (_, _, vals), w in zip(columns, widths)))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        fmt = args.fmt or cfg.get("format", "text")
        if args.command == "tables":
            return 0 if _emit(_tables_body(_merged(args, cfg, "max_n", 16), fmt), args.output) else 2
        bounds = {key: _merged(args, cfg, key) for key in ("max_n", "max_m", "max_l", "dim")}
        reports = run_suite(args.suite, **bounds, seed=_merged(args, cfg, "seed", 0))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        body = reports_to_json(reports)
    else:
        body = "\n".join(r.render() for r in reports)
    if not _emit(body, args.output):
        return 2
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
