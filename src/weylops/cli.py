"""Command line: verification sweeps and the weight-sequence tables.

Flags are its only input.  Exit status is 0 when every report passes, 1 when
any record fails or errors, and 2 for an unusable invocation: among them
bounds that ``run_suite`` refuses (the one place bounds are checked), a sweep
that runs no checks at all and an --output path that cannot be written, each
reported on stderr as "error: ...".  There is no tolerance to set: --tol is
unknown.  ``python -m weylops`` runs ``main`` too.
"""

from __future__ import annotations

import argparse
import json
import sys

from .report import reports_to_json
from .sequences import bernoulli_number, euler_zero, kappa, lam
from .suites import SELECTORS, run_suite


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), dest="fmt", default="text")
    sub.add_argument("--output", metavar="PATH", default=None, help="write to a file instead of stdout")


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
    # --dim only labels the hermite records; it stays while the benchmark's
    # oracles workload passes --dim 256
    verify.add_argument("--dim", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    _add_common(verify)

    tables = sub.add_parser("tables", help="print the weight-sequence tables")
    tables.add_argument("--max-n", type=int, dest="max_n", default=16)
    _add_common(tables)

    return parser


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
        if args.command == "tables":
            return 0 if _emit(_tables_body(args.max_n, args.fmt), args.output) else 2
        reports = run_suite(args.suite, max_n=args.max_n, max_m=args.max_m, max_l=args.max_l, dim=args.dim,
                            seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        body = reports_to_json(reports)
    else:
        body = "\n".join(r.render() for r in reports)
    if not _emit(body, args.output):
        return 2
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
