#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics for a parent and a change commit.

    python3 bench/record.py --pr 40 --parent HEAD~1 --change HEAD

Both commits are extracted with ``git archive`` into one temporary directory,
so the repository gains no worktree, and each side runs its own
``perfbench/run.py --workload W --seed 0 --seconds 3 --trace 0``: ``--pairs``
pairs per workload of the parent's ``BENCHMARK.json`` (default 10), the
parent first in even pairs and the change first in odd ones.  Interleaved
pairs, reported as medians, quartiles and per-pair wins, follow T. Kalibera
and R. Jones, "Rigorous Benchmarking in Reasonable Time", ISMM 2013, and
A. Georges, D. Buytaert and L. Eeckhout, "Statistically Rigorous Java
Performance Evaluation", OOPSLA 2007.  Standard library only.

Every child gets this process's environment without ``PYTHONPATH``, so its
bytecode state is the caller's ``PYTHONDONTWRITEBYTECODE``; perfbench's
``child_env`` passes it on to the passes.  The record (``--out``, default
``BENCH_<pr>.json`` at the repository root) holds:

- ``pr``, ``commits``: the number it is filed under, and {"parent", "change"}
  as full hashes;
- ``golden``: per side, the record count and digest of ``weylops verify all
  --format json`` with ``elapsed_ms`` blanked, hashed as
  ``tests/test_suites.py::test_golden_report_stream`` hashes it;
- ``python``: the interpreter version; ``bytecode``: ``PYTHONDONTWRITEBYTECODE``
  as the children see it, and per side whether ``src/weylops/__pycache__``
  existed after the workload runs;
- ``calibration``: {"before", "after"} the runs, each the minimum of 5 of a
  bare loop of 10^6 ``s += i*i`` in a fresh interpreter (``loop_ms``) and of
  a bare interpreter's start-up, ``python -c pass`` (``startup_ms``);
- ``workloads``: per workload, ``first`` (the side that ran first, per pair),
  ``operations`` (per side: attempted, failed, and runs that printed no
  result line) and ``metrics``: per end-to-end metric of ``BENCHMARK.json``,
  its unit, its better direction, each side's median, p25, p75 (linear
  between closest ranks, as perfbench's ``percentile``) and values in pair
  order, and ``wins``: the pairs in which the change reads better, ties and
  pairs missing a side counting for neither;
- ``tier1``: per side, one run of the tier-1 tests: ``wall_s``,
  ``peak_rss_mb`` (``wait4``'s maximum resident set of the pytest process)
  and pytest's summary line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LOOP = "import time\nt = time.perf_counter()\ns = 0\nfor i in range(10**6):\n    s += i*i\nprint(time.perf_counter() - t)"


def parse_result(stdout: str) -> dict:
    """The result line of a ``perfbench/run.py`` run, its last line of stdout:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise ValueError(f"no result line: {lines[-1][:80] if lines else ''!r}")
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's values, which are kept in pair order."""
    if not values:
        return {"median": None, "p25": None, "p75": None, "values": []}
    p25, p50, p75 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": p50, "p25": p25, "p75": p75, "values": values}


def wins(parent: list, change: list, better: str) -> int:
    """Pairs in which the change reads better; ties, and pairs missing a side, count for neither."""
    sign = -1 if better == "lower" else 1
    return sum(1 for a, b in zip(parent, change) if a is not None and b is not None and sign * (b - a) > 0)


def summarize(runs: dict[str, list], end_to_end: list[dict]) -> dict:
    """One workload's record from its runs, per side a result (parse_result) or None per pair."""
    operations = {
        side: {
            "attempted": sum(r["attempted"] for r in results if r),
            "failed": sum(r["failed"] for r in results if r),
            "runs_without_result": sum(r is None for r in results),
        }
        for side, results in runs.items()
    }
    metrics = {}
    for m in end_to_end:
        name, better = m["name"], m["better"]
        values = {side: [r["metrics"].get(name, {}).get("value") if r else None for r in results]
                  for side, results in runs.items()}
        metrics[name] = {
            "unit": m["unit"],
            "better": better,
            **{side: spread([v for v in vs if v is not None]) for side, vs in values.items()},
            "wins": wins(values["parent"], values["change"], better),
            "pairs": len(values["parent"]),
        }
    return {"operations": operations, "metrics": metrics}


def _env(src: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def _extract(commit: str, into: Path) -> Path:
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def _calibrate() -> dict:
    loop = min(float(subprocess.run([sys.executable, "-c", LOOP], env=_env(), check=True, capture_output=True,
                                    text=True).stdout) for _ in range(5))
    startup = []
    for _ in range(5):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], env=_env(), check=True)
        startup.append(time.monotonic() - t0)
    return {"loop_ms": round(loop * 1e3, 2), "startup_ms": round(min(startup) * 1e3, 2)}


def _golden(tree: Path) -> dict:
    out = subprocess.run([sys.executable, "-m", "weylops", "verify", "all", "--format", "json"], cwd=tree,
                         env=_env(tree / "src"), capture_output=True, text=True).stdout
    records = json.loads(out)
    for r in records:
        r["elapsed_ms"] = None
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]
    return {"records": len(records), "digest": digest}


def _run_workload(tree: Path, workload: str) -> dict | None:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "3", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=_env(), capture_output=True, text=True)
    try:
        return parse_result(done.stdout)
    except ValueError:
        print(f"{tree.name} {workload}: exit {done.returncode}, no result line\n{done.stderr[-2000:]}", file=sys.stderr)
        return None


def _tier1(tree: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=tree, env=_env(tree / "src"), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    lines = out.strip().splitlines()
    return {"wall_s": round(time.monotonic() - t0, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    rev = lambda c: subprocess.run(["git", "rev-parse", "--verify", f"{c}^{{commit}}"], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    commits = {"parent": rev(args.parent), "change": rev(args.change)}
    record = {"pr": args.pr, "commits": commits, "python": platform.python_version(),
              "calibration": {"before": _calibrate()}}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {side: _extract(sha, Path(tmp) / side) for side, sha in commits.items()}
        declared = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        record["golden"] = {side: _golden(tree) for side, tree in trees.items()}
        record["workloads"] = {}
        for workload in (w["name"] for w in declared["workloads"]):
            runs, first = {side: [] for side in SIDES}, []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    runs[side].append(_run_workload(trees[side], workload))
                print(f"{workload}: pair {i + 1} of {args.pairs}", file=sys.stderr)
            record["workloads"][workload] = {"first": first, **summarize(runs, declared["end_to_end"])}
        record["bytecode"] = {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "src_pycache": {side: (tree / "src" / "weylops" / "__pycache__").is_dir() for side, tree in trees.items()},
        }
        record["tier1"] = {side: _tier1(tree) for side, tree in trees.items()}
    record["calibration"]["after"] = _calibrate()
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
