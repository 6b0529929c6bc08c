#!/usr/bin/env python3
"""The weylops benchmark: verification sweeps as a command-line user runs them.

    python3 perfbench/run.py --workload bender-deep --seed 0 --seconds 20 --trace 0

Load model: a closed loop with one client.  Each pass spawns one fresh
``python3 perfbench/child.py`` process, which imports weylops from ./src and
calls ``weylops.cli.main(["verify", <selector>, "--format", "json", ...])``
for each selector of the workload; the next pass starts only after the
previous child has exited.  The seed reaches the program only as --seed.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported (medians over the passes).  With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics of the traced passes are reported,
plus ``trace.overhead_ratio``.  Every pass is checked against gate.json
before it counts.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; details go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import sys
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path

import gate
from tracing import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

# Import-only children spawned before each untraced pass, so setup_s has a
# steady median even for long passes and is sampled over the whole run.
PROBES_PER_PASS = 4
MIN_PASSES = 3  # the fewest whose median drops one outlier pass; bender-deep needs it
RUN_LIMIT_S = 170.0  # a run ends within 180 s: later children are killed and count as failed


@dataclass(frozen=True)
class Workload:
    selectors: tuple[str, ...]
    flags: dict = field(default_factory=dict)  # extra CLI flags per selector
    validate: bool = False  # also call weylops.realization.validate_reordering()


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "bender-deep": Workload(("bender", "superoperators")),
    "formal-c": Workload(("pain", "reciprocal", "mccoy", "functions", "figueira")),
    "binomial-sweep": Workload(("binomial", "combinatorics", "sequences")),
    "oracles": Workload(("hermite",), flags={"hermite": ("--dim", "256")}, validate=True),
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("record_ms_p50", "ms"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The caller's environment, minus what would change the measured work:
    OpenBLAS always gets nproc threads, and no config file reaches cli.main."""
    env = dict(os.environ)
    env.pop("WEYLOPS_CONFIG", None)
    env["OPENBLAS_NUM_THREADS"] = str(nproc())
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argv(workload: Workload, selector: str, seed: int, output: Path) -> list[str]:
    return [
        "verify", selector, "--format", "json", "--output", str(output), "--seed", str(seed),
        *workload.flags.get(selector, ()),
    ]


def spawn(spec: dict, spec_path: Path, timeout: float) -> dict:
    """Run one child to completion; wall time, exit status and rusage."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    Path(spec["result"]).unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(spec_path)]
    env = child_env()
    # child stdout goes to our stderr: our stdout ends with the result line
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], max(timeout, 0.0))[0]:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    t1 = time.monotonic()
    try:
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    return {
        "t0": t0,
        "wall_s": t1 - t0,
        "exit": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "result": result,
    }


def setup_probe(metadata: bool, deadline: float) -> dict:
    spec = {"src": str(SRC), "result": str(OUT / "probe.json"), "metadata": metadata}
    return spawn(spec, OUT / "probe-spec.json", deadline - time.monotonic())


def execute(name: str, seed: int, trace: bool, deadline: float) -> tuple[dict, dict]:
    """Spawn one pass of a workload; its run figures and the parsed record
    stream of each selector (None where the CLI wrote nothing readable)."""
    wl = WORKLOADS[name]
    outputs = {sel: OUT / f"{name}.{sel}.json" for sel in wl.selectors}
    for path in outputs.values():
        path.unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "result": str(OUT / f"{name}.result.json"),
        "spans": str(OUT / f"{name}.spans.bin"),
        "runs": [(sel, cli_argv(wl, sel, seed, path)) for sel, path in outputs.items()],
        "validate": wl.validate,
        "trace": trace,
    }
    run = spawn(spec, OUT / f"{name}.spec.json", deadline - time.monotonic())
    streams = {}
    for sel, path in outputs.items():
        try:
            streams[sel] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            streams[sel] = None
    return run, streams


def run_pass(name: str, seed: int, trace: bool, deadline: float, pins: dict) -> dict:
    """One gated pass of a workload and its end-to-end figures."""
    run, streams = execute(name, seed, trace, deadline)
    res = run["result"]
    attempted, failures = gate.evaluate(
        pins[name], seed, streams, res.get("exit_codes", {}), res.get("validate")
    )
    if run["exit"] != 0 and not failures:
        failures = [f"child exited {run['exit']}"]
    elapsed = [r["elapsed_ms"] for recs in streams.values() if recs for r in recs]
    return {
        "wall_s": run["wall_s"],
        "setup_s": res["t_ready"] - run["t0"] if "t_ready" in res else None,
        "work_s": res["t_done"] - run["t0"] if "t_done" in res else None,
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "record_ms": elapsed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "layers": res.get("layers"),
        "absent": res.get("absent", {}),
    }


def spread(values: list[float]) -> dict:
    return {
        "median": median(values),
        "p25": percentile(values, 25),
        "p75": percentile(values, 75),
        "n": len(values),
    }


def record_ms_p50(passes: list[list[float]]) -> float:
    """Median over the records of each record's median over the passes, so
    that one pass's jitter in single short records does not set the figure."""
    return median(median(ms) for ms in zip(*passes))


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(name: str, seed: int, trace: bool, child_meta: dict) -> dict:
    wl = WORKLOADS[name]
    return {
        "commit": git_commit(),
        **child_meta,
        "nproc": nproc(),
        "workload": name,
        "seed": seed,
        "trace": trace,
        "bounds": {
            **{sel: " ".join(("default bounds", *wl.flags.get(sel, ()))) for sel in wl.selectors},
            **({"validate_reordering": "validate_reordering() at its defaults"} if wl.validate else {}),
        },
        "load": "closed loop, one client, one child process per pass",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "weylops" / "__init__.py").is_file():
        print(f"error: no weylops sources under {SRC}", file=sys.stderr)
        return 2
    pins = gate.load_pins()
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    trace = bool(args.trace)

    warm = setup_probe(True, deadline)  # fills the file and bytecode caches; not a sample
    meta = metadata(args.workload, args.seed, trace, warm["result"].get("metadata", {}))
    probes = []

    plain, traced = [], []
    while True:
        if not trace:
            probes += [setup_probe(False, deadline) for _ in range(PROBES_PER_PASS)]
        plain.append(run_pass(args.workload, args.seed, False, deadline, pins))
        if trace:
            traced.append(run_pass(args.workload, args.seed, True, deadline, pins))
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and (trace or len(plain) >= MIN_PASSES):
            break
        if elapsed >= RUN_LIMIT_S:
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    per_pass = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
    samples = {m: [p[m] for p in plain if p[m] is not None] for m in per_pass}
    samples["setup_s"] += [p["result"]["t_ready"] - p["t0"] for p in probes if "t_ready" in p["result"]]
    streams = [p["record_ms"] for p in plain if p["record_ms"]]
    samples["record_ms_p50"] = [record_ms_p50(streams)] if streams else []
    figures = {m: {**spread(samples[m]), "unit": unit} for m, unit in END_TO_END if samples[m]}
    detail = {
        "metadata": meta,
        "end_to_end": figures,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "passes": [{k: v for k, v in p.items() if k not in ("record_ms", "layers")} for p in passes],
    }

    if trace:
        layers = [p["layers"] for p in traced if p["layers"]]
        names = sorted(set.intersection(*(set(lay) for lay in layers))) if layers else []
        metrics = {}
        for n in names:
            values = [lay[n]["value"] for lay in layers]
            # exact counts repeat; keep them whole instead of averaging two equal middles
            value = values[0] if len(set(values)) == 1 else median(values)
            metrics[n] = {"value": value, "unit": layers[0][n]["unit"]}
        # spawn until the work ended, so writing the spans out is not counted
        done = [[p["work_s"] for p in ps if p["work_s"] is not None] for ps in (traced, plain)]
        if all(done):
            metrics["trace.overhead_ratio"] = {"value": median(done[0]) / median(done[1]), "unit": "ratio"}
        detail["absent"] = {k: v for p in traced for k, v in p["absent"].items()}
    else:
        metrics = {m: {"value": f["median"], "unit": f["unit"]} for m, f in figures.items()}
    detail["metrics"] = metrics

    OUT.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    print(json.dumps({"metadata": meta}))
    for m, s in figures.items():
        print(f"{m:>14} {s['median']:12.4f} {s['unit']:3}  p25 {s['p25']:.4f}  p75 {s['p75']:.4f}"
              f"  n={s['n']}")
    print(f"{'fail_ratio':>14} {detail['fail_ratio']:12.4f}      {failed}/{attempted} operations")
    for f in detail["failures"][:20]:
        print(f"FAILED {f}")
    for n, reason in detail.get("absent", {}).items():
        print(f"absent {n}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
