import json
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run

REPO = Path(__file__).resolve().parents[2]


def test_pins_cover_every_workload():
    pins = gate.load_pins()
    assert set(pins) == set(run.WORKLOADS)
    for name, wl in run.WORKLOADS.items():
        assert list(pins[name]["counts"]) == list(wl.selectors)
        assert pins[name]["validate"] == wl.validate


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (REPO / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "gate.json").write_bytes((REPO / "perfbench" / "gate.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((REPO / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formal-c", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spread_reports_median_and_quartiles():
    assert run.spread([3.0]) == {"median": 3.0, "p25": 3.0, "p75": 3.0, "n": 1}
    assert run.spread([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "p25": 1.75, "p75": 3.25, "n": 4}


def test_record_ms_p50_takes_each_record_median_first():
    # per-record medians 2, 20, 100; per-pass medians would be 10, 30, 20
    assert run.record_ms_p50([[1.0, 10.0, 100.0], [3.0, 30.0, 50.0], [2.0, 20.0, 300.0]]) == 20.0
    assert run.record_ms_p50([[4.0, 1.0], [6.0, 3.0]]) == 3.5


def test_benchmark_json_matches_the_workloads():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_prints_the_result_line(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = ["--workload", "binomial-sweep", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert run.main(args) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    passes = 2 if trace else run.MIN_PASSES  # one untraced and one traced, or the fewest untraced
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] == passes * 2206
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert (tmp_path / f"binomial-sweep-seed1-trace{trace}.json").is_file()
