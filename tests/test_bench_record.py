"""bench/record.py reads perfbench's result lines and reduces them to medians,
quartiles, per-pair wins and a verdict per metric, and compiles each tree's
src/ before the first pair.  These tests feed it canned lines and a one-module tree; none runs the
benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "record_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _stdout(wall: float, p50: float, failed: int = 0) -> str:
    """A run's stdout as perfbench/run.py prints it: metadata, a table, then the result line."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "record_ms_p50": {"value": p50, "unit": "ms"}}
    return "\n".join([
        json.dumps({"metadata": {"workload": "binomial-sweep", "seed": 0}}),
        f"        wall_s {wall:12.4f} s    p25 {wall:.4f}  p75 {wall:.4f}  n=20",
        f"    fail_ratio       0.0000      {failed}/4412 operations",
        json.dumps({"correct": failed == 0, "attempted": 4412, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def test_the_result_line_is_the_last_line():
    result = record.parse_result(_stdout(0.107, 0.007))
    assert result["attempted"] == 4412 and result["metrics"]["record_ms_p50"] == {"value": 0.007, "unit": "ms"}


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n", '{"metadata": {}}\n', "[1, 2]\n"])
def test_a_run_without_a_result_line_is_refused(stdout):
    with pytest.raises(ValueError):
        record.parse_result(stdout)


def test_spread_takes_quartiles_between_closest_ranks():
    assert record.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "p25": 2.0, "p75": 4.0,
                                                         "values": [4.0, 1.0, 3.0, 2.0, 5.0]}
    assert record.spread([1.0, 2.0]) == {"median": 1.5, "p25": 1.25, "p75": 1.75, "values": [1.0, 2.0]}
    assert record.spread([7.0])["p25"] == record.spread([7.0])["p75"] == 7.0
    assert record.spread([])["median"] is None


def test_wins_count_strictly_better_pairs():
    parent, change = [1.0, 2.0, 3.0, 4.0, None], [0.5, 2.0, 3.5, 3.9, 1.0]
    assert record.wins(parent, change, "lower") == 2  # a tie and a pair missing a side count for neither
    assert record.wins(parent, change, "higher") == 1


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.0, quartiles 0.9825 and 1.0175


@pytest.mark.parametrize("change, better, expected", [
    ([v - 0.10 for v in PARENT], "lower", "better"),  # 10 of 10 wins, 0.10 beyond an IQR of 0.035
    ([v - 0.10 for v in PARENT[:9]] + [1.05], "lower", "better"),  # 9 of 10 is enough
    ([v - 0.10 for v in PARENT[:8]] + [1.05, 1.05], "lower", "unresolved"),  # 8 of 10 is not
    ([v - 0.03 for v in PARENT], "lower", "unresolved"),  # every pair won, the median gap inside the IQR
    ([v + 0.10 for v in PARENT], "lower", "worse"),  # the mirror of better
    ([v + 0.10 for v in PARENT], "higher", "better"),
    ([v - 0.10 for v in PARENT[:9]] + [None], "lower", "better"),  # a missing pair counts as no win
    ([v - 0.10 for v in PARENT[:8]] + [None, None], "lower", "unresolved"),
    ([None] * 10, "lower", "unresolved"),
])
def test_a_verdict_needs_nine_wins_in_ten_and_a_median_beyond_the_parents_iqr(change, better, expected):
    assert record.verdict(PARENT, change, better) == expected


def test_summarize_pairs_runs_in_order_and_counts_failures():
    parent = [record.parse_result(_stdout(w, 0.007)) for w in (0.110, 0.108, 0.109)]
    change = [record.parse_result(_stdout(0.105, 0.006)), None, record.parse_result(_stdout(0.111, 0.007, failed=2))]
    summary = record.summarize({"parent": parent, "change": change}, END_TO_END)
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [0.110, 0.108, 0.109] and wall["change"]["values"] == [0.105, 0.111]
    assert (wall["wins"], wall["pairs"], wall["unit"], wall["better"]) == (1, 3, "s", "lower")
    assert wall["verdict"] == summary["metrics"]["record_ms_p50"]["verdict"] == "unresolved"
    assert summary["metrics"]["record_ms_p50"]["wins"] == 1
    assert summary["operations"] == {
        "parent": {"attempted": 3 * 4412, "failed": 0, "runs_without_result": 0},
        "change": {"attempted": 2 * 4412, "failed": 2, "runs_without_result": 1},
    }


def test_compile_src_writes_bytecode_the_environment_would_not(tmp_path, monkeypatch):
    # the trees are compiled before the first pair: children read bytecode
    # even where PYTHONDONTWRITEBYTECODE keeps them from writing it
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("x = 2\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert record.compile_src(tmp_path) == 1
    assert list((tmp_path / "src" / "pkg" / "__pycache__").glob("mod.*.pyc"))
    assert not (tmp_path / "tests" / "__pycache__").exists()
