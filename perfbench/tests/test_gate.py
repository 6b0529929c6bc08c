import copy
import json
from pathlib import Path

import pytest

import child
import gate

REPO = Path(__file__).resolve().parents[2]


def _record(suite, n, status="pass", ms=1.0):
    return {"suite": suite, "params": {"n": n}, "status": status, "witness": "", "elapsed_ms": ms}


@pytest.fixture
def clean():
    streams = {"a": [_record("a", 0), _record("a", 1)], "b": [_record("b", 0)]}
    pin = {
        "counts": {"a": 2, "b": 1},
        "digest": gate.stream_digest(streams["a"] + streams["b"]),
        "validate": True,
    }
    return pin, streams, {"a": 0, "b": 0}


@pytest.mark.parametrize("seed", [0, 7])
def test_clean_pass_has_no_failures(clean, seed):
    pin, streams, codes = clean
    assert gate.evaluate(pin, seed, streams, codes, "ok") == (4, [])


def test_elapsed_ms_does_not_enter_the_digest(clean):
    pin, streams, codes = clean
    streams = copy.deepcopy(streams)
    for r in streams["a"]:
        r["elapsed_ms"] = 123.456
    assert gate.evaluate(pin, 0, streams, codes, "ok") == (4, [])


@pytest.mark.parametrize("seed", [0, 7])
def test_one_flipped_status_is_caught(clean, seed):
    pin, streams, codes = clean
    streams = copy.deepcopy(streams)
    streams["a"][1]["status"] = "fail"
    codes = {**codes, "a": 1}
    attempted, failures = gate.evaluate(pin, seed, streams, codes, "ok")
    assert attempted == 4 and len(failures) == 1 and "is fail" in failures[0]


@pytest.mark.parametrize("seed", [0, 7])
def test_one_dropped_record_is_caught(clean, seed):
    pin, streams, codes = clean
    streams = copy.deepcopy(streams)
    del streams["a"][0]
    attempted, failures = gate.evaluate(pin, seed, streams, codes, "ok")
    assert len(failures) == 1 and "1 records, pinned 2" in failures[0]


def test_changed_content_is_caught_by_the_digest_at_the_pinned_seed_only(clean):
    pin, streams, codes = clean
    streams = copy.deepcopy(streams)
    streams["b"][0]["params"] = {"n": 99}
    assert len(gate.evaluate(pin, 0, streams, codes, "ok")[1]) == 1
    assert gate.evaluate(pin, 7, streams, codes, "ok")[1] == []


def test_missing_output_and_nonzero_exit_are_caught(clean):
    pin, streams, codes = clean
    _, failures = gate.evaluate(pin, 7, {**streams, "b": None}, {**codes, "b": 2}, "ok")
    assert len(failures) == 1 and "no readable output" in failures[0]
    _, failures = gate.evaluate(pin, 7, streams, {**codes, "b": "ValueError: x"}, "ok")
    assert len(failures) == 1 and "exit" in failures[0]


def test_validate_not_run_is_caught(clean):
    pin, streams, codes = clean
    _, failures = gate.evaluate(pin, 7, streams, codes, None)
    assert failures == ["validate_reordering: not run"]


def test_raising_validate_reordering_is_caught(tmp_path, monkeypatch):
    import weylops.realization

    def broken(*args, **kwargs):
        raise AssertionError("reordering mismatch at q^1p^1 * q^1p^1 on x^0")

    monkeypatch.setattr(weylops.realization, "validate_reordering", broken)
    out = tmp_path / "sequences.json"
    spec = {
        "src": str(REPO / "src"),
        "result": str(tmp_path / "result.json"),
        "runs": [["sequences", ["verify", "sequences", "--format", "json", "--output", str(out)]]],
        "validate": True,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert child.main(str(spec_path)) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_codes"] == {"sequences": 0}
    assert result["validate"].startswith("AssertionError: reordering mismatch")
    pin = {"counts": {"sequences": 1}, "digest": "", "validate": True}
    streams = {"sequences": json.loads(out.read_text())}
    attempted, failures = gate.evaluate(pin, 7, streams, result["exit_codes"], result["validate"])
    assert attempted == 2 and len(failures) == 1 and "validate_reordering" in failures[0]
