"""Two traced passes at the same seed must do the same algebraic work.

Slow (about a minute): it runs every workload traced, twice.
"""

import time

import pytest

import run

EXACT = (
    "weyl.mul_calls",
    "weyl.contractions",
    "scalars.cpoly_mul_calls",
    "realization.apply_calls",
    "oscillator.build_calls",
    "report.records",
)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_exact_counts_repeat(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    layers = []
    for _ in range(2):
        res, _streams = run.execute(workload, 0, True, time.monotonic() + run.RUN_LIMIT_S)
        assert res["exit"] == 0
        layers.append(res["result"]["layers"])
    first, second = ({k: lay[k]["value"] for k in EXACT} for lay in layers)
    assert first == second
    assert first["report.records"] == sum(run.gate.load_pins()[workload]["counts"].values())
    if workload == "binomial-sweep":
        assert first["weyl.mul_calls"] == 0  # the bypass workload never reaches the engine
    else:
        assert first["weyl.mul_calls"] > 0
