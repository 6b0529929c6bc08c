import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from tracing import Tracer, percentile, self_time, union_length

import weylops
import weylops.cli
from weylops import oscillator, scalars, sequences, suites, weyl

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_nested_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # (1,5) and (3,6) overlap on (3,5); (5.5,6) lies inside (3,6)
    assert union_length([(1.0, 5.0), (3.0, 6.0), (5.5, 6.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 5.0), (5.5, 6.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0), (20.0, 30.0)]) == pytest.approx(4.0)


def test_self_time_of_fully_covered_span_is_zero():
    assert self_time(0.0, 5.0, [(0.0, 2.5), (2.5, 5.0)]) == pytest.approx(0.0)


def test_traced_nesting_gives_consistent_self_times():
    t = Tracer()
    outer = t._open(t._id("outer"))
    inner = t._open(t._id("inner"))
    t._close(inner)
    t._close(outer)
    assert t.parent[inner] == outer and t.parent[outer] == -1
    own = self_time(t.start[outer], t.end[outer], [(t.start[inner], t.end[inner])])
    assert 0.0 <= own <= t.end[outer] - t.start[outer]


# -- median and percentiles ----------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 50) == 30.0
    assert percentile(values, 100) == 50.0
    assert percentile(values, 25) == 20.0
    assert percentile(values, 90) == pytest.approx(46.0)
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile(values, 101)


# -- wrapping and restoring ----------------------------------------------------


def _bindings():
    """Every attribute of every weylops module and traced class, by identity."""
    out = {}
    modules = (weylops, weyl, scalars, sequences, suites, oscillator, weylops.report, weylops.cli,
               weylops.realization)
    for mod in modules:
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (weyl.WeylElement, scalars.CPoly, scalars.GaussianRational, sequences.RatPoly):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_every_wrapped_attribute_is_restored():
    before = _bindings()
    with Tracer() as t:
        assert suites.commutator is not before[("weylops.weyl", "commutator")]
        assert oscillator.nested_anticommutator is not before[("weylops.weyl", "nested_anticommutator")]
        assert weyl.WeylElement.__mul__ is not before[("WeylElement", "__mul__")]
        suites.run_suite("sequences")
        suites.verify_pain(2, 2)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not t.missing


def test_restored_after_an_exception_inside_the_block():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def test_hand_computed_product_counts():
    p, q = weyl.p_op(), weyl.q_op()
    with Tracer() as t:
        prod = p * q  # p q = q p + c: two terms, one term pair, contractions k = 0, 1
    metrics, absent = t.summary()
    assert str(prod) == "(c) + (1) * q p"
    assert metrics["weyl.mul_calls"]["value"] == 1
    assert metrics["weyl.term_pairs"]["value"] == 1
    assert metrics["weyl.contractions"]["value"] == 2
    assert metrics["weyl.out_terms_max"]["value"] == 2
    assert metrics["weyl.cdeg_max"]["value"] == 1
    assert metrics["weyl.coeff_bits_max"]["value"] == 1


def test_records_and_selectors_are_attributed():
    with Tracer() as t:
        weylops.cli.main(["verify", "sequences", "--format", "json", "--output", "/dev/null"])
    metrics, _ = t.summary()
    assert metrics["report.records"]["value"] == 1
    assert metrics["suites.sequences_s"]["value"] > 0
    assert metrics["suites.bender_s"]["value"] == 0
    assert metrics["cli.main_s"]["value"] >= metrics["suites.sequences_s"]["value"]
    assert metrics["report.json_bytes"]["value"] > 0
    assert metrics["weyl.mul_calls"]["value"] == 0


def test_missing_public_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(weyl, "poly_of_element")
    monkeypatch.delattr(scalars.CPoly, "__rmul__")
    with Tracer() as t:
        weyl.q_op() * weyl.p_op()
    metrics, absent = t.summary()
    assert "weyl.poly_of_element_s" in absent and "not found" in absent["weyl.poly_of_element_s"]
    assert "scalars.cpoly_mul_calls" in absent and "scalars.cpoly_mul_s" in absent
    assert metrics["weyl.mul_calls"]["value"] == 1
    assert "weyl.poly_of_element_s" not in metrics


def test_failing_observer_drops_its_metrics_and_keeps_running(monkeypatch):
    monkeypatch.setitem(tracing._OBSERVERS, "weyl.mul", lambda *a: 1 / 0)
    with Tracer() as t:
        prod = weyl.q_op() * weyl.p_op()
    metrics, absent = t.summary()
    assert prod == weyl.monomial(1, 1)
    assert "ZeroDivisionError" in absent["weyl.contractions"]
    assert metrics["weyl.mul_calls"]["value"] == 1


def test_summary_names_match_benchmark_per_layer_list():
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    with Tracer() as t:
        pass
    metrics, absent = t.summary()
    assert set(metrics) | {"trace.overhead_ratio"} == declared
    assert absent == {}
    assert all(not isinstance(m["value"], float) or math.isfinite(m["value"]) for m in metrics.values())


def test_modules_imported_after_entering_are_restored_too():
    # weylops.cli imports run_suite by name; the tracer must load it before
    # patching, or cli would keep the wrapper after the block.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import weylops\n"
        "from tracing import Tracer\n"
        "with Tracer():\n"
        "    pass\n"
        "import weylops.cli, weylops.suites\n"
        "assert weylops.cli.run_suite is weylops.suites.run_suite\n"
        "assert weylops.cli.run_suite.__qualname__ == 'run_suite'\n"
    )
    here = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, str(here), str(here.parent / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
