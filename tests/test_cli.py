"""Command-line behavior: formats, outputs, exit codes, and flags as the only input."""

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylops import reports_to_json
from weylops.cli import main
from weylops.report import VerificationReport


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_text_output(capsys):
    rc, out, _ = run_cli(capsys, "verify", "bender", "--max-n", "6")
    lines = out.strip().splitlines()
    assert rc == 0
    assert len(lines) == 7
    assert all(line.startswith("[PASS ] bender(") for line in lines)


def test_verify_json_output(capsys):
    rc, out, _ = run_cli(capsys, "verify", "bender", "--max-n", "2", "--format", "json")
    assert rc == 0
    records = json.loads(out)
    assert len(records) == 3
    for record in records:
        assert set(record) == {"suite", "params", "status", "witness", "elapsed_ms"}
        assert record["status"] == "pass"


def test_verify_json_writes_one_record_per_line(capsys):
    rc, out, _ = run_cli(capsys, "verify", "combinatorics", "--format", "json")
    assert rc == 0
    first, *lines, last = out.splitlines()
    assert (first, last) == ("[", "]")
    assert all(line.endswith(",") for line in lines[:-1]) and not lines[-1].endswith(",")
    records = [json.loads(line.removesuffix(",")) for line in lines]
    assert len(records) == 8 and records == json.loads(out)
    assert reports_to_json([]) == "[]"


def test_verify_json_keeps_rationals_exact(capsys):
    rc, out, _ = run_cli(capsys, "verify", "sequences", "--max-n", "16", "--format", "json")
    assert rc == 0
    (record,) = json.loads(out)
    assert record["params"]["kappa"][9] == "31/2"
    assert record["params"]["lambda"][4] == "5"


def _reference_plain(v):
    # the writer's value rule as a dict holds it: Fractions and other
    # non-JSON values become their str, containers recurse
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (bool, int, float)):
        return v
    if isinstance(v, (list, tuple)):
        return [_reference_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _reference_plain(x) for k, x in v.items()}
    return str(v)


def _reference_dict(r):
    # a record as the JSON writer's line holds it, for json.dumps to encode
    return {
        "suite": r.suite,
        "params": {str(k): _reference_plain(v) for k, v in r.params.items()},
        "status": r.status,
        "witness": r.witness,
        "elapsed_ms": r.elapsed_ms,
    }


def _reference_render(r):
    args = ", ".join(f"{k}={_reference_plain(v)}" for k, v in r.params.items())
    line = f"[{r.status.upper():5s}] {r.suite}({args})"
    return line + f"  -- {r.witness}" if r.witness else line


# quotes, backslashes, control characters, non-ASCII and astral text
_texts = st.text(st.sampled_from('az "\\\n\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600') | st.characters(), max_size=8)
_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-9])
_scalars = st.booleans() | st.integers(-(10**40), 10**40) | _floats | _texts | st.fractions()
_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_texts | st.integers(-3, 3), kids, max_size=3),
    max_leaves=8,
)
_reports = st.builds(
    VerificationReport,
    suite=_texts,
    params=st.dictionaries(_texts | st.integers(-3, 3), _values, max_size=5),
    status=st.sampled_from(["pass", "fail", "error"]),
    witness=_texts,
    elapsed_ms=_floats,
)


@given(st.lists(_reports, max_size=3))
def test_each_json_line_is_the_encoders_line(reports):
    # reports_to_json formats each line itself; it must be json.dumps of the
    # record's dict, with every key sorted, byte for byte
    expected = [json.dumps(_reference_dict(r), sort_keys=True) for r in reports]
    assert reports_to_json(reports) == ("[\n" + ",\n".join(expected) + "\n]" if reports else "[]")


@given(_reports)
def test_render_writes_each_param_as_its_plain_value(report):
    assert report.render() == _reference_render(report)


def test_output_goes_to_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "verify", "figueira", "--format", "json", "--output", str(path)
    )
    assert rc == 0 and out == ""
    records = json.loads(path.read_text())
    assert len(records) == 4 and all(r["status"] == "pass" for r in records)


def test_tables_text(capsys):
    rc, out, _ = run_cli(capsys, "tables", "--max-n", "6")
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0].split() == ["n", "E_n(0)", "B_n", "kappa_n", "lambda_n"]
    assert len(lines) == 8
    assert lines[-1].split() == ["6", "0", "1/42", "0", "-61"]


def test_tables_json(capsys):
    rc, out, _ = run_cli(capsys, "tables", "--max-n", "4", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["N"] == 4
    assert payload["euler_at_zero"] == ["1", "-1/2", "0", "1/4", "0"]
    assert payload["bernoulli"] == ["1", "-1/2", "1/6", "0", "-1/30"]
    assert payload["kappa"] == ["0", "1/2", "0", "-1/4", "0"]
    assert payload["lambda"] == ["1", "0", "-1", "0", "5"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "bender", "--max-n", "-1"),
        ("verify", "pain", "--max-m", "-1"),
        ("verify", "binomial", "--max-l", "-1"),
        ("verify", "hermite", "--dim", "0"),
        ("tables", "--max-n", "-1"),
        # the "all" selector refuses each bound before its first check
        ("verify", "all", "--max-n", "-1"),
        ("verify", "all", "--max-m", "-1"),
        ("verify", "all", "--max-l", "-1"),
        ("verify", "all", "--dim", "0"),
        # below build_operators' floor of 4, whatever max_n
        ("verify", "hermite", "--dim", "3", "--max-n", "1"),
        ("verify", "hermite", "--dim", "3"),
        ("verify", "all", "--dim", "3"),
        ("verify", "hermite", "--dim", "3", "--max-n", "9"),
    ],
)
def test_bad_bounds_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "hermite", "--dim", "6", "--max-n", "2"),
        ("verify", "all", "--dim", "7", "--max-n", "2"),
    ],
)
def test_a_dim_below_2_max_n_plus_4_runs(capsys, argv):
    # dim labels the hermite records and bounds no order
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    assert out.count("[PASS ] hermite(") == 12


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.001", "1e300"])
def test_tol_is_not_an_option(capsys, tol):
    # the hermite verdicts are exact, so no tolerance can pass a difference:
    # --tol is unknown to argparse, however large
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hermite", "--tol", tol])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


@pytest.mark.parametrize("command", [("verify", "bender"), ("tables",)], ids=["verify", "tables"])
def test_config_is_not_an_option(capsys, tmp_path, command):
    # flags are the only input: no file supplies defaults
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_n": 2}')
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --config" in captured.err


def test_the_environment_sets_no_bounds(capsys, tmp_path, monkeypatch):
    # a file named by WEYLOPS_CONFIG once cut every sweep to order 0; nothing reads it
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_n": 0, "max_m": 0, "max_l": 0}')
    monkeypatch.setenv("WEYLOPS_CONFIG", str(cfg))
    rc, out, err = run_cli(capsys, "verify", "bender")
    lines = out.splitlines()
    assert rc == 0 and err == "" and len(lines) == 13
    assert all(line.startswith("[PASS ] bender(") for line in lines)


# 4 is the least dim at any order; (9, 4) stands in for order 31 at dim 64
@pytest.mark.parametrize("max_n, dim", [(0, 4), (2, 8), (9, 4)])
def test_hermite_at_its_least_dim_passes(capsys, max_n, dim):
    rc, out, _ = run_cli(capsys, "verify", "hermite", "--dim", str(dim), "--max-n", str(max_n))
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 4 * (max_n + 1)
    assert all(line.startswith("[PASS ] hermite(") and f", dim={dim}," in line for line in lines)


def test_verify_without_records_exits_2(capsys):
    rc, out, err = run_cli(capsys, "verify", "combinatorics", "--max-n", "0")
    assert rc == 2 and out == ""
    assert "no checks" in err


@pytest.mark.parametrize("command", [("verify", "sequences"), ("tables",)], ids=["verify", "tables"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, command, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    rc, out, err = run_cli(capsys, *command, "--output", str(path))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_failures_exit_1(capsys, monkeypatch):
    import weylops.suites as suites_mod

    monkeypatch.setattr(suites_mod, "euler_zero", lambda k: Fraction(1, 7))
    rc, out, _ = run_cli(capsys, "verify", "pain", "--max-n", "2", "--max-m", "2")
    assert rc == 1
    assert "[FAIL ]" in out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    # argparse checks each flag's type and choices, as the config loader did a file's
    for argv in (["verify", "bender", "--max-n", "three"], ["tables", "--format", "yaml"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "weylops", "tables", "--max-n", "2"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "kappa_n" in proc.stdout


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(
            ["weylops"],
            marks=pytest.mark.skipif(shutil.which("weylops") is None, reason="script not on PATH"),
            id="script",
        ),
        pytest.param([sys.executable, "-m", "weylops"], id="module"),
    ],
)
def test_console_script(command, child_env):
    proc = subprocess.run(
        [*command, "verify", "bender", "--max-n", "3"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("[PASS ]") == 4


def test_console_script_is_declared_as_cli_main():
    # the declared entry point, checked where the script is not installed
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["weylops"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


# Run in a child: this process has numpy loaded already, as a test reference.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from weylops.cli import main
facts = {}
with contextlib.redirect_stdout(io.StringIO()):
    facts["codes"] = [main(["verify", "bender", "--max-n", "3"])]
    facts["oscillator_after_bender"] = "weylops.oscillator" in sys.modules
    facts["codes"].append(main(["verify", "all", "--format", "json"]))
facts["numpy"] = "numpy" in sys.modules
facts["dataclasses"] = "dataclasses" in sys.modules
facts["oscillator"] = "weylops.oscillator" in sys.modules
import weylops
from weylops.oscillator import build_operators, element_to_matrix
ops = build_operators(4)
facts["dim"] = ops.dim
facts["realized"] = element_to_matrix(weylops.hamiltonian(), ops) == ops.h_mat
try:
    weylops.no_such_name
except AttributeError as exc:
    facts["unknown"] = str(exc)
print(json.dumps(facts))
"""


def test_verify_all_leaves_numpy_unloaded(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["codes"] == [0, 0]
    # only the hermite sweep imports the oscillator realization, and it runs
    # without numpy
    assert facts["oscillator_after_bender"] is False
    assert facts["oscillator"] is True
    assert facts["numpy"] is False
    # nor dataclasses, which would load inspect, ast, dis and tokenize at every start-up
    assert facts["dataclasses"] is False
    # the oscillator API is importable from weylops.oscillator
    assert facts["dim"] == 4
    assert facts["realized"] is True
    assert facts["unknown"] == "module 'weylops' has no attribute 'no_such_name'"
