"""Command-line behavior: formats, outputs, config layering, exit codes."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from weylops import reports_to_json
from weylops.cli import main


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


def test_config_file_supplies_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_n": 3}))
    monkeypatch.setenv("WEYLOPS_CONFIG", str(cfg))

    rc, out, _ = run_cli(capsys, "verify", "bender")
    assert rc == 0 and len(out.strip().splitlines()) == 4

    # an explicit flag beats the config value
    rc, out, _ = run_cli(capsys, "verify", "bender", "--max-n", "1")
    assert rc == 0 and len(out.strip().splitlines()) == 2


def test_config_flag_beats_environment(capsys, tmp_path, monkeypatch):
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text(json.dumps({"max_n": 5}))
    flag_cfg = tmp_path / "flag.json"
    flag_cfg.write_text(json.dumps({"max_n": 2, "format": "json"}))
    monkeypatch.setenv("WEYLOPS_CONFIG", str(env_cfg))

    rc, out, _ = run_cli(capsys, "verify", "bender", "--config", str(flag_cfg))
    assert rc == 0
    assert len(json.loads(out)) == 3


@pytest.mark.parametrize(
    "payload",
    [
        '{"max_depth": 3}',  # unknown key
        "{not json",
        "[1, 2, 3]",  # not an object
        '{"max_n": "three"}',
        '{"tol": true}',
        '{"format": "yaml"}',
    ],
)
def test_bad_configs_exit_2(capsys, tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    rc, out, err = run_cli(capsys, "verify", "bender", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err.startswith("error:")


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
        # below the dim the hermite sweep needs: 4, and 2 max_n + 4 for the bridge
        ("verify", "hermite", "--dim", "3", "--max-n", "1"),
        ("verify", "hermite", "--dim", "6", "--max-n", "2"),
        ("verify", "all", "--dim", "7", "--max-n", "2"),
        ("verify", "hermite", "--max-n", "31"),  # default dim 64
    ],
)
def test_bad_bounds_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.001", "1e300"])
def test_tol_is_not_an_option(capsys, tol):
    # the hermite verdicts are exact, so no tolerance can pass a difference:
    # --tol is unknown to argparse, however large
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hermite", "--tol", tol])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


def test_tol_is_not_a_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": 1e-9}')
    rc, out, err = run_cli(capsys, "verify", "hermite", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err == f"error: config {cfg}: unknown keys tol\n"


@pytest.mark.parametrize(
    "payload",
    [
        '{"max_n": -1}',
        '{"max_l": -3}',
        '{"dim": 0}',
        # tol is no bound any more, but an unknown key, whatever its value
        '{"tol": NaN}',
        '{"tol": Infinity}',
        '{"tol": 0}',
        '{"tol": -1e-9}',
        '{"dim": 3}',
        '{"dim": 6, "max_n": 2}',
        '{"max_n": 31}',
    ],
)
def test_bad_config_bounds_exit_2(capsys, tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    rc, out, err = run_cli(capsys, "verify", "all", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("max_n, dim", [(0, 4), (2, 8)])
def test_hermite_at_its_least_dim_passes(capsys, max_n, dim):
    rc, out, _ = run_cli(capsys, "verify", "hermite", "--dim", str(dim), "--max-n", str(max_n))
    assert rc == 0
    assert out.count("[PASS ]") == 4 * (max_n + 1)


def test_verify_without_records_exits_2(capsys):
    rc, out, err = run_cli(capsys, "verify", "combinatorics", "--max-n", "0")
    assert rc == 2 and out == ""
    assert "no checks" in err


def test_missing_config_file_exits_2(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "verify", "bender", "--config", str(tmp_path / "no.json"))
    assert rc == 2 and "cannot read config" in err


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
