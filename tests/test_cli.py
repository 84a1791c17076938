import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from chorchain.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_run_writes_outputs(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["run", "--model", "1", "--seed", "5", "--reps", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "chains" / "rep0.chain").exists()
    assert (out / "traces" / "rep1.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["groups"][0]["runs"] == 2
    trace = json.loads((out / "traces" / "rep0.json").read_text())
    assert trace["verdict"] == "conformant"


def test_run_verification_off(runner, tmp_path):
    out = tmp_path / "baseline"
    result = runner.invoke(
        main, ["run", "--model", "2", "--verify", "off", "--seed", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert not (out / "chains" / "rep0.chain").exists()  # no chain when not verifying


def test_run_with_fault(runner, tmp_path):
    out = tmp_path / "fault"
    result = runner.invoke(
        main,
        ["run", "--model", "2", "--fault-step", "2", "--seed", "7", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    trace = json.loads((out / "traces" / "rep0.json").read_text())
    assert trace["detection"] == "detected"


def test_summarize_aggregates_directories(runner, tmp_path):
    for seed in (1, 2):
        runner.invoke(
            main,
            ["run", "--model", "1", "--seed", str(seed), "--out", str(tmp_path / f"s{seed}")],
        )
    result = runner.invoke(main, ["summarize", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "mean dur" in result.output
    as_json = runner.invoke(main, ["summarize", str(tmp_path), "--json"])
    summary = json.loads(as_json.output)
    assert summary["groups"][0]["runs"] == 2


def test_summarize_empty_dir_fails(runner, tmp_path):
    result = runner.invoke(main, ["summarize", str(tmp_path)])
    assert result.exit_code != 0


def test_audit_command(runner, tmp_path):
    out = tmp_path / "run"
    runner.invoke(main, ["run", "--model", "3", "--seed", "9", "--out", str(out)])
    model_file = tmp_path / "model3.json"
    model_file.write_text(files("chorchain.models").joinpath("model3.json").read_text())
    result = runner.invoke(
        main,
        ["audit", "--chain", str(out / "chains" / "rep0.chain"), "--model", str(model_file)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["all_clean"] and report["instances"][0]["conformant"]


def test_audit_fails_on_tampered_dump(runner, tmp_path):
    out = tmp_path / "run"
    runner.invoke(main, ["run", "--model", "1", "--seed", "9", "--out", str(out)])
    dump_file = out / "chains" / "rep0.chain"
    from chorchain.encoding import TxKind, encode_data_block, tx_from_hex

    lines = dump_file.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(("{", "block", "mempool")) or not line.strip():
            continue
        tx = tx_from_hex(line)
        if tx.kind == TxKind.HANDOVER:
            raw = bytearray(bytes.fromhex(line))
            offset = bytes(raw).index(encode_data_block(tx.data_block))
            raw[offset + 5] ^= 0x01
            lines[i] = raw.hex()
            break
    dump_file.write_text("\n".join(lines) + "\n")
    model_file = tmp_path / "model1.json"
    model_file.write_text(files("chorchain.models").joinpath("model1.json").read_text())
    result = runner.invoke(
        main, ["audit", "--chain", str(dump_file), "--model", str(model_file)]
    )
    assert result.exit_code == 1


def _python(*args):
    """Run the interpreter with the package's source directory on its path."""
    import chorchain

    src = str(Path(chorchain.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )


def test_import_loads_no_network_modules():
    """The package runs in one process, so importing its entry points pulls
    in no socket, TLS, HTTP client or HTTP server module."""
    probe = (
        "import sys, chorchain.harness, chorchain.cli; "
        "print(sorted(m for m in ('ssl', 'urllib.request', 'http.server', 'socket') "
        "if m in sys.modules))"
    )
    assert _python("-c", probe).stdout.strip() == "[]"


def test_evaluation_script_runs_at_one_seed():
    """scripts/run_evaluation.py at one seed per configuration: every
    injected fault is detected and every verified run conserves value."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_evaluation.py"
    lines = _python(str(script), "--seeds", "1").stdout.splitlines()
    assert "  fault detection: 30/30" in lines
    assert "  value conservation exact in all verified runs: True" in lines


@pytest.mark.parametrize(
    "model,variant,message",
    [("4", "2", "variant picks branch 2 of 2"), ("2", "7", "variant picks branch 7 of 2")],
)
def test_run_refusal_is_one_line_without_traceback(runner, tmp_path, model, variant, message):
    out = tmp_path / "refused"
    result = runner.invoke(
        main, ["run", "--model", model, "--variant", variant, "--out", str(out)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"Error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("fault_step", ["x", "1.5", ""])
def test_run_refuses_a_non_numeric_fault_step_in_one_line(runner, tmp_path, fault_step):
    out = tmp_path / "refused"
    result = runner.invoke(
        main, ["run", "--model", "1", "--fault-step", fault_step, "--out", str(out)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"Error: fault step {fault_step!r} is neither a handover number nor 'none'"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "option,value", [("--fee", "0"), ("--fee", "-1"), ("--block-mean", "0"), ("--block-mean", "-1")]
)
def test_run_refuses_a_non_positive_fee_or_block_mean_as_a_usage_error(
    runner, tmp_path, option, value
):
    out = tmp_path / "refused"
    result = runner.invoke(main, ["run", "--model", "1", option, value, "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{option}'" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("option,value", [("--reps", "0"), ("--reps", "-2"),
                                          ("--block-mean", "inf"), ("--block-mean", "nan")])
def test_run_refuses_no_reps_or_a_non_finite_block_mean_as_a_usage_error(
    runner, tmp_path, option, value
):
    out = tmp_path / "refused"
    result = runner.invoke(main, ["run", "--model", "1", option, value, "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [error] = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert error.startswith(f"Error: Invalid value for '{option}': {value} is not ")
    assert "Traceback" not in result.output
    assert not out.exists()


def test_audit_refuses_non_hex_line_in_one_line(runner, tmp_path):
    out = tmp_path / "run"
    runner.invoke(main, ["run", "--model", "1", "--seed", "9", "--out", str(out)])
    dump_file = out / "chains" / "rep0.chain"
    lines = dump_file.read_text().splitlines()
    lines.insert(2, "not-hex")
    dump_file.write_text("\n".join(lines) + "\n")
    model_file = tmp_path / "model1.json"
    model_file.write_text(files("chorchain.models").joinpath("model1.json").read_text())
    result = runner.invoke(main, ["audit", "--chain", str(dump_file), "--model", str(model_file)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: line 3: bad transaction")


def test_audit_refuses_invalid_model_in_one_line(runner, tmp_path):
    out = tmp_path / "run"
    runner.invoke(main, ["run", "--model", "1", "--seed", "9", "--out", str(out)])
    model_file = tmp_path / "broken.json"
    model_file.write_text("{not json")
    result = runner.invoke(
        main, ["audit", "--chain", str(out / "chains" / "rep0.chain"), "--model", str(model_file)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: model document is not valid JSON")


def test_audit_refuses_a_task_id_that_is_no_integer_in_one_line(runner, tmp_path):
    out = tmp_path / "run"
    runner.invoke(main, ["run", "--model", "1", "--seed", "9", "--out", str(out)])
    model = json.loads(files("chorchain.models").joinpath("model1.json").read_text())
    next(n for n in model["nodes"] if n.get("task_id") == 1)["task_id"] = "1"
    model_file = tmp_path / "model1.json"
    model_file.write_text(json.dumps(model))
    result = runner.invoke(
        main, ["audit", "--chain", str(out / "chains" / "rep0.chain"), "--model", str(model_file)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: task id must be 1..251")
