"""The ``tofu-repro verify`` subcommand and coded CLI error output."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def saved_model(tmp_path):
    path = tmp_path / "model.json"
    rc = main([
        "compile", "--model", "mlp", "--batch", "8", "--hidden", "32",
        "--layers", "2", "--workers", "2", "--strategy", "tofu",
        "--save", str(path),
    ])
    assert rc == 0
    return path


def test_verify_saved_model_exits_zero(saved_model, capsys):
    rc = main(["verify", str(saved_model)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "0 finding(s)" in out
    assert err == ""


def test_verify_unknown_artifact_exits_one_with_code(capsys):
    rc = main(["verify", "no-such-artifact"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "error: [ANA014_UNKNOWN_ARTIFACT]" in err


def test_verify_tampered_model_reports_findings(saved_model, capsys):
    payload = json.loads(saved_model.read_text())
    payload["plan"]["num_workers"] += 1  # break shard/worker conservation
    saved_model.write_text(json.dumps(payload))
    rc = main(["verify", str(saved_model)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "ANA002_WORKER_MISMATCH" in err
    assert "finding(s)" in out


@pytest.mark.parametrize("device", ["-1", "2"], ids=["host", "past-the-end"])
def test_verify_flags_a_saved_budget_outside_the_devices(
    saved_model, capsys, device
):
    """The host (device -1) is no GPU a memory report may budget, just as
    the live memory-plan check and the simulator reject it."""
    payload = json.loads(saved_model.read_text())
    payload["program"]["per_device_memory"][device] = 123
    saved_model.write_text(json.dumps(payload))
    rc = main(["verify", str(saved_model)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "ANA009_DEVICE_RANGE" in err
