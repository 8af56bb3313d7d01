"""Seeded-violation checker tests.

``tests/support/invalid_programs.py`` builds one healthy artifact per
backend family plus one named edit per error code, each from a freshly
lowered program.  Every edited artifact must make its checker fire with the
expected stable code; the healthy controls must verify completely clean
under every built-in checker — together these pin the
passes-on-healthy / catches-seeded-violation contract per checker.
"""

import dataclasses

import pytest

from repro.analysis import CheckContext, get_checker_spec, verify_program
from repro.errors import SimulationError
from repro.sim.device import k80_8gpu_machine
from tests.support.invalid_programs import (
    CASES,
    NUM_DEVICES,
    device_copies,
    healthy_pipeline,
    healthy_tofu,
    with_memory,
    with_tasks,
)

BUILTIN_CHECKERS = [
    "shard-conservation",
    "schedule-soundness",
    "comm-validity",
    "memory-plan",
    "cache-key",
]

SEEDED = sorted(name for name, case in CASES.items() if case.expect_code)
HEALTHY = sorted(name for name, case in CASES.items() if not case.expect_code)


def test_corpus_is_present():
    assert {
        "healthy_pipeline", "healthy_tofu", "overlapping_shards",
        "shard_dim_gap", "worker_mismatch", "cyclic_after", "dangling_dep",
        "duplicate_slot", "deadlock_schedule", "bad_link", "self_transfer",
        "device_range", "memory_coverage", "memory_mismatch",
        "stale_cache_key",
    } <= set(CASES)


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_violation_is_caught(name):
    case = CASES[name]
    spec = get_checker_spec(case.checker)
    findings = spec.check(case.build())
    codes = {finding.code for finding in findings}
    assert case.expect_code in codes, (
        f"{name}: {case.checker} reported {sorted(codes)}, "
        f"expected {case.expect_code}"
    )
    # The code the case expects must be one the checker declares.
    assert case.expect_code in (spec.codes or ())
    for finding in findings:
        assert finding.check == spec.name
        assert finding.message


def test_a_gather_without_destination_is_a_bad_link_not_a_self_transfer():
    program = healthy_pipeline()
    victim = device_copies(program)[0]
    gather = with_tasks(
        program, dataclasses.replace(victim, src_device=None, dst_device=None)
    )
    findings = get_checker_spec("comm-validity").check(
        CheckContext(program=gather)
    )
    assert {finding.code for finding in findings} == {"ANA007_BAD_LINK"}


def test_comm_validity_resolves_each_pair_once_and_flags_every_task(monkeypatch):
    program = healthy_tofu()
    machine = k80_8gpu_machine(NUM_DEVICES)
    transfers = [
        (src, dst)
        for _, _, kind, _, _, _, _, src, dst in program.task_graph.rows
        if kind == "comm"
    ]
    resolved = []

    def unresolvable(self, src, dst):
        resolved.append((src, dst))
        raise SimulationError(f"no {src}->{dst} link")

    monkeypatch.setattr(type(machine), "link_between", unresolvable)
    findings = get_checker_spec("comm-validity").check(
        CheckContext(program=program, machine=machine)
    )
    assert len(set(transfers)) < len(transfers)
    # One resolution per distinct pair, one finding per task.
    assert len(resolved) == len(set(resolved))
    assert set(resolved) == set(transfers)
    assert [finding.code for finding in findings] == (
        ["ANA007_BAD_LINK"] * len(transfers)
    )


@pytest.mark.parametrize("device", [-1, NUM_DEVICES], ids=["host", "past-the-end"])
def test_a_memory_budget_for_no_device_is_out_of_range(device):
    # -1 names the host as a copy's source, not a device a report may budget.
    program = healthy_tofu()
    assert program.num_devices == NUM_DEVICES
    budgeted = with_memory(program, {**program.per_device_memory, device: 1})
    findings = get_checker_spec("memory-plan").check(
        CheckContext(program=budgeted)
    )
    assert "ANA009_DEVICE_RANGE" in {finding.code for finding in findings}


@pytest.mark.parametrize("name", HEALTHY)
def test_healthy_artifact_verifies_clean(name):
    program = CASES[name].build().program
    report = verify_program(program, checkers=BUILTIN_CHECKERS)
    assert report.ok, f"{name}: {report.summary()}"


@pytest.mark.parametrize("checker", BUILTIN_CHECKERS)
def test_every_checker_has_a_seeded_violation(checker):
    assert any(
        CASES[name].checker == checker for name in SEEDED
    ), f"no seeded case exercises {checker}"


def test_default_config_classes_pass_cache_key_check():
    findings = get_checker_spec("cache-key").check(CheckContext())
    assert findings == [], [str(finding) for finding in findings]
