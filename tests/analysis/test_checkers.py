"""Corpus-driven checker tests.

``tests/data/invalid/`` (regenerated by ``tools/make_invalid_corpus.py``)
holds one healthy artifact per backend family plus one seeded mutation per
error code.  Every mutated artifact must make its checker fire with the
expected stable code; the healthy controls must verify completely clean
under every built-in checker — together these pin the
passes-on-healthy / catches-seeded-violation contract per checker.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis import CheckContext, get_checker_spec, verify_program
from repro.graph.serialization import graph_from_dict
from repro.partition.plan import plan_from_dict
from repro.runtime.core import ExecutorConfig
from repro.runtime.program import program_from_dict

CORPUS_DIR = Path(__file__).resolve().parent.parent / "data" / "invalid"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))

BUILTIN_CHECKERS = [
    "shard-conservation",
    "schedule-soundness",
    "comm-validity",
    "memory-plan",
    "cache-key",
]


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _context_of(entry: dict) -> CheckContext:
    if entry["kind"] == "program":
        return CheckContext(program=program_from_dict(entry["program"]))
    if entry["kind"] == "plan":
        return CheckContext(
            plan=plan_from_dict(entry["plan"]),
            graph=graph_from_dict(entry["graph"]),
        )
    assert entry["kind"] == "config"
    # A config class the cache-key builder has never heard of: one extra
    # field, neither covered by the key nor declared non-semantic.
    stale_type = dataclasses.make_dataclass(
        "StaleExecutorConfig",
        [(entry["extra_field"], int, dataclasses.field(default=0))],
        bases=(ExecutorConfig,),
        frozen=True,
    )
    return CheckContext(executor_config_type=stale_type)


def test_corpus_is_present():
    names = {path.stem for path in CORPUS}
    assert {
        "healthy_pipeline", "healthy_tofu", "overlapping_shards",
        "shard_dim_gap", "worker_mismatch", "cyclic_after", "dangling_dep",
        "duplicate_slot", "deadlock_schedule", "bad_link", "self_transfer",
        "device_range", "memory_coverage", "memory_mismatch",
        "stale_cache_key",
    } <= names


@pytest.mark.parametrize(
    "path",
    [p for p in CORPUS if _load(p)["expect_code"] is not None],
    ids=lambda p: p.stem,
)
def test_seeded_violation_is_caught(path):
    entry = _load(path)
    spec = get_checker_spec(entry["checker"])
    findings = spec.check(_context_of(entry))
    codes = {finding.code for finding in findings}
    assert entry["expect_code"] in codes, (
        f"{path.stem}: {entry['checker']} reported {sorted(codes)}, "
        f"expected {entry['expect_code']}"
    )
    # The code the corpus expects must be one the checker declares.
    assert entry["expect_code"] in (spec.codes or ())
    for finding in findings:
        assert finding.check == spec.name
        assert finding.message


def test_a_gather_without_destination_is_a_bad_link_not_a_self_transfer():
    entry = _load(CORPUS_DIR / "bad_link.json")
    (victim,) = [
        task for task in entry["program"]["tasks"]
        if task["kind"] == "comm" and task["dst_device"] is None
    ]
    victim["src_device"] = None
    findings = get_checker_spec("comm-validity").check(_context_of(entry))
    assert {finding.code for finding in findings} == {"ANA007_BAD_LINK"}


@pytest.mark.parametrize("device", ["-1", "4"], ids=["host", "past-the-end"])
def test_a_memory_budget_for_no_device_is_out_of_range(device):
    # -1 names the host as a copy's source, not a device a report may budget.
    entry = _load(CORPUS_DIR / "healthy_tofu.json")
    assert entry["program"]["num_devices"] == 4
    entry["program"]["per_device_memory"][device] = 1
    findings = get_checker_spec("memory-plan").check(_context_of(entry))
    assert "ANA009_DEVICE_RANGE" in {finding.code for finding in findings}


@pytest.mark.parametrize(
    "path",
    [p for p in CORPUS if _load(p)["expect_code"] is None],
    ids=lambda p: p.stem,
)
def test_healthy_artifact_verifies_clean(path):
    entry = _load(path)
    program = program_from_dict(entry["program"])
    report = verify_program(program, checkers=BUILTIN_CHECKERS)
    assert report.ok, f"{path.stem}: {report.summary()}"


@pytest.mark.parametrize("checker", BUILTIN_CHECKERS)
def test_every_checker_has_a_seeded_violation(checker):
    entries = [_load(path) for path in CORPUS]
    assert any(
        entry["checker"] == checker and entry["expect_code"] is not None
        for entry in entries
    ), f"no corpus case exercises {checker}"


def test_default_config_classes_pass_cache_key_check():
    findings = get_checker_spec("cache-key").check(CheckContext())
    assert findings == [], [str(finding) for finding in findings]
