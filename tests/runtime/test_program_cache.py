"""Lowered-program cache: hits are bit-identical to fresh lowering, the
content address invalidates on every semantic input, and the two-tier store
accounts for eviction and round-trips export bundles.

The parity half mirrors ``test_cluster_parity``: every registered execution
backend, on the bare machine and the one-machine cluster, must simulate a
cache-hit program to *exactly* the result of the freshly lowered one —
JSON round-trips floats through ``repr`` (shortest-exact), so no tolerance.

The aliasing half pins the memory tier's sharing contract: hits share the
cached program's immutable dense task graph (and the compiled form cached
on it), and no edit of a returned program — its containers, or its tasks
through ``replace_tasks`` — ever reaches a later hit.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.models.mlp import build_mlp
from repro.partition.recursive import recursive_partition
from repro.partition.plan import plan_from_dict
from repro.errors import ExecutionError, ReproError
from repro.planner import Planner, PlannerConfig
from repro.runtime import (
    Executor,
    ExecutorConfig,
    ProgramCache,
    available_execution_backends,
    lowered_cache_key,
    program_from_dict,
    program_to_dict,
)
from repro.runtime.passes import round_robin_layer_placement
from repro.sim.device import ClusterSpec, cluster_of, k80_8gpu_machine
from repro.sim.engine import Task

MACHINE = k80_8gpu_machine(4)
CLUSTER = ClusterSpec(machines=[MACHINE])
DATA = Path(__file__).resolve().parents[1] / "data"


def _backend_setup(name, graph):
    """(options, plan) each registered backend needs on the 4-GPU fixture."""
    if name == "placement":
        return {"device_of_node": round_robin_layer_placement(graph, 4)}, None
    if name == "tofu-partitioned":
        return {}, recursive_partition(graph, 4)
    if name == "hybrid":
        return {"replica_groups": 2, "inner": "tofu-partitioned"}, (
            recursive_partition(graph, 2)
        )
    if name == "pipeline":
        return {"num_stages": 2, "num_microbatches": 4}, None
    return {}, None


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


# ---------------------------------------------------------------- parity


@pytest.mark.parametrize("topology", [MACHINE, CLUSTER], ids=["machine", "cluster"])
@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_cache_hit_simulates_bit_identically(bundle, backend, topology):
    options, plan = _backend_setup(backend, bundle.graph)
    executor = Executor(ExecutorConfig(program_cache_capacity=8))

    fresh = executor.lower(
        bundle.graph, plan=plan, machine=topology,
        backend=backend, backend_options=options,
    )
    hit = executor.lower(
        bundle.graph, plan=plan, machine=topology,
        backend=backend, backend_options=options,
    )
    info = executor.program_cache.info()
    assert info["hits"] == 1 and info["misses"] == 1

    # A hit is a *fresh* program owning its containers around the shared,
    # immutable dense task graph...
    assert hit is not fresh
    assert hit.task_graph is fresh.task_graph
    assert hit.per_device_memory is not fresh.per_device_memory
    assert set(hit.tasks) == set(fresh.tasks)
    assert hit.per_device_memory == fresh.per_device_memory
    assert hit.stats == fresh.stats
    # ... that simulates to the exact same floats as the fresh lowering.
    assert (
        executor.simulate(hit, topology) == executor.simulate(fresh, topology)
    )


def test_codec_round_trip_preserves_program(bundle):
    options, plan = _backend_setup("tofu-partitioned", bundle.graph)
    program = Executor(ExecutorConfig(cache_programs=False)).lower(
        bundle.graph, plan=plan, machine=MACHINE,
        backend="tofu-partitioned", backend_options=options,
    )
    clone = program_from_dict(program_to_dict(program))
    assert set(clone.tasks) == set(program.tasks)
    for name, task in program.tasks.items():
        twin = clone.tasks[name]
        assert twin.duration == task.duration
        assert twin.comm_bytes == task.comm_bytes
        assert tuple(twin.deps) == tuple(task.deps)
    assert clone.sharded_graph is not None
    assert clone.fetch_bytes_per_node == program.fetch_bytes_per_node
    assert clone.reduce_bytes_per_node == program.reduce_bytes_per_node


# ----------------------------------------------------------- invalidation


def _key(graph, machine=MACHINE, backend="single-device", options=None, plan=None):
    return lowered_cache_key(graph, machine, backend, options or {}, plan=plan)


def test_key_invalidates_on_graph_edit(mlp_bundle, rnn_bundle):
    assert _key(mlp_bundle.graph) != _key(rnn_bundle.graph)


def test_key_invalidates_on_strategy_change(mlp_bundle):
    graph = mlp_bundle.graph
    base = _key(graph, backend="pipeline", options={"num_stages": 2})
    assert base != _key(graph, backend="single-device")
    assert base != _key(graph, backend="pipeline", options={"num_stages": 4})
    plan_2 = recursive_partition(graph, 2)
    plan_4 = recursive_partition(graph, 4)
    assert _key(graph, backend="tofu-partitioned", plan=plan_2) != _key(
        graph, backend="tofu-partitioned", plan=plan_4
    )


def test_key_invalidates_on_cluster_change(mlp_bundle):
    graph = mlp_bundle.graph
    assert _key(graph, machine=MACHINE) != _key(
        graph, machine=cluster_of(k80_8gpu_machine(4), 2)
    )
    # ... but the degenerate one-machine cluster shares the bare machine's
    # programs only if their signatures differ — they do, by design: the
    # cluster wrapper is part of the lowering contract.
    assert _key(graph, machine=MACHINE) != _key(graph, machine=CLUSTER)


# ------------------------------------------------- eviction and round trip


def test_memory_lru_eviction_accounting(mlp_bundle):
    cache = ProgramCache(capacity=1)
    executor = Executor()
    executor.program_cache = cache
    for stages in (2, 4):
        executor.lower(
            mlp_bundle.graph, machine=MACHINE, backend="pipeline",
            backend_options={"num_stages": stages, "num_microbatches": 4},
        )
    assert len(cache) == 1  # capacity bound holds; oldest entry evicted
    # The evicted (stages=2) program misses again; the resident one hits.
    executor.lower(
        mlp_bundle.graph, machine=MACHINE, backend="pipeline",
        backend_options={"num_stages": 4, "num_microbatches": 4},
    )
    executor.lower(
        mlp_bundle.graph, machine=MACHINE, backend="pipeline",
        backend_options={"num_stages": 2, "num_microbatches": 4},
    )
    info = cache.info()
    assert info["hits"] == 1 and info["misses"] == 3


def test_disk_eviction_under_byte_budget(tmp_path, mlp_bundle):
    executor = Executor(
        ExecutorConfig(
            program_cache_dir=str(tmp_path / "store"),
            program_cache_capacity=8,
            program_cache_max_bytes=1,  # everything but the newest evicts
        )
    )
    for stages in (2, 4):
        executor.lower(
            mlp_bundle.graph, machine=MACHINE, backend="pipeline",
            backend_options={"num_stages": stages, "num_microbatches": 4},
        )
    info = executor.program_cache.info()
    assert info["disk_entries"] == 1
    assert info["disk_evictions"] >= 1


def test_export_import_round_trip(tmp_path, mlp_bundle):
    source = ProgramCache(cache_dir=str(tmp_path / "src"))
    executor = Executor()
    executor.program_cache = source
    fresh = executor.lower(
        mlp_bundle.graph, machine=MACHINE, backend="single-device"
    )
    bundle_path = str(tmp_path / "bundle.json")
    assert source.export_to(bundle_path) == 1

    target = ProgramCache(cache_dir=str(tmp_path / "dst"))
    stats = target.import_from(bundle_path)
    assert stats["imported"] == 1

    key = lowered_cache_key(mlp_bundle.graph, MACHINE, "single-device", {})
    restored = target.get(key)
    assert restored is not None
    assert restored.tasks == fresh.tasks
    simulator = Executor(ExecutorConfig(cache_programs=False))
    assert (
        simulator.simulate(restored, MACHINE)
        == simulator.simulate(fresh, MACHINE)
    )


@pytest.mark.parametrize(
    "bundle",
    [
        [],
        {"format": "tofu-program-cache", "version": 1, "entries": []},
        {"format": "tofu-program-cache", "version": 1,
         "entries": {"../escaped": {}}},
        {"format": "tofu-program-cache", "version": 1,
         "entries": {"A" * 64: {}}},
        {"format": "tofu-program-cache", "version": 1,
         "entries": {"0" * 64: {}, "1" * 64: "notadict"}},
    ],
    ids=["top-level-list", "entries-list", "escaping-key", "uppercase-key",
         "payload-not-object"],
)
def test_import_rejects_malformed_bundle_and_writes_nothing(tmp_path, bundle):
    cache_dir = tmp_path / "store"
    cache = ProgramCache(cache_dir=str(cache_dir))
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    with pytest.raises(ReproError):
        cache.import_from(str(path))
    assert list(cache_dir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle.json", "store"]


#: Disk entries a lookup must treat as a miss; ``{field}`` is the cache's
#: payload field.
CORRUPT_ENTRIES = {
    "not-json": "not json",
    "top-level-list": "[]",
    "payload-list": '{{"{field}": []}}',
    "payload-undecodable": '{{"{field}": {{"garbage": 1}}}}',
}


def _assert_corrupt_entry_misses(cache_dir, field, lookup, corrupt):
    """Corrupt the one entry ``lookup`` stored, then check the next lookup
    misses, rebuilds the same result and overwrites the entry."""
    fresh = lookup()[1]
    (entry_path,) = Path(cache_dir).glob("*.json")
    entry_path.write_text(CORRUPT_ENTRIES[corrupt].format(field=field))
    cache, rebuilt = lookup()
    assert (cache.hits, cache.misses) == (0, 1)
    assert rebuilt == fresh
    assert json.loads(entry_path.read_text())["key"] == entry_path.stem
    cache, _ = lookup()
    assert (cache.hits, cache.misses) == (1, 0)


@pytest.mark.parametrize("corrupt", sorted(CORRUPT_ENTRIES))
def test_corrupt_plan_entry_is_a_miss(tmp_path, mlp_bundle, corrupt):
    import repro

    cache_dir = str(tmp_path / "plans")

    def compile_once():
        planner = Planner(PlannerConfig(cache_dir=cache_dir))
        model = repro.compile(mlp_bundle.graph, "tofu", MACHINE,
                              planner=planner, simulate=False)
        return planner.cache, model.plan.steps

    _assert_corrupt_entry_misses(cache_dir, "plan", compile_once, corrupt)


@pytest.mark.parametrize("corrupt", sorted(CORRUPT_ENTRIES))
def test_corrupt_program_entry_is_a_miss(tmp_path, mlp_bundle, corrupt):
    cache_dir = str(tmp_path / "programs")

    def lower_once():
        executor = Executor(ExecutorConfig(program_cache_dir=cache_dir))
        program = executor.lower(
            mlp_bundle.graph, machine=MACHINE, backend="single-device"
        )
        return executor.program_cache, program.tasks

    _assert_corrupt_entry_misses(cache_dir, "program", lower_once, corrupt)


#: One tampered field each: (where, field, value), ``where`` being the
#: first task row or the payload itself.
TAMPERED_PROGRAMS = [
    ("task", "kind", "gpu"),
    ("task", "duration", float("nan")),
    ("task", "duration", float("inf")),
    ("task", "duration", -1e-3),
    ("task", "duration", "1e-3"),
    ("task", "duration", True),
    ("task", "comm_bytes", float("nan")),
    ("task", "comm_bytes", -1.0),
    ("task", "comm_bytes", "x"),
    ("task", "comm_bytes", False),
    ("task", "comm_time", 1e-3),
    ("program", "cost_model", "scaled-roofline:0"),
]


@pytest.fixture(scope="module")
def tofu_program(mlp_bundle):
    options, plan = _backend_setup("tofu-partitioned", mlp_bundle.graph)
    return Executor(ExecutorConfig(cache_programs=False)).lower(
        mlp_bundle.graph, plan=plan, machine=MACHINE,
        backend="tofu-partitioned", backend_options=options,
    )


@pytest.mark.parametrize(
    "where,field,value", TAMPERED_PROGRAMS,
    ids=[f"{field}={value!r}" for _, field, value in TAMPERED_PROGRAMS],
)
def test_tampered_program_entry_is_rejected_and_misses(
    tmp_path, mlp_bundle, tofu_program, where, field, value
):
    """A payload the simulator could not price (or priced by something
    other than the roofline and the links) never decodes; on disk it is a
    cache miss."""
    payload = program_to_dict(tofu_program)
    (payload["tasks"][0] if where == "task" else payload)[field] = value
    with pytest.raises(ExecutionError):
        program_from_dict(payload)

    cache_dir = str(tmp_path / "programs")
    key = _key(mlp_bundle.graph)
    ProgramCache(cache_dir=cache_dir).put(key, tofu_program)
    (entry_path,) = Path(cache_dir).glob("*.json")
    entry_path.write_text(json.dumps({"key": key, "program": payload}))
    cache = ProgramCache(cache_dir=cache_dir)
    assert cache.get(key) is None
    assert cache.misses == 1


def test_null_pricing_fields_of_old_payloads_still_decode(tofu_program):
    payload = program_to_dict(tofu_program)
    assert "cost_model" not in payload
    assert all("comm_time" not in row for row in payload["tasks"])
    payload["cost_model"] = None
    for row in payload["tasks"]:
        row["comm_time"] = None
    assert program_from_dict(payload).tasks == tofu_program.tasks


# ---------------------------------------------------------------- aliasing


def _lowerer(graph, backend="tofu-partitioned"):
    """``lower(executor)`` for one fixed request: the plan is searched once,
    so every call addresses the same cache key."""
    options, plan = _backend_setup(backend, graph)
    return lambda executor: executor.lower(
        graph, plan=plan, machine=MACHINE, backend=backend,
        backend_options=options,
    )


def test_hit_shares_the_dense_form(mlp_bundle):
    lower = _lowerer(mlp_bundle.graph)
    executor = Executor(ExecutorConfig(program_cache_capacity=8))
    fresh, hit, again = lower(executor), lower(executor), lower(executor)
    assert fresh.task_graph is hit.task_graph is again.task_graph
    assert hit.tasks == fresh.tasks == again.tasks
    # One compile for the machine, shared by every copy.
    assert hit.dense_form() is fresh.dense_form() is again.dense_form()
    # The sharded graph is immutable content too.
    assert fresh.sharded_graph is hit.sharded_graph is again.sharded_graph


def test_edits_to_a_returned_program_never_reach_a_later_hit(mlp_bundle):
    lower = _lowerer(mlp_bundle.graph)
    executor = Executor(ExecutorConfig(program_cache_capacity=8))
    fresh = lower(executor)
    pristine = dict(fresh.tasks)
    memory = dict(fresh.per_device_memory)
    fetch = dict(fresh.fetch_bytes_per_node)
    # Edit both the program that was put and a program a hit returned.
    for program in (fresh, lower(executor)):
        first = next(iter(program.tasks))
        task = program.tasks[first]
        edited = program.replace_tasks({
            first: dataclasses.replace(task, duration=task.duration * 2),
            "extra": Task(name="extra", device=0, duration=1.0),
        })
        assert edited.tasks[first].duration == task.duration * 2
        assert list(edited.tasks) == list(pristine) + ["extra"]
        assert program.tasks[first] == task
        program.per_device_memory[0] = 0
        program.stats["extra"] = 1.0
    # A hit owns its per-node bytes (the put program shares its plan's).
    lower(executor).fetch_bytes_per_node.clear()
    later = lower(executor)
    assert later.tasks == pristine
    assert list(later.tasks) == list(pristine)
    assert later.per_device_memory == memory
    assert "extra" not in later.stats
    assert later.fetch_bytes_per_node == fetch


def test_task_view_rejects_item_assignment(mlp_bundle):
    program = _lowerer(mlp_bundle.graph)(
        Executor(ExecutorConfig(program_cache_capacity=8))
    )
    name, task = next(iter(program.tasks.items()))
    with pytest.raises(TypeError):
        program.tasks[name] = task
    with pytest.raises(TypeError):
        del program.tasks[name]
    assert name in program.tasks


def test_task_fields_cannot_be_assigned(mlp_bundle):
    program = _lowerer(mlp_bundle.graph)(
        Executor(ExecutorConfig(program_cache_capacity=8))
    )
    task = next(iter(program.tasks.values()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.duration = 0.0


@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_disk_tier_decodes_bit_identically(tmp_path, mlp_bundle, backend):
    store = str(tmp_path / "store")
    lower = _lowerer(mlp_bundle.graph, backend)
    fresh = lower(Executor(ExecutorConfig(program_cache_dir=store)))
    # A second executor over the same directory starts with an empty memory
    # tier, so its hit decodes the disk payload.
    reader = Executor(ExecutorConfig(program_cache_dir=store))
    decoded = lower(reader)
    assert reader.program_cache.info()["hits"] == 1
    assert decoded.tasks == fresh.tasks
    assert list(decoded.tasks) == list(fresh.tasks)
    assert reader.simulate(decoded) == reader.simulate(fresh)
    # The decoded program now lives in the memory tier: the next hit shares
    # its dense form instead of decoding again.
    again = lower(reader)
    assert again.task_graph is decoded.task_graph


def test_directory_written_by_the_v1_codec_still_hits(tmp_path):
    """``tests/data/program_cache_v1`` holds two entries for a small MLP on
    two K80s (a tofu-partitioned program and a 2-stage pipeline), written
    when the memory tier still stored JSON payloads.  Their keys must still
    address them, and they must decode to the programs a fresh lowering
    produces.  A plan's key covers its recorded search time, so the tofu
    request reuses the plan stored in its own entry."""
    store = tmp_path / "store"
    shutil.copytree(DATA / "program_cache_v1", store)
    graph = build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2, num_classes=16
    ).graph
    machine = k80_8gpu_machine(2)
    payloads = [
        json.loads(path.read_text(encoding="utf-8"))["program"]
        for path in sorted(store.glob("*.json"))
    ]
    plan = next(
        plan_from_dict(payload["plan"]) for payload in payloads
        if payload["backend"] == "tofu-partitioned"
    )
    requests = [
        {"plan": plan, "backend": "tofu-partitioned"},
        {
            "backend": "pipeline",
            "backend_options": {"num_stages": 2, "num_microbatches": 2},
        },
    ]
    reader = Executor(ExecutorConfig(program_cache_dir=str(store)))
    cold = Executor(ExecutorConfig(cache_programs=False))
    for request in requests:
        hit = reader.lower(graph, machine=machine, **request)
        fresh = cold.lower(graph, machine=machine, **request)
        assert hit.tasks == fresh.tasks
        assert cold.simulate(hit) == cold.simulate(fresh)
    info = reader.program_cache.info()
    assert info["hits"] == 2 and info["misses"] == 0
