"""Lowered-program cache: hits are bit-identical to fresh lowering, the
content address invalidates on every semantic input, and the memory LRU
accounts for eviction.  The programs live in memory only; the plan store's
disk tier must serve hits from a copied directory and treat a corrupt entry
as a miss.

The parity half mirrors ``test_cluster_parity``: every registered execution
backend, on the bare machine and the one-machine cluster, must simulate a
cache-hit program to *exactly* the result of the freshly lowered one — no
tolerance.

The aliasing half pins the memory tier's sharing contract: hits share the
cached program's immutable dense task graph (and the compiled form cached
on it), and no edit of a returned program — its containers, or its tasks
through a copy given a new task dict — ever reaches a later hit.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.partition.plan import plan_to_dict
from repro.partition.recursive import recursive_partition
from repro.planner import Planner, PlannerConfig
from repro.runtime import (
    Executor,
    ExecutorConfig,
    ProgramCache,
    available_execution_backends,
    lowered_cache_key,
)
from repro.sim.device import ClusterSpec, cluster_of, k80_8gpu_machine
from repro.sim.engine import Task

MACHINE = k80_8gpu_machine(4)
CLUSTER = ClusterSpec(machines=[MACHINE])


def _backend_setup(name, graph):
    """(options, plan) each registered backend needs on the 4-GPU fixture."""
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


# ---------------------------------------- eviction and the plan disk tier


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


def test_copied_store_hits(tmp_path, mlp_bundle):
    """A store moves between hosts by copying its directory."""
    source = Planner(PlannerConfig(cache_dir=str(tmp_path / "src")))
    fresh = source.plan(mlp_bundle.graph, 4, machine=MACHINE)
    shutil.copytree(tmp_path / "src", tmp_path / "dst")

    target = Planner(PlannerConfig(cache_dir=str(tmp_path / "dst")))
    restored = target.plan(mlp_bundle.graph, 4, machine=MACHINE)
    assert (target.cache.hits, target.cache.misses) == (1, 0)
    assert plan_to_dict(restored) == plan_to_dict(fresh)


#: Plan disk entries a lookup must treat as a miss.
#: Each maps the stored entry to the text written over it; the last two
#: hold a sound plan but were not written under this file's key.
CORRUPT_ENTRIES = {
    "not-json": lambda entry: "not json",
    "top-level-list": lambda entry: "[]",
    "payload-list": lambda entry: '{"plan": []}',
    "payload-undecodable": lambda entry: '{"plan": {"garbage": 1}}',
    "key-missing": lambda entry: json.dumps({"plan": entry["plan"]}),
    "key-differs": lambda entry: json.dumps({**entry, "key": "0" * 64}),
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPT_ENTRIES))
def test_corrupt_plan_entry_is_a_miss(tmp_path, mlp_bundle, corrupt):
    """Corrupt the one entry a compile stored, then check the next compile
    misses, plans the same steps and overwrites the entry."""
    import repro

    cache_dir = str(tmp_path / "plans")

    def compile_once():
        planner = Planner(PlannerConfig(cache_dir=cache_dir))
        model = repro.compile(mlp_bundle.graph, "tofu", MACHINE,
                              planner=planner, lower_only=True)
        return planner.cache, model.plan.steps

    fresh = compile_once()[1]
    (entry_path,) = Path(cache_dir).glob("*.json")
    entry_path.write_text(
        CORRUPT_ENTRIES[corrupt](json.loads(entry_path.read_text()))
    )
    cache, rebuilt = compile_once()
    assert (cache.hits, cache.misses) == (0, 1)
    assert rebuilt == fresh
    assert json.loads(entry_path.read_text())["key"] == entry_path.stem
    cache, _ = compile_once()
    assert (cache.hits, cache.misses) == (1, 0)


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
        edited = dataclasses.replace(program.copy(), tasks={
            **program.tasks,
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
