"""A plan that carries its signature, and cannot change under it.

The first :func:`plan_signature` of a plan (the first compile takes it for
the program key) or the plan cache's ``put`` freezes the plan; the
signature is stored on it.  From then on every edit of the plan — its
fields, its step list, each step's fields and maps, and the per-node byte
maps — raises a ``PartitionError`` coded ``PAR001_FROZEN_PLAN``.  An
editable copy is ``plan_from_dict(plan_to_dict(p))``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.errors import PartitionError
from repro.partition import plan as plan_module
from repro.partition.plan import (
    FROZEN_PLAN,
    PartitionPlan,
    StepAssignment,
    plan_from_dict,
    plan_signature,
    plan_to_dict,
)
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor, ExecutorConfig
from repro.runtime.core import lowered_cache_key
from repro.sim.device import k80_8gpu_machine

MACHINE = k80_8gpu_machine(4)


@pytest.fixture
def plan(mlp_bundle):
    """A fresh searched plan per test (freezing is permanent), per-node
    bytes included."""
    plan = recursive_partition(mlp_bundle.graph, 4)
    assert plan.fetch_bytes_per_node is not None
    return plan


def _first_key(mapping):
    return next(iter(mapping))


def _step(plan):
    return plan.steps[0]


def _extra_step():
    return StepAssignment(
        parts=2, tensor_dims={}, op_strategies={}, comm_bytes=0.0,
        weighted_bytes=0.0,
    )


def _set(attr, value):
    return lambda p: setattr(p, attr, value)


def _set_step(attr, value):
    return lambda p: setattr(_step(p), attr, value)


def _set_item(container, value):
    def edit(p):
        mapping = container(p)
        mapping[_first_key(mapping)] = value
    return edit


def _tensor_dims(p):
    return _step(p).tensor_dims


def _op_strategies(p):
    return _step(p).op_strategies


def _fetch(p):
    return p.fetch_bytes_per_node


def _reduce(p):
    return p.reduce_bytes_per_node


#: Every edit path a frozen plan must refuse, one per case.
EDITS = {
    # PartitionPlan fields
    "num_workers": _set("num_workers", 8),
    "steps": _set("steps", []),
    "search_time_seconds": _set("search_time_seconds", 1.0),
    "algorithm": _set("algorithm", "edited"),
    "fetch_bytes_per_node": _set("fetch_bytes_per_node", {}),
    "reduce_bytes_per_node": _set("reduce_bytes_per_node", {}),
    "del-algorithm": lambda p: delattr(p, "algorithm"),
    # the step list
    "steps.append": lambda p: p.steps.append(_extra_step()),
    "steps.setitem": lambda p: p.steps.__setitem__(0, _extra_step()),
    "steps.delitem": lambda p: p.steps.__delitem__(0),
    "steps.clear": lambda p: p.steps.clear(),
    "steps.pop": lambda p: p.steps.pop(),
    "steps.insert": lambda p: p.steps.insert(0, _extra_step()),
    "steps.reverse": lambda p: p.steps.reverse(),
    # StepAssignment fields
    "step.parts": _set_step("parts", 3),
    "step.tensor_dims": _set_step("tensor_dims", {}),
    "step.op_strategies": _set_step("op_strategies", {}),
    "step.comm_bytes": _set_step("comm_bytes", 1.0),
    "step.weighted_bytes": _set_step("weighted_bytes", 1.0),
    "step.group_count": _set_step("group_count", 4),
    # a step's maps
    "tensor_dims.setitem": _set_item(_tensor_dims, 1),
    "tensor_dims.delitem": lambda p: _tensor_dims(p).__delitem__(
        _first_key(_tensor_dims(p))
    ),
    "tensor_dims.update": lambda p: _tensor_dims(p).update({"x": 0}),
    "tensor_dims.pop": lambda p: _tensor_dims(p).pop(
        _first_key(_tensor_dims(p))
    ),
    "tensor_dims.clear": lambda p: _tensor_dims(p).clear(),
    "op_strategies.setitem": _set_item(_op_strategies, "dim1"),
    "op_strategies.setdefault": lambda p: _op_strategies(p).setdefault(
        "x", "dim0"
    ),
    "op_strategies.popitem": lambda p: _op_strategies(p).popitem(),
    # the per-node byte maps
    "fetch_bytes.setitem": _set_item(_fetch, 1.0),
    "fetch_bytes.clear": lambda p: _fetch(p).clear(),
    "reduce_bytes.setitem": _set_item(_reduce, 1.0),
    "reduce_bytes.update": lambda p: _reduce(p).update({"x": 1.0}),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_every_edit_of_a_signed_plan_raises(plan, edit):
    signature = plan_signature(plan)
    snapshot = plan_to_dict(plan)
    with pytest.raises(PartitionError) as excinfo:
        EDITS[edit](plan)
    assert excinfo.value.code == FROZEN_PLAN
    assert plan_to_dict(plan) == snapshot
    assert plan.signature == signature


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_a_copy_of_a_frozen_plan_is_editable(plan, edit):
    plan_signature(plan)
    editable = plan_from_dict(plan_to_dict(plan))
    editable.fetch_bytes_per_node = dict(plan.fetch_bytes_per_node)
    editable.reduce_bytes_per_node = dict(plan.reduce_bytes_per_node)
    assert editable == plan
    EDITS[edit](editable)
    assert editable.signature is None


def test_a_cached_plan_is_frozen_at_put(plan):
    from repro.planner import PlanCache

    cache = PlanCache(capacity=2)
    cache.put("k", plan)
    assert cache.get("k") is plan
    with pytest.raises(PartitionError) as excinfo:
        plan.search_time_seconds = 0.0
    assert excinfo.value.code == FROZEN_PLAN


def test_a_frozen_plan_equals_its_editable_copy(plan):
    plan_signature(plan)
    editable = plan_from_dict(plan_to_dict(plan))
    assert editable.fetch_bytes_per_node is None
    assert plan == editable and editable == plan
    assert _step(plan) == _step(editable) and _step(editable) == _step(plan)


def test_replace_makes_an_editable_plan(plan):
    plan_signature(plan)
    pinned = dataclasses.replace(plan, search_time_seconds=0.0)
    assert type(pinned) is PartitionPlan
    assert pinned.signature is None
    pinned.algorithm = "edited"
    assert plan.algorithm != "edited"


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["deepcopy", "pickle"],
)
def test_a_cloned_frozen_plan_stays_frozen_and_signed(plan, clone):
    signature = plan_signature(plan)
    cloned = clone(plan)
    assert cloned == plan
    assert cloned.signature == signature
    with pytest.raises(PartitionError):
        _tensor_dims(cloned)[_first_key(_tensor_dims(cloned))] = 1


def test_the_signature_ignores_search_time_and_per_node_bytes(plan):
    signature = plan_signature(plan)
    other = plan_from_dict(plan_to_dict(plan))
    other.search_time_seconds = plan.search_time_seconds + 100.0
    other.fetch_bytes_per_node = {"x": 1.0}
    assert plan_signature(other) == signature


#: One edit per field the signature covers.
SIGNED_FIELDS = {
    "num_workers": _set("num_workers", 8),
    "algorithm": _set("algorithm", "edited"),
    "steps": lambda p: p.steps.append(_extra_step()),
    "step.parts": _set_step("parts", 3),
    "step.group_count": _set_step("group_count", 4),
    "step.comm_bytes": _set_step("comm_bytes", 1.5),
    "step.weighted_bytes": _set_step("weighted_bytes", 1.5),
    "step.tensor_dims": lambda p: _tensor_dims(p).update(
        {_first_key(_tensor_dims(p)): 7}
    ),
    "step.op_strategies": lambda p: _op_strategies(p).update(
        {_first_key(_op_strategies(p)): "edited"}
    ),
}


@pytest.mark.parametrize("field", sorted(SIGNED_FIELDS))
def test_the_signature_changes_with_every_step_field(plan, field):
    editable = plan_from_dict(plan_to_dict(plan))
    SIGNED_FIELDS[field](editable)
    assert plan_signature(editable) != plan_signature(plan)


def test_plans_differing_only_in_search_time_share_a_program_key(
    mlp_bundle, plan
):
    graph = mlp_bundle.graph
    again = recursive_partition(graph, 4)
    again.search_time_seconds = plan.search_time_seconds + 1.0
    assert plan_to_dict(again) != plan_to_dict(plan)
    keys = {
        lowered_cache_key(graph, MACHINE, "tofu-partitioned", {}, plan=p)
        for p in (plan, again)
    }
    assert len(keys) == 1
    executor = Executor(ExecutorConfig(program_cache_capacity=2))
    executor.lower(graph, plan=plan, machine=MACHINE)
    hit = executor.lower(graph, plan=again, machine=MACHINE)
    assert executor.program_cache.info()["hits"] == 1
    # The hit carries the caller's own plan, search time included.
    assert hit.plan is again


def test_signing_one_plan_twice_serialises_once(mlp_bundle, monkeypatch):
    plan = recursive_partition(mlp_bundle.graph, 4)
    serialised = []

    def counting(plan):
        serialised.append(plan)
        return plan_to_dict(plan)

    monkeypatch.setattr(plan_module, "plan_to_dict", counting)
    first = plan_signature(plan)
    assert plan_signature(plan) == first == plan.signature
    assert serialised == [plan]
