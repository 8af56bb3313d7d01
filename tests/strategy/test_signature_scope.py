"""One graph serialisation per graph, and a graph that cannot change under it.

The first :func:`repro.caching.graph_signature` of a graph (the first compile
takes it for the plan-cache key) freezes the graph and stores the hash on
it.  Every later compile reuses the stored hash, so a warm compile
serialises nothing.  That is safe only because a frozen graph cannot change:
every edit of what the signature covers raises a coded ``GraphError``.  An
editable copy is ``graph_from_dict(graph_to_dict(g))``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import repro
from repro import caching
from repro.caching import graph_signature
from repro.errors import GraphError
from repro.graph import OpNode, TensorSpec, graph_from_dict, graph_to_dict
from repro.graph.frozen import FROZEN_GRAPH
from repro.models.mlp import build_mlp
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine
from repro.tuner import Tuner, TunerBudget

MACHINE = k80_8gpu_machine(4)


def _bundle():
    return build_mlp(
        batch_size=32, input_dim=256, hidden_dim=256, num_layers=3,
        num_classes=64,
    )


@pytest.fixture
def graph():
    """A fresh small MLP per test (freezing is permanent)."""
    return _bundle().graph


@pytest.fixture
def serialisations(monkeypatch):
    """Every graph ``graph_signature`` serialises, in call order."""
    calls = []
    original = caching.graph_to_dict

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(caching, "graph_to_dict", counting)
    return calls


def _private_caches():
    return (
        Planner(PlannerConfig(cache_capacity=8)),
        Executor(ExecutorConfig(program_cache_capacity=8)),
    )


def _first_node(graph):
    return next(iter(graph.nodes.values()))


def _first_weight(graph):
    return graph.tensor(graph.metadata["weights"][0])


#: Every edit path a signed graph must refuse, one per case.
EDITS = {
    "add_tensor": lambda g: g.add_tensor(TensorSpec("extra", (4,))),
    "add_node": lambda g: g.add_node(
        OpNode("extra", "relu", [_first_weight(g).name], [])
    ),
    "graph.name": lambda g: setattr(g, "name", "renamed"),
    "graph.nodes[name]": lambda g: g.nodes.__setitem__("extra", _first_node(g)),
    "graph.tensors.pop": lambda g: g.tensors.pop(_first_weight(g).name),
    "graph.metadata": lambda g: setattr(g, "metadata", {}),
    "metadata[key]": lambda g: g.metadata.__setitem__("note", 1),
    "metadata.update": lambda g: g.metadata.update(note=1),
    "metadata.pop": lambda g: g.metadata.pop("loss"),
    "metadata nested dict": lambda g: g.metadata["grad_of"].__setitem__("x", "y"),
    "metadata nested list": lambda g: g.metadata["weights"].append("w"),
    "metadata list in dict": lambda g: next(
        iter(g.metadata["bwd_nodes_of"].values())
    ).append("n"),
    "node.inputs": lambda g: _first_node(g).inputs.append("x"),
    "node.inputs[i]": lambda g: _first_node(g).inputs.__setitem__(0, "x"),
    "node.outputs": lambda g: _first_node(g).outputs.clear(),
    "node.attrs": lambda g: _first_node(g).attrs.__setitem__("note", 1),
    "node.op": lambda g: setattr(_first_node(g), "op", "relu"),
    "node.inputs =": lambda g: setattr(_first_node(g), "inputs", []),
    "tensor.shape": lambda g: setattr(_first_weight(g), "shape", (1,)),
    "tensor.kind": lambda g: setattr(_first_weight(g), "kind", "state"),
    "tensor.attrs": lambda g: _first_weight(g).attrs.__setitem__("note", 1),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_every_edit_of_a_compiled_graph_raises(graph, edit):
    repro.compile(graph, "tofu", MACHINE, lower_only=True)
    signature = graph.signature
    assert graph.frozen and signature is not None
    with pytest.raises(GraphError) as info:
        EDITS[edit](graph)
    assert info.value.code == FROZEN_GRAPH
    assert graph_signature(graph) == signature


def test_a_bundles_own_metadata_cannot_edit_the_signed_graph():
    bundle = _bundle()
    signature = graph_signature(bundle.graph)
    node = next(iter(bundle.layer_of_node))
    bundle.layer_of_node[node] = 99  # the caller's dict, not the graph's
    assert bundle.graph.metadata["layer_of_node"][node] != 99
    assert graph_signature(graph_from_dict(graph_to_dict(bundle.graph))) == signature


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_a_copy_of_a_frozen_graph_is_editable(graph, edit):
    graph_signature(graph)
    editable = graph_from_dict(graph_to_dict(graph))
    assert not editable.frozen
    assert editable.nodes == graph.nodes and editable.tensors == graph.tensors
    assert graph_signature(graph_from_dict(graph_to_dict(graph))) == graph.signature
    EDITS[edit](editable)


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g)),
], ids=["deepcopy", "pickle"])
def test_a_cloned_frozen_graph_stays_frozen_and_signed(graph, clone):
    signature = graph_signature(graph)
    cloned = clone(graph)
    assert cloned.frozen and cloned.signature == signature
    assert graph_to_dict(cloned) == graph_to_dict(graph)
    assert _first_node(cloned) == _first_node(graph)
    with pytest.raises(GraphError):
        _first_node(cloned).attrs["note"] = 1


def test_a_frozen_specs_reshaped_copy_is_editable(graph):
    graph_signature(graph)
    spec = _first_weight(graph).with_shape((2, 2))
    spec.kind = "state"
    spec.attrs["note"] = 1
    assert _first_weight(graph).kind == "weight"


def test_an_edited_copy_misses_both_caches(graph):
    planner, executor = _private_caches()
    repro.compile(graph, "tofu", MACHINE, planner=planner, executor=executor)
    editable = graph_from_dict(graph_to_dict(graph))
    _first_node(editable).attrs["note"] = "edited"
    repro.compile(editable, "tofu", MACHINE, planner=planner, executor=executor)
    assert graph_signature(editable) != graph_signature(graph)
    assert planner.cache.info()["hits"] == 0
    assert executor.program_cache.info()["hits"] == 0


def test_a_warm_compile_serialises_nothing(graph, serialisations):
    planner, executor = _private_caches()
    repro.compile(graph, "tofu", MACHINE, planner=planner, executor=executor)
    assert serialisations == [graph]
    serialisations.clear()
    repro.compile(graph, "tofu", MACHINE, planner=planner, executor=executor)
    assert serialisations == []
    assert executor.program_cache.info()["hits"] == 1
    assert planner.cache.info()["hits"] == 1


def test_an_auto_sweep_serialises_at_most_once(graph, serialisations):
    planner, executor = _private_caches()
    model = repro.compile(
        graph, "auto", MACHINE, planner=planner, executor=executor,
        tuner=Tuner(budget=TunerBudget(max_candidates=6)),
    )
    assert model.metadata["tuner"]["counts"]["evaluated"] > 1
    assert len(serialisations) <= 1
