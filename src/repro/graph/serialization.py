"""JSON serialisation of dataflow graphs.

Useful for caching the (expensive to build) large model graphs, for debugging
partition plans offline, and for the CLI's ``dump-graph`` command.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.graph.frozen import thaw_value
from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.graph.tensor import TensorSpec


def graph_to_dict(graph: Graph) -> Dict:
    """Convert a graph to a JSON-serialisable dictionary."""
    return {
        "name": graph.name,
        "tensors": [
            {
                "name": spec.name,
                "shape": list(spec.shape),
                "dtype": spec.dtype,
                "kind": spec.kind,
            }
            for spec in graph.tensors.values()
        ],
        "nodes": [
            {
                "name": node.name,
                "op": node.op,
                "inputs": list(node.inputs),
                "outputs": list(node.outputs),
                "attrs": _jsonable_attrs(node.attrs),
            }
            for node in graph.nodes.values()
        ],
        "metadata": _jsonable_metadata(graph.metadata),
    }


def graph_from_dict(payload: Dict) -> Graph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    The graph owns editable copies of the payload's attrs and metadata, so
    ``graph_from_dict(graph_to_dict(g))`` is an editable copy of a frozen
    ``g``.
    """
    graph = Graph(payload.get("name", "graph"))
    for entry in payload["tensors"]:
        graph.add_tensor(
            TensorSpec(
                name=entry["name"],
                shape=tuple(entry["shape"]),
                dtype=entry.get("dtype", "float32"),
                kind=entry.get("kind", "activation"),
            )
        )
    for entry in payload["nodes"]:
        graph.add_node(
            OpNode(
                name=entry["name"],
                op=entry["op"],
                inputs=list(entry["inputs"]),
                outputs=list(entry["outputs"]),
                attrs=_restore_attrs(entry.get("attrs", {})),
            )
        )
    graph.metadata.update(thaw_value(payload.get("metadata", {})))
    return graph


def graph_to_json(graph: Graph, indent: int = None) -> str:
    return json.dumps(graph_to_dict(graph), indent=indent)


def graph_from_json(text: str) -> Graph:
    return graph_from_dict(json.loads(text))


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(graph))


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def _jsonable_attrs(attrs: Dict) -> Dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, tuple):
            out[key] = {"__tuple__": list(value)}
        else:
            out[key] = value
    return out


def _restore_attrs(attrs: Dict) -> Dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, dict) and "__tuple__" in value:
            out[key] = tuple(value["__tuple__"])
        else:
            out[key] = thaw_value(value)
    return out


def _jsonable_metadata(metadata: Dict) -> Dict:
    out = {}
    for key, value in metadata.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        out[key] = value
    return out
