"""Dataflow graph substrate (the MXNet/NNVM stand-in)."""

from repro.graph.autodiff import build_backward, build_optimizer
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.graph.memory_planner import MemoryPlan, plan_memory
from repro.graph.node import OpNode
from repro.graph.scheduler import liveness, peak_live_bytes, topo_schedule
from repro.graph.serialization import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    load_graph,
    save_graph,
)
from repro.graph.shape_inference import check_shapes, graph_flops, node_bytes, node_flops
from repro.graph.tensor import DTYPE_SIZES, TensorSpec, split_dim

__all__ = [
    "DTYPE_SIZES",
    "Graph",
    "GraphBuilder",
    "MemoryPlan",
    "OpNode",
    "TensorSpec",
    "build_backward",
    "build_optimizer",
    "check_shapes",
    "graph_flops",
    "graph_from_dict",
    "graph_from_json",
    "graph_to_dict",
    "graph_to_json",
    "liveness",
    "load_graph",
    "node_bytes",
    "node_flops",
    "peak_live_bytes",
    "plan_memory",
    "save_graph",
    "split_dim",
    "topo_schedule",
]
