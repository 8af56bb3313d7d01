"""The bisecting memory planner assigns exactly the buffers the
sort-and-scan allocator it replaced did (``memory_oracle``)."""

import pytest

from repro.graph.memory_planner import plan_memory
from repro.partition.apply import build_sharded_graph
from repro.partition.recursive import recursive_partition

from .memory_oracle import sort_and_scan_plan_memory

def _assert_same_plan(graph):
    for allow_reuse in (True, False):
        kwargs = {"allow_reuse": allow_reuse}
        expected = sort_and_scan_plan_memory(graph, **kwargs)
        actual = plan_memory(graph, **kwargs)
        assert actual.buffer_of == expected.buffer_of, kwargs
        assert actual.buffer_sizes == expected.buffer_sizes, kwargs
        assert actual.peak_bytes == expected.peak_bytes, kwargs


@pytest.mark.parametrize("bundle_name", ["mlp_bundle", "rnn_bundle", "cnn_bundle"])
def test_model_graphs(request, bundle_name):
    _assert_same_plan(request.getfixturevalue(bundle_name).graph)


@pytest.mark.parametrize("bundle_name", ["mlp_bundle", "rnn_bundle", "cnn_bundle"])
def test_tofu_shard_graphs(request, bundle_name):
    graph = request.getfixturevalue(bundle_name).graph
    _assert_same_plan(build_sharded_graph(graph, recursive_partition(graph, 4)))
