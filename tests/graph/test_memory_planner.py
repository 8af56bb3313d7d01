"""Tests for liveness analysis and the static memory planner."""


from repro.graph.builder import GraphBuilder
from repro.graph.memory_planner import plan_memory
from repro.graph.scheduler import liveness, peak_live_bytes, topo_schedule

from .memory_oracle import sort_and_scan_plan_memory


def _chain_graph(length=6, size=256):
    b = GraphBuilder("chain")
    x = b.data("x", (size, size))
    h = x
    for i in range(length):
        h = b.relu(h, name=f"r{i}")
    b.mark_output(h)
    return b.finish()


class TestScheduler:
    def test_schedule_is_topological(self, mlp_bundle):
        graph = mlp_bundle.graph
        schedule = topo_schedule(graph)
        position = {n: i for i, n in enumerate(schedule)}
        for node in graph.nodes.values():
            for t in node.inputs:
                producer = graph.tensor(t).producer
                if producer is not None:
                    assert position[producer] < position[node.name]

    def test_liveness_spans_producer_to_last_consumer(self):
        g = _chain_graph(3)
        schedule = topo_schedule(g)
        spans = liveness(g, schedule)
        assert spans["x"][0] == -1
        assert spans["r0"] == (0, 1)
        assert spans["r1"] == (1, 2)

    def test_persistent_tensors_live_to_the_end(self, mlp_bundle):
        graph = mlp_bundle.graph
        spans = liveness(graph)
        horizon = len(topo_schedule(graph))
        for name, spec in graph.tensors.items():
            if spec.is_persistent():
                assert spans[name][1] == horizon

    def test_peak_live_bytes_bounds_planner(self, mlp_bundle):
        graph = mlp_bundle.graph
        assert plan_memory(graph).peak_bytes <= peak_live_bytes(graph) * 1.01 + 1024


class TestMemoryPlanner:
    def test_chain_reuses_buffers(self):
        g = _chain_graph(8)
        plan = plan_memory(g)
        # A chain of same-sized element-wise ops needs only a couple of
        # transient buffers regardless of its length.
        transient_buffers = plan.num_buffers - 1  # minus the input
        assert transient_buffers <= 3

    def test_no_reuse_scales_with_depth(self):
        g = _chain_graph(8)
        with_reuse = plan_memory(g, allow_reuse=True).pool_bytes
        without = plan_memory(g, allow_reuse=False).pool_bytes
        assert without > with_reuse * 2

    def test_peak_includes_persistent(self, mlp_bundle):
        plan = plan_memory(mlp_bundle.graph)
        assert plan.peak_bytes == plan.persistent_bytes + plan.pool_bytes
        assert plan.persistent_bytes > 0

    def test_inplace_reduces_footprint(self, mlp_bundle):
        graph = mlp_bundle.graph
        with_inplace = plan_memory(graph).peak_bytes
        without = sort_and_scan_plan_memory(graph, allow_inplace=False).peak_bytes
        assert with_inplace <= without

    def test_weight_memory_roughly_3x(self, mlp_bundle):
        """Weight + gradient + adagrad history should be ~3x the weight bytes
        (the paper's Sec 7.1 accounting)."""
        graph = mlp_bundle.graph
        weight_bytes = graph.weight_bytes()
        plan = plan_memory(graph)
        persistent_and_grads = plan.persistent_bytes
        # persistent = weights + history (2x); gradients live in the pool.
        assert persistent_and_grads >= 2 * weight_bytes * 0.9

    def test_summary_format(self, mlp_bundle):
        text = plan_memory(mlp_bundle.graph).summary()
        assert "peak=" in text and "GiB" in text
