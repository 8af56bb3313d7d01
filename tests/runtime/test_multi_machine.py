"""Multi-machine execution: per-link contention, link-priced transfers, and
the cluster-aware pipeline stage placement (the acceptance regression: on a
2-machine cluster with a slow network, the chosen stage cut lands on the
machine boundary's cheap layer, and beats topology-blind placement)."""

from __future__ import annotations

import functools

import pytest

import repro
from repro.errors import ExecutionError, SimulationError
from repro.graph.autodiff import build_backward, build_optimizer
from repro.graph.builder import GraphBuilder
from repro.models.layers import ModelBundle, dense_layer
from repro.runtime import Executor
from repro.runtime.passes import (
    assign_pipeline_stages,
    balanced_contiguous_partition,
    layer_cut_bytes,
    full_layer_assignment,
    make_comm_task,
    pipeline_stage_devices,
)
from repro.sim.costmodel import node_kernel_time
from repro.runtime.program import program_from_dict, program_to_dict
from repro.sim.device import (
    ClusterSpec, cluster_of, k80_8gpu_machine, v100_machine,
)
from repro.sim.engine import HOST_DEVICE, Task, TaskGraphBuilder, TaskGraphSimulator
from tests.support.sim_oracle import run_reference


def build_bottleneck_mlp(widths, *, batch_size=64, input_dim=1024):
    """An MLP whose hidden widths vary per layer: the cut after a narrow
    layer moves few activation bytes, the cut after a wide one moves many —
    exactly the structure that separates topology-aware stage placement from
    pure compute balancing."""
    builder = GraphBuilder("bottleneck_mlp")
    weights = []
    layer_of_node = {}
    data = builder.data("data", (batch_size, input_dim))
    labels = builder.input("labels", (batch_size,), kind="data")
    hidden, in_features = data, input_dim
    for layer, width in enumerate(widths):
        before = set(builder.graph.nodes)
        hidden = dense_layer(
            builder, hidden, in_features, width,
            prefix=f"layer{layer}", weights=weights,
        )
        in_features = width
        for node in builder.graph.nodes:
            if node not in before:
                layer_of_node[node] = layer
    before = set(builder.graph.nodes)
    logits = dense_layer(
        builder, hidden, in_features, 64,
        activation=None, prefix="classifier", weights=weights,
    )
    loss_vec = builder.apply(
        "softmax_cross_entropy", [logits, labels], name="ce_loss"
    )
    loss = builder.apply("reduce_mean_all", [loss_vec], name="loss")
    builder.mark_output(loss)
    for node in builder.graph.nodes:
        if node not in before:
            layer_of_node[node] = len(widths)
    build_backward(builder, loss, weights)
    build_optimizer(builder, weights)
    graph = builder.finish()
    graph.metadata["layer_of_node"] = layer_of_node
    return ModelBundle(
        graph=graph, weights=weights, loss=loss, batch_size=batch_size,
        name="bottleneck-mlp", layer_of_node=layer_of_node,
    )


@pytest.fixture(scope="module")
def bottleneck_bundle():
    # Five hidden layers: wide everywhere except the 32-wide neck at layer
    # 2, placed right next to the compute-balance point — so the flat DP
    # cuts between the fat layers 1 and 2 (moving a 4 KB-per-sample
    # activation + its gradient) while one cheap position over sits the
    # neck's 32-wide boundary.
    return build_bottleneck_mlp([4096, 4096, 32, 4096, 4096])


def slow_network_cluster(gpus_per_machine=1):
    """Two K80 boxes whose interconnect is ~10x slower than PCI-e p2p."""
    machine = k80_8gpu_machine(gpus_per_machine)
    return cluster_of(machine, 2, network_bandwidth=machine.p2p_bandwidth / 10)


def _link(program, task):
    """The link comm ``task`` crosses on the machine ``program`` was
    lowered for."""
    return program.machine.link_between(task.src_device, task.dst_device)


class TestEnginePerLinkQueues:
    def test_transfers_on_different_nics_overlap(self):
        cluster = cluster_of(k80_8gpu_machine(2), 3)
        gb = 1e9
        tasks = TaskGraphBuilder()
        make_comm_task(tasks, "a", 2, gb, src=0)
        make_comm_task(tasks, "b", 4, gb, src=0)
        result = TaskGraphSimulator(cluster).run(tasks, check_memory=False)
        single = cluster.network_link(1).transfer_time(gb)
        # Different destination NICs: both finish in one transfer time.
        assert result.iteration_time == pytest.approx(single)
        assert set(result.per_link_busy_time) == {"net:m1", "net:m2"}

    def test_transfers_on_one_nic_serialise(self):
        cluster = cluster_of(k80_8gpu_machine(2), 2)
        gb = 1e9
        tasks = TaskGraphBuilder()
        make_comm_task(tasks, "a", 2, gb, src=0)
        make_comm_task(tasks, "b", 3, gb, src=1)
        result = TaskGraphSimulator(cluster).run(tasks, check_memory=False)
        single = cluster.network_link(1).transfer_time(gb)
        assert result.iteration_time == pytest.approx(2 * single)
        assert result.network_busy_time() == pytest.approx(2 * single)

    def test_cpu_links_are_per_machine(self):
        cluster = cluster_of(k80_8gpu_machine(1), 2)
        gb = 1e9
        tasks = {
            "a": Task(name="a", device=0, kind="comm", comm_bytes=gb,
                      src_device=HOST_DEVICE, dst_device=0),
            "b": Task(name="b", device=1, kind="comm", comm_bytes=gb,
                      src_device=HOST_DEVICE, dst_device=1),
        }
        result = TaskGraphSimulator(cluster).run(tasks, check_memory=False)
        # Each machine has its own host link: no serialisation across boxes.
        assert result.iteration_time == pytest.approx(
            gb / cluster.machines[0].cpu_bandwidth
        )
        assert set(result.per_link_busy_time) == {"cpu:m0", "cpu:m1"}

    def test_endpoint_validation_is_shared(self):
        # A gather into a device the topology does not have is rejected by
        # a machine and a cluster alike, on both simulator paths — never
        # queued on a link that does not exist.
        task = Task(name="t", device=99, kind="comm", comm_bytes=1.0,
                    dst_device=99)
        for topology in (v100_machine(4), cluster_of(v100_machine(4), 2)):
            simulator = TaskGraphSimulator(topology)
            for run in (simulator.run, functools.partial(run_reference, topology)):
                with pytest.raises(
                    SimulationError, match="'t'.*index 99 out of range"
                ):
                    run({"t": task}, check_memory=False)

    def test_net_channel_requires_resolved_link(self, mlp_bundle):
        # A version-1 payload's bare 'net' channel names no endpoints.
        program = Executor().lower(
            mlp_bundle.graph, machine=cluster_of(k80_8gpu_machine(2), 2),
            backend="data-parallel",
        )
        payload = program_to_dict(program)
        payload["version"] = 1
        for row in payload["tasks"]:
            row.update(channel="p2p", link=None)
        row = next(row for row in payload["tasks"] if row["kind"] == "comm")
        row["channel"] = "net"
        with pytest.raises(ExecutionError, match="without a resolved link"):
            program_from_dict(payload)


class TestStagePlacement:
    def test_single_machine_stage_devices_are_identity(self):
        machine = k80_8gpu_machine(4)
        assert pipeline_stage_devices(machine, 3) == [0, 1, 2]

    def test_stages_spread_across_machines_proportionally(self):
        cluster = cluster_of(k80_8gpu_machine(4), 2)
        assert pipeline_stage_devices(cluster, 2) == [0, 4]
        assert pipeline_stage_devices(cluster, 4) == [0, 1, 4, 5]
        # Odd counts keep the extra stage on the first machine.
        assert pipeline_stage_devices(cluster, 3) == [0, 1, 4]

    def test_stage_count_capped_by_machine_capacity(self):
        cluster = ClusterSpec(
            machines=[k80_8gpu_machine(1), k80_8gpu_machine(3)]
        )
        devices = pipeline_stage_devices(cluster, 4)
        assert devices == [0, 1, 2, 3]  # machine 0 can only host one stage

    def test_layer_cut_bytes_tracks_boundary_tensors(self, bottleneck_bundle):
        graph = bottleneck_bundle.graph
        layer_of = full_layer_assignment(graph)
        layers = sorted(set(layer_of.values()))
        cuts = layer_cut_bytes(graph, layer_of, layers)
        assert cuts[0] == 0.0
        # The cut after the 32-wide neck (position 3) moves far fewer bytes
        # than the cut after a 4096-wide layer (position 1/2/4).
        assert cuts[3] < cuts[2] / 10
        assert cuts[3] < cuts[4] / 10

    def test_chosen_cut_lands_on_the_machine_boundary_neck(
        self, bottleneck_bundle
    ):
        """The acceptance regression, pass-level: with a 10x slower network
        the DP moves the cross-machine cut to the cheap (narrow) boundary."""
        cluster = slow_network_cluster()
        graph = bottleneck_bundle.graph
        aware = assign_pipeline_stages(graph, cluster, 2)
        # The blind oracle: compute balance over the same per-layer costs.
        layer_of = full_layer_assignment(graph)
        layers = sorted(set(layer_of.values()))
        costs = [0.0] * len(layers)
        for node in graph.nodes:
            costs[layers.index(layer_of[node])] += node_kernel_time(
                graph, node, cluster.device(0), cluster
            )
        (_, blind_cut), _ = balanced_contiguous_partition(costs, 2)
        # Topology-aware placement cuts right after the 32-wide neck...
        assert aware.stage_of_layer[2] == 0
        assert aware.stage_of_layer[3] == 1
        # ... while compute balance, blind to the link, cuts a fat boundary.
        assert blind_cut <= layers.index(2)
        assert aware.stage_devices == [0, 1]
        assert cluster.machine_of(aware.stage_devices[0]) == 0
        assert cluster.machine_of(aware.stage_devices[1]) == 1


class TestClusterBackends:
    def test_data_parallel_ring_crosses_the_network(self, mlp_bundle):
        cluster = cluster_of(k80_8gpu_machine(2), 2)
        report = Executor().run(
            mlp_bundle.graph, machine=cluster, backend="data-parallel"
        )
        net_tasks = [
            t for t in report.program.tasks.values()
            if t.kind == "comm" and _link(report.program, t).kind == "net"
        ]
        # Devices 1 and 3 have their ring neighbour on the other machine.
        assert {t.device for t in net_tasks} == {1, 3}
        assert report.result.network_busy_time() > 0

    def test_hybrid_all_reduce_prices_inter_machine_hops(self, mlp_bundle):
        cluster = cluster_of(k80_8gpu_machine(2), 2)
        plan = repro.Planner().plan(mlp_bundle.graph, 2)
        report = Executor().run(
            mlp_bundle.graph, plan=plan, machine=cluster,
            backend="hybrid",
            backend_options={"replica_groups": 2, "inner": "tofu-partitioned"},
        )
        reduce_tasks = [
            t for name, t in report.program.tasks.items()
            if name.startswith("allreduce")
        ]
        assert len(reduce_tasks) == 4
        # Groups align with machines: every cross-group hop is a net hop.
        assert all(
            _link(report.program, t).kind == "net" for t in reduce_tasks
        )
        # A faster network shrinks the iteration, all else equal.
        fast = cluster_of(k80_8gpu_machine(2), 2, network_bandwidth=100e9)
        faster = Executor().run(
            mlp_bundle.graph, plan=plan, machine=fast,
            backend="hybrid",
            backend_options={"replica_groups": 2, "inner": "tofu-partitioned"},
        )
        assert faster.result.iteration_time < report.result.iteration_time

    def test_hybrid_mixes_intra_and_inter_machine_hops(self, mlp_bundle):
        # 4 groups of 2 on a 2x4 cluster: the group ring 0->1->2->3->0 hops
        # within machine 0 (group 0->1), across to machine 1 (1->2), within
        # machine 1 (2->3), and back across (3->0) — so exactly half the
        # all-reduce tasks price the network and half stay on PCI-e.
        cluster = cluster_of(k80_8gpu_machine(4), 2)
        plan = repro.Planner().plan(mlp_bundle.graph, 2)
        program = Executor().lower(
            mlp_bundle.graph, plan=plan, machine=cluster,
            backend="hybrid",
            backend_options={"replica_groups": 4, "inner": "tofu-partitioned"},
        )
        reduce_tasks = {
            name: t for name, t in program.tasks.items()
            if name.startswith("allreduce")
        }
        assert len(reduce_tasks) == 8
        kind = {n: _link(program, t).kind for n, t in reduce_tasks.items()}
        net = {n for n in kind if kind[n] == "net"}
        p2p = {n for n in kind if kind[n] == "p2p"}
        assert len(net) == len(p2p) == 4
        assert all("grp1" in n or "grp3" in n for n in net)

    def test_hybrid_straddling_group_prices_its_machine_boundary(
        self, mlp_bundle
    ):
        # 3 groups of 2 on a 2x3 cluster: group 0 = {0,1} (machine 0),
        # group 1 = {2,3} (straddles the boundary!), group 2 = {4,5}
        # (machine 1).  The straddling group's *internal* partitioned-fetch
        # traffic must price the network, not clone group 0's all-PCI-e
        # program.
        cluster = cluster_of(k80_8gpu_machine(3), 2)
        plan = repro.Planner().plan(mlp_bundle.graph, 2)
        program = Executor().lower(
            mlp_bundle.graph, plan=plan, machine=cluster,
            backend="hybrid",
            backend_options={"replica_groups": 3, "inner": "tofu-partitioned"},
        )
        net_by_group = {
            group: [
                t for name, t in program.tasks.items()
                if name.endswith(f"@grp{group}") and t.kind == "comm"
                and _link(program, t).kind == "net"
                and not name.startswith("allreduce")
            ]
            for group in range(3)
        }
        assert not net_by_group[0], "group 0 sits inside machine 0"
        assert not net_by_group[2], "group 2 sits inside machine 1"
        assert net_by_group[1], (
            "the straddling group's internal fetches must cross the network"
        )
        # Its net transfers really land on machine NICs, shifted correctly.
        assert {_link(program, t).key for t in net_by_group[1]} <= {
            "net:m0", "net:m1"
        }
        for task in net_by_group[1]:
            assert task.device in (2, 3)

    def test_tofu_partitioned_splits_fetch_across_links(self, mlp_bundle):
        cluster = cluster_of(k80_8gpu_machine(2), 2)
        plan = repro.Planner().plan(mlp_bundle.graph, 4)
        report = Executor().run(
            mlp_bundle.graph, plan=plan, machine=cluster,
            backend="tofu-partitioned",
        )
        names = set(report.program.tasks)
        net_fetches = [n for n in names if n.endswith(":netfetch")]
        assert net_fetches, "cross-machine shards must fetch over the network"
        # Half the workers are remote, so local and net shares are equal.
        some = net_fetches[0].replace(":netfetch", "")
        local = report.program.tasks[f"{some}:fetch"]
        remote = report.program.tasks[f"{some}:netfetch"]
        assert local.comm_bytes == pytest.approx(remote.comm_bytes)
        # Aggregate volume matches the flat model's accounting.
        flat = Executor().run(
            mlp_bundle.graph, plan=plan,
            machine=k80_8gpu_machine(4), backend="tofu-partitioned",
        )
        assert report.program.total_comm_bytes == pytest.approx(
            flat.program.total_comm_bytes
        )

    def test_placement_copies_cross_machines_over_net(self, mlp_bundle):
        cluster = cluster_of(k80_8gpu_machine(2), 2)
        device_of_node = {
            node: index % 4
            for index, node in enumerate(mlp_bundle.graph.nodes)
        }
        program = Executor().lower(
            mlp_bundle.graph, machine=cluster, backend="placement",
            backend_options={"device_of_node": device_of_node},
        )
        kinds = {
            _link(program, t).kind for t in program.tasks.values()
            if t.kind == "comm"
        }
        assert "net" in kinds and "p2p" in kinds
