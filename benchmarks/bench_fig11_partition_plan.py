"""Figure 11 — the partition plan Tofu finds for WResNet-152-10 on 8 GPUs.

The paper's qualitative observations to reproduce:
* both the batch and the channel dimensions end up partitioned (the plan is a
  non-trivial mix of strategies, not plain data parallelism),
* different convolution layers within one residual block can be partitioned
  differently,
* lower layers (large activations, small weights) fetch weights remotely while
  higher layers (large weights) switch to strategies that fetch activations.
"""

from collections import Counter

from common import FULL, once, print_header
from repro.models.resnet import build_wide_resnet
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor
from repro.sim.device import k80_8gpu_machine


def bench_fig11_partition_plan(benchmark):
    widen = 10 if FULL else 6
    bundle = build_wide_resnet(depth=152, widen=widen, batch_size=8)
    graph = bundle.graph

    planner = Planner(PlannerConfig(cache_capacity=0))
    plan = once(benchmark, lambda: planner.plan(graph, 8))

    conv_nodes = [
        node for node in graph.metadata["forward_nodes"]
        if graph.nodes[node].op == "conv2d"
    ]
    print_header(f"Figure 11 — partition of WResNet-152-{widen} convolutions (8 GPUs)")
    print(f"{'layer':<22}{'weight tiling':>16}{'activation tiling':>20}")
    shown = 0
    weight_tilings = Counter()
    act_tilings = Counter()
    for node_name in conv_nodes:
        node = graph.nodes[node_name]
        data, weight = node.inputs
        w_tile = plan.describe_tensor(weight, 4)
        a_tile = plan.describe_tensor(data, 4)
        weight_tilings[w_tile] += 1
        act_tilings[a_tile] += 1
        if shown < 12 or node_name.startswith("s3b2"):
            print(f"{node_name:<22}{w_tile:>16}{a_tile:>20}")
            shown += 1
    print(f"... ({len(conv_nodes)} convolutions in total)")
    print("weight tiling histogram:     ", dict(weight_tilings))
    print("activation tiling histogram: ", dict(act_tilings))

    # Lower + simulate the found plan through the runtime facade, so the
    # figure also reports what the plan costs at execution time.
    machine = k80_8gpu_machine()
    executor = Executor()
    program = executor.lower(graph, plan=plan, machine=machine)
    result = executor.simulate(program, machine)
    gib = 1 << 30
    print(
        f"simulated execution (8 GPUs): "
        f"{result.iteration_time * 1e3:.1f} ms/iter, "
        f"per-device mem {program.per_device_peak_bytes / gib:.2f} GiB, "
        f"comm {program.total_comm_bytes / gib:.2f} GiB/iter"
    )
    assert result.iteration_time > 0
    assert not result.oom

    batch_dims_used = set()
    channel_dims_used = set()
    for node_name in conv_nodes:
        data = graph.nodes[node_name].inputs[0]
        counts = plan.partition_counts(data, 4)
        if counts[0] > 1:
            batch_dims_used.add(node_name)
        if counts[1] > 1:
            channel_dims_used.add(node_name)

    # Paper observation 1: the plan mixes batch and channel partitioning.
    assert batch_dims_used or channel_dims_used
    assert len(weight_tilings) + len(act_tilings) > 2, "plan should be non-trivial"
    # Every weight ends up split across all 8 workers in total.
    for node_name in conv_nodes[:20]:
        weight = graph.nodes[node_name].inputs[1]
        counts = plan.partition_counts(weight, 4)
        product = 1
        for c in counts:
            product *= c
        assert product == 8
