"""Figure 10 — quality of the partition found by different algorithms.

The paper runs AllRow-Greedy, Spartan, EqualChop, ICML18 and Tofu on RNN-4-8K
(batch 512) and WResNet-152-10 (batch 8) and reports per-batch execution time
with the communication share highlighted.  The shape to reproduce: Tofu is
fastest; AllRow-Greedy is worst (and OOMs on WResNet-152-10); ICML18 is close
to Tofu on the RNN but OOMs on WResNet-152-10 because it lacks output
reduction.
"""

from common import FULL, once, print_header
from repro.models.resnet import build_wide_resnet
from repro.models.rnn import build_rnn
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor
from repro.sim.device import k80_8gpu_machine

ORDER = ["allrow-greedy", "spartan", "equalchop", "icml18", "tofu"]

PAPER = {
    "RNN-4-8K": {"allrow-greedy": 24.5, "spartan": 21.1, "equalchop": 13.8, "icml18": 13.2, "tofu": 6.4},
    "WResNet-152-10": {"allrow-greedy": None, "spartan": 33.8, "equalchop": 35.2, "icml18": None, "tofu": 21.9},
}


def _run_algorithms(bundle):
    machine = k80_8gpu_machine()
    executor = Executor()
    capacity = machine.device(0).memory_bytes
    planner = Planner(PlannerConfig(cache_capacity=0))
    results = {}
    for name in ORDER:
        plan = planner.plan(bundle.graph, 8, machine=machine, backend=name)
        program = executor.lower(bundle.graph, plan=plan, machine=machine)
        result = executor.simulate(program, machine)
        oom = program.per_device_peak_bytes > capacity
        results[name] = {
            "time": result.iteration_time,
            "comm_fraction": result.comm_fraction(),
            "oom": oom,
            "comm_gib": program.total_comm_bytes / 2**30,
        }
    return results


def _print(config, results):
    print_header(f"Figure 10 — partition algorithms on {config}")
    print(f"{'algorithm':<16}{'time/batch':>12}{'comm share':>12}{'comm GiB':>10}{'paper (s)':>12}")
    for name in ORDER:
        r = results[name]
        paper = PAPER[config].get(name)
        paper_text = "OOM" if paper is None else f"{paper}"
        time_text = "OOM" if r["oom"] else f"{r['time']:.2f}s"
        print(
            f"{name:<16}{time_text:>12}{r['comm_fraction']:>11.0%}"
            f"{r['comm_gib']:>10.1f}{paper_text:>12}"
        )


def bench_fig10_rnn_4_8k(benchmark):
    batch = 512 if FULL else 256
    bundle = build_rnn(num_layers=4, hidden_size=8192, batch_size=batch)
    results = once(benchmark, lambda: _run_algorithms(bundle))
    _print("RNN-4-8K", results)
    assert results["tofu"]["time"] <= results["allrow-greedy"]["time"]
    assert results["tofu"]["time"] <= results["spartan"]["time"]
    assert results["tofu"]["comm_gib"] <= results["equalchop"]["comm_gib"] * 1.001
    # ICML18 has no output-reduction strategies, and its plan is lowered in
    # that narrower space: it must move more bytes than Tofu.
    assert results["icml18"]["comm_gib"] > results["tofu"]["comm_gib"]


def bench_fig10_wresnet_152_10(benchmark):
    widen = 10 if FULL else 8
    bundle = build_wide_resnet(depth=152, widen=widen, batch_size=8)
    results = once(benchmark, lambda: _run_algorithms(bundle))
    _print("WResNet-152-10", results)
    assert results["tofu"]["time"] <= results["spartan"]["time"]
    assert not results["tofu"]["oom"]
    # AllRow-Greedy replicates every weight, which is what blows its memory in
    # the paper; its communication volume must dwarf Tofu's.
    assert results["allrow-greedy"]["comm_gib"] > results["tofu"]["comm_gib"]
