"""Ablation — the partitioned-graph generation optimisations of Sec 6.

The paper describes three optimisations that keep per-worker memory low and
links balanced: preserving control dependencies for the memory planner, fusing
remote fetches (MultiFetch), and spreading output reductions across workers.
This benchmark measures each one's effect on per-device memory and iteration
time for an RNN.
"""

from common import once, print_header
from repro.models.rnn import build_rnn
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor
from repro.sim.device import k80_8gpu_machine

GiB = 1 << 30


def bench_ablation_graph_generation(benchmark):
    bundle = build_rnn(num_layers=4, hidden_size=2048, batch_size=128)
    machine = k80_8gpu_machine()
    plan = recursive_partition(bundle.graph, 8)
    executor = Executor()

    variants = {
        "all optimisations": dict(),
        "no control deps": dict(add_control_dependencies=False),
        "no fused fetch": dict(fuse_remote_fetch=False),
        "no spread reduction": dict(spread_reduction=False),
    }

    def run():
        out = {}
        for name, opts in variants.items():
            program = executor.lower(
                bundle.graph, plan=plan, machine=machine, backend_options=opts
            )
            out[name] = (
                program.per_device_peak_bytes,
                executor.simulate(program, machine).iteration_time,
            )
        return out

    results = once(benchmark, run)

    print_header("Sec 6 ablation — partitioned-graph generation optimisations")
    print(f"{'variant':<24}{'per-device memory':>20}{'iteration time':>18}")
    for name, (memory, seconds) in results.items():
        print(f"{name:<24}{memory / GiB:>17.2f}GiB{seconds * 1e3:>15.1f}ms")

    base_mem, base_time = results["all optimisations"]
    assert results["no control deps"][0] >= base_mem
    assert results["no fused fetch"][0] >= base_mem
    assert results["no spread reduction"][1] >= base_time * 0.999
