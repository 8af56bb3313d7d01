"""Quickstart: describe an operator, then compile a model under strategies.

Everything routes through ``repro.compile(graph, strategy=..., machine=...)``:
a strategy expression — ``tofu``, ``single``, ``swap``, ``dp:<groups>``,
``pipeline:<stages>:<schedule>:<microbatches>``, composed with ``/`` — is
lowered onto the planner (search backends + content-addressed plan cache)
and the runtime (pluggable execution backends), and the returned
:class:`repro.CompiledModel` bundles the plan, the lowered program and the
simulated iteration result.  ``strategy="auto"`` sweeps composed strategies
and keeps the fastest.

Run with::

    python examples/quickstart.py
"""

import repro
from repro.models import build_mlp
from repro.sim.device import k80_8gpu_machine


def main() -> None:
    # 1. TDL + interval analysis: what partition-n-reduce strategies does a
    #    2-D convolution admit?  (Sec 3.1 / 4.2 of the paper.)
    print("== conv2d partition strategies discovered from its TDL description ==")
    for strategy in repro.describe_operator("conv2d"):
        print("  ", strategy.describe())

    # 2. Build a small MLP training graph (forward + backward + optimiser).
    bundle = build_mlp(batch_size=64, input_dim=1024, hidden_dim=1024, num_layers=4)
    graph = bundle.graph
    machine = k80_8gpu_machine()
    print(f"\n== model: {bundle.name} ==")
    print(f"operators: {graph.num_nodes()}, tensors: {graph.num_tensors()}")

    # 3. Compile under the paper's system: Tofu's minimum-communication
    #    partitioning over all 8 GPUs.  The planner memoises plans by content
    #    (graph x factorisation x machine x backend x full strategy), so
    #    compiling again is a cache hit.
    model = repro.compile(graph, "tofu", machine)
    print("\n== partition plan ==")
    print(model.plan.summary())
    for weight in bundle.weights[:4]:
        ndim = len(graph.tensor(weight).shape)
        print(f"  {weight}: tiled {model.plan.describe_tensor(weight, ndim)}")

    # 4. One graph, several strategies: the combinator algebra composes
    #    data, pipeline and model parallelism behind one entry point.
    print("\n== one graph, five strategies ==")
    for text in ("tofu", "tofu:spartan", "swap", "dp:2/tofu",
                 "dp:2/pipeline:2:1f1b:4/tofu"):
        run = repro.compile(graph, text, machine)
        print(
            f"  {text:<28} {run.iteration_time * 1e3:7.1f} ms/iter  "
            f"(backend {run.backend})"
        )

    # 5. Not sure how to split?  strategy="auto" runs the autotuner over
    #    composed strategies (replica groups x stages x schedules x the tofu
    #    leaf) and keeps the fastest — never slower than plain tofu, which
    #    always leads the candidate grid.
    best = repro.compile(graph, "auto", machine)
    print("\n== auto sweep ==")
    for outcome in best.metadata["tuner"]["outcomes"]:
        if outcome["status"] == "skipped":
            continue
        if outcome["status"] != "evaluated":
            verdict = f"{outcome['status']}: {outcome['reason']}"
        else:
            verdict = "oom" if outcome["oom"] else (
                f"{outcome['iteration_time'] * 1e3:.1f} ms"
            )
        print(f"  {outcome['strategy']:<28} {verdict}")
    print(f"auto picked: {best.strategy_text}")
    print(f"throughput: {best.throughput(bundle.batch_size):.1f} samples/s")

    # 6. Compiled models persist: save() round-trips the plan and the
    #    program metadata through JSON.
    path = "/tmp/quickstart-compiled-model.json"
    best.save(path)
    reloaded = repro.CompiledModel.load(path)
    print(f"\nsaved + reloaded: {reloaded.summary()}")


if __name__ == "__main__":
    main()
