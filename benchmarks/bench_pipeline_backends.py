"""Parallelisation-strategy comparison — pipeline and hybrid vs. Tofu.

The paper's evaluation (Sec 7) argues operator partitioning against the
alternative parallelisation strategies the related work proposes.  Each
alternative is a strategy expression evaluated by ``evaluate_strategy``, and
this benchmark lines them up on the stacked-LSTM workload: single-device (the
per-GPU baseline), GPipe/1F1B micro-batch pipelining, hybrid data+model
parallelism (replica groups x Tofu partitioning), and Tofu itself.

The shape to reproduce: pipelining beats the single device once stages
overlap (the bubble shrinks as micro-batches grow), 1F1B needs less memory
than GPipe at the same bubble, and Tofu/hybrid win overall on the
communication-heavy configurations.
"""

from common import grid, once, print_header, print_throughput_table
from repro.baselines.evaluation import (
    evaluate_ideal,
    evaluate_strategy,
    evaluate_tofu,
)
from repro.models.rnn import build_rnn

GLOBAL_BATCH = 256
NUM_GPUS = 8  # the evaluators' default machine
SYSTEMS = [
    "ideal", "pipeline-gpipe", "pipeline-1f1b", "hybrid", "dp2/pipe2/tofu",
    "tofu",
]


def _evaluate(layers: int, hidden: int):
    def build_fn(batch_size: int):
        return build_rnn(
            num_layers=layers, hidden_size=hidden, seq_len=4,
            batch_size=batch_size,
        )

    # One stage per layer, capped at the device count; 4 micro-batches.
    stages = min(layers, NUM_GPUS)
    return {
        "ideal": evaluate_ideal(build_fn, GLOBAL_BATCH),
        "pipeline-gpipe": evaluate_strategy(
            build_fn, GLOBAL_BATCH, strategy=f"pipeline:{stages}:gpipe:4",
            system_name="pipeline-gpipe",
        ),
        "pipeline-1f1b": evaluate_strategy(
            build_fn, GLOBAL_BATCH, strategy=f"pipeline:{stages}:1f1b:4",
            system_name="pipeline-1f1b",
        ),
        # 2 data-parallel replica groups, each partitioned by Tofu.
        "hybrid": evaluate_strategy(
            build_fn, GLOBAL_BATCH, strategy="dp:2/tofu", system_name="hybrid",
        ),
        # The composed strategy expression, routed through repro.compile:
        # 2 replica groups x 2-stage 1F1B pipeline of 4 micro-batches.
        "dp2/pipe2/tofu": evaluate_strategy(
            build_fn, GLOBAL_BATCH, strategy="dp:2/pipeline:2:1f1b:4/tofu",
            system_name="dp2/pipe2/tofu",
        ),
        "tofu": evaluate_tofu(build_fn, GLOBAL_BATCH),
    }


def bench_pipeline_backends(benchmark):
    layer_grid = grid([4, 6, 8], [4])
    hidden_grid = grid([1024, 2048, 4096], [1024])

    def run():
        rows = {}
        for layers in layer_grid:
            for hidden in hidden_grid:
                rows[f"RNN-{layers}-{hidden}"] = _evaluate(layers, hidden)
        return rows

    rows = once(benchmark, run)
    print_throughput_table(
        "Pipeline & hybrid execution backends — RNN throughput (samples/s)",
        rows,
        SYSTEMS,
    )
    print_header("Pipeline bubble fractions (1F1B vs GPipe)")
    for config, results in rows.items():
        gpipe = results["pipeline-gpipe"]
        f1b = results["pipeline-1f1b"]
        print(
            f"{config:<18} gpipe bubble {gpipe.extras.get('bubble_fraction', 0.0):6.1%}"
            f"  1f1b bubble {f1b.extras.get('bubble_fraction', 0.0):6.1%}"
        )

    for config, results in rows.items():
        for system in SYSTEMS:
            assert not results[system].oom, f"{system} must train {config}"
        # 1F1B stashes fewer in-flight micro-batches than GPipe.
        assert (
            results["pipeline-1f1b"].per_device_memory_gib
            <= results["pipeline-gpipe"].per_device_memory_gib
        ), f"1F1B must not need more memory than GPipe on {config}"
