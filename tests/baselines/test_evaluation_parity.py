"""Pinned batch-search verdicts of every Sec 7 evaluator.

Each row is the batch size and simulated iteration time one evaluator
reports for a small model on a 4- or 8-GPU K80 machine.  The numbers were
recorded from the per-system evaluators that predate the shared batch
search, so any change to how a system picks its batch, lowers its program,
or simulates it shows up here as an exact mismatch.
"""

from functools import partial

import pytest

from repro.baselines.evaluation import (
    evaluate_ideal,
    evaluate_opplacement,
    evaluate_smallbatch,
    evaluate_strategy,
    evaluate_swapping,
    evaluate_tofu,
)
from repro.models.mlp import build_mlp
from repro.models.rnn import build_rnn
from repro.sim.device import k80_8gpu_machine


def _small_mlp(batch_size: int):
    return build_mlp(batch_size=batch_size, input_dim=512, hidden_dim=512,
                     num_layers=3, num_classes=64)


def _small_rnn(batch_size: int):
    return build_rnn(num_layers=2, hidden_size=256, seq_len=4, batch_size=batch_size)


MODELS = {"small_mlp": (_small_mlp, 128), "small_rnn": (_small_rnn, 64)}

SYSTEMS = {
    "ideal": evaluate_ideal,
    "smallbatch": evaluate_smallbatch,
    "swap": evaluate_swapping,
    "op-placement": evaluate_opplacement,
    "tf": lambda f, b, m: evaluate_opplacement(
        f, b, m, overhead_factor=2.0, system_name="tf"
    ),
    "tofu": evaluate_tofu,
    "dp2/pipe2/tofu": lambda f, b, m: evaluate_strategy(
        f, b, m, strategy="dp:2/pipeline:2:1f1b:4/tofu"
    ),
    "single": lambda f, b, m: evaluate_strategy(f, b, m, strategy="single"),
    "placement-s": lambda f, b, m: evaluate_strategy(f, b, m, strategy="placement"),
}

# The composed baselines, each an explicit strategy per model and machine:
# one pipeline stage per layer (small_mlp has 4, small_rnn 2), capped at the
# GPUs a stage set runs on (all of them, or one replica group's under dp:2).
COMPOSED = {
    ("small_mlp", 8, "pipeline"): "pipeline:4:1f1b:4",
    ("small_mlp", 8, "pipeline-gpipe"): "pipeline:4:gpipe:4",
    ("small_mlp", 8, "hybrid"): "dp:2/tofu",
    ("small_mlp", 8, "hybrid-pipe"): "dp:2/pipeline:4:1f1b:4",
    ("small_mlp", 4, "pipeline"): "pipeline:4:1f1b:4",
    ("small_mlp", 4, "pipeline-gpipe"): "pipeline:4:gpipe:4",
    ("small_mlp", 4, "hybrid"): "dp:2/tofu",
    ("small_mlp", 4, "hybrid-pipe"): "dp:2/pipeline:2:1f1b:4",
    ("small_rnn", 4, "pipeline"): "pipeline:2:1f1b:4",
    ("small_rnn", 4, "pipeline-gpipe"): "pipeline:2:gpipe:4",
    ("small_rnn", 4, "hybrid"): "dp:2/tofu",
    ("small_rnn", 4, "hybrid-pipe"): "dp:2/pipeline:2:1f1b:4",
}

# (model, GPUs, system, batch size, iteration seconds)
PINNED = [
    ("small_mlp", 8, "dp2/pipe2/tofu", 128, 0.0011512224811531793),
    ("small_mlp", 8, "hybrid", 128, 0.0005377855264926976),
    ("small_mlp", 8, "hybrid-pipe", 128, 0.0007641180819723994),
    ("small_mlp", 8, "ideal", 128, 0.0009406681966685754),
    ("small_mlp", 8, "op-placement", 128, 0.000979805858938799),
    ("small_mlp", 8, "pipeline", 128, 0.0014500647353733703),
    ("small_mlp", 8, "pipeline-gpipe", 128, 0.0015435871345323327),
    ("small_mlp", 8, "placement-s", 128, 0.000979805858938799),
    ("small_mlp", 8, "single", 128, 0.0011933799202271862),
    ("small_mlp", 8, "smallbatch", 128, 0.0009406681966685754),
    ("small_mlp", 8, "swap", 128, 0.0009406681966685754),
    ("small_mlp", 8, "tf", 128, 0.0018847134321633124),
    ("small_mlp", 8, "tofu", 8, 0.0004161046018685566),
    ("small_mlp", 4, "dp2/pipe2/tofu", 128, 0.0011903081954388935),
    ("small_mlp", 4, "hybrid", 128, 0.0006098881728239376),
    ("small_mlp", 4, "hybrid-pipe", 128, 0.0011903081954388935),
    ("small_mlp", 4, "ideal", 128, 0.0010442265878102327),
    ("small_mlp", 4, "op-placement", 128, 0.000979805858938799),
    ("small_mlp", 4, "pipeline", 128, 0.0014500647353733703),
    ("small_mlp", 4, "pipeline-gpipe", 128, 0.0015435871345323327),
    ("small_mlp", 4, "placement-s", 128, 0.000979805858938799),
    ("small_mlp", 4, "single", 128, 0.0011933799202271862),
    ("small_mlp", 4, "smallbatch", 128, 0.0010442265878102327),
    ("small_mlp", 4, "swap", 128, 0.0010442265878102327),
    ("small_mlp", 4, "tf", 128, 0.0018847134321633124),
    ("small_mlp", 4, "tofu", 8, 0.00046153077087833413),
    ("small_rnn", 4, "dp2/pipe2/tofu", 64, 0.005463475983830373),
    ("small_rnn", 4, "hybrid", 64, 0.0032493113717330067),
    ("small_rnn", 4, "hybrid-pipe", 64, 0.005463475983830373),
    ("small_rnn", 4, "ideal", 64, 0.005206162680059198),
    ("small_rnn", 4, "op-placement", 64, 0.004899545245880385),
    ("small_rnn", 4, "pipeline", 64, 0.010726833110517888),
    ("small_rnn", 4, "pipeline-gpipe", 64, 0.011206218691767881),
    ("small_rnn", 4, "placement-s", 64, 0.004899545245880385),
    ("small_rnn", 4, "single", 64, 0.007119017279219187),
    ("small_rnn", 4, "smallbatch", 64, 0.005206162680059198),
    ("small_rnn", 4, "swap", 64, 0.005206162680059198),
    ("small_rnn", 4, "tf", 64, 0.009746037539379818),
    ("small_rnn", 4, "tofu", 64, 0.005113021155947273),
]


@pytest.mark.parametrize(
    "model, gpus, system, batch_size, iteration_time",
    PINNED,
    ids=[f"{m}-{g}gpu-{s}" for m, g, s, _, _ in PINNED],
)
def test_evaluator_verdict_is_pinned(model, gpus, system, batch_size, iteration_time):
    build_fn, global_batch = MODELS[model]
    strategy = COMPOSED.get((model, gpus, system))
    evaluate = (
        SYSTEMS[system] if strategy is None
        else partial(evaluate_strategy, strategy=strategy)
    )
    result = evaluate(build_fn, global_batch, k80_8gpu_machine(gpus))
    assert not result.oom
    assert result.batch_size == batch_size
    assert result.iteration_time == iteration_time
