"""The benchmark's workloads, their pinned batch sizes, and the paper's numbers.

Every model here is a row of the paper's Figure 8 (WResNet) or Figure 9
(RNN) with published throughputs, so each workload can report how far its
simulated throughput relative to Ideal is from the paper's Tofu bar.  Batch
sizes are pinned: for each model, the largest power of two (at most 512 for
the RNNs, 128 for the WResNets) whose ``tofu`` plan fits a 12 GiB K80 on the
8-GPU machine.  They were found once by halving from the cap and are
constants so that a change to the planner cannot silently change the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, Optional, Tuple

__all__ = [
    "FIGURE8",
    "FIGURE9",
    "Config",
    "Model",
    "WORKLOADS",
    "Workload",
    "paper_ratio",
]

#: Figure 8: WResNet training throughput on 8 K80 GPUs, samples/s
#: (0 = out of memory).
FIGURE8: Dict[str, Dict[str, float]] = {
    "WResNet-50-4": {"ideal": 47, "smallbatch": 46, "swap": 28, "tofu": 41},
    "WResNet-50-10": {"ideal": 6.4, "smallbatch": 0, "swap": 4.0, "tofu": 6.0},
    "WResNet-101-4": {"ideal": 27, "smallbatch": 23, "swap": 11, "tofu": 20},
    "WResNet-101-10": {"ideal": 3.3, "smallbatch": 0, "swap": 2.1, "tofu": 3.1},
    "WResNet-152-4": {"ideal": 19, "smallbatch": 0, "swap": 7.7, "tofu": 11},
    "WResNet-152-10": {"ideal": 2.3, "smallbatch": 0, "swap": 1.6, "tofu": 1.9},
}

#: Figure 9: RNN training throughput on 8 K80 GPUs, samples/s
#: (0 = out of memory).
FIGURE9: Dict[str, Dict[str, float]] = {
    "RNN-6-4K": {"ideal": 233, "smallbatch": 130, "swap": 183,
                 "op-placement": 107, "tofu": 210},
    "RNN-6-8K": {"ideal": 58, "smallbatch": 0, "swap": 13,
                 "op-placement": 24, "tofu": 57},
    "RNN-10-4K": {"ideal": 136, "smallbatch": 0, "swap": 58,
                  "op-placement": 59, "tofu": 122},
    "RNN-10-8K": {"ideal": 33, "smallbatch": 0, "swap": 7.2,
                  "op-placement": 0, "tofu": 23},
}


def paper_ratio(model_name: str) -> Optional[float]:
    """The paper's Tofu/Ideal throughput ratio for a Figure 8/9 model."""
    row = FIGURE8.get(model_name) or FIGURE9.get(model_name)
    if row is None:
        return None
    return row["tofu"] / row["ideal"]


def _rnn(layers: int, hidden: int, batch: int):
    from repro.models.rnn import build_rnn

    return build_rnn(num_layers=layers, hidden_size=hidden, seq_len=20,
                     batch_size=batch)


def _wresnet(depth: int, widen: int, batch: int):
    from repro.models.resnet import build_wide_resnet

    return build_wide_resnet(depth=depth, widen=widen, image_size=224,
                             batch_size=batch)


@dataclass(frozen=True)
class Model:
    """A model family member: ``build(batch)`` returns a ``ModelBundle``.

    ``paper`` is the Tofu/Ideal ratio the fidelity gap is measured
    against; it defaults to the Figure 8/9 row of the same name.
    """

    name: str
    build: Callable[[int], object] = field(compare=False)
    paper: Optional[float] = None

    @property
    def reference(self) -> Optional[float]:
        return self.paper if self.paper is not None else paper_ratio(self.name)


def rnn(layers: int, hidden: int) -> Model:
    return Model(f"RNN-{layers}-{hidden // 1024}K", partial(_rnn, layers, hidden))


def wresnet(depth: int, widen: int) -> Model:
    return Model(f"WResNet-{depth}-{widen}", partial(_wresnet, depth, widen))


@dataclass(frozen=True)
class Config:
    """One compile: a model at a global batch under a strategy string
    (``"auto"`` runs the autotuner)."""

    model: Model
    batch: int
    strategy: str = "tofu"

    @property
    def label(self) -> str:
        return f"{self.model.name}@{self.batch}/{self.strategy}"

    @property
    def graph_key(self) -> Tuple[str, int]:
        return (self.model.name, self.batch)


@dataclass(frozen=True)
class Workload:
    """A named set of configs; ``BENCHMARK.json`` says why each is run.

    The first config is the largest program (most tasks): every round
    compiles it first.  ``known_findings`` are ``(code, node)`` verifier findings the benchmark
    reports but does not count as failures (see README, known deviations).
    """

    name: str
    configs: Tuple[Config, ...]
    known_findings: FrozenSet[Tuple[str, str]] = frozenset()


#: The stem convolution's input has 3 channels; every WResNet plan splits
#: that dimension 4 or 8 ways, which graph-aware verification flags.
_STEM_CHANNEL_SPLIT = frozenset({
    ("ANA001_SHARD_TILING", "data"),
    ("ANA001_SHARD_TILING", "stem_dX"),
})

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="rnn-paper",
            configs=(Config(rnn(10, 8192), 256),),
        ),
        Workload(
            name="wresnet-paper",
            configs=(
                Config(wresnet(152, 4), 64),
                Config(wresnet(152, 10), 16),
                Config(wresnet(101, 4), 64),
                Config(wresnet(101, 10), 16),
                Config(wresnet(50, 4), 128),
                Config(wresnet(50, 10), 32),
            ),
            known_findings=_STEM_CHANNEL_SPLIT,
        ),
        Workload(
            name="rnn-pipeline",
            configs=(
                Config(rnn(6, 4096), 512, "dp:4/pipeline:2:1f1b:8"),
                Config(rnn(6, 4096), 512, "dp:2/pipeline:4:1f1b:8"),
                Config(rnn(6, 4096), 512, "pipeline:2:1f1b:8"),
            ),
        ),
        Workload(
            name="auto-tune",
            configs=(Config(wresnet(101, 4), 64, "auto"),),
            known_findings=_STEM_CHANNEL_SPLIT,
        ),
    )
}
