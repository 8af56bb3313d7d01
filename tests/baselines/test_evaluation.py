"""Tests for the end-to-end system evaluators (Sec 7 baselines)."""

import pytest

from repro import compile as repro_compile
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
from repro.sim.device import DeviceSpec, GiB, MachineSpec, k80_8gpu_machine


def _small_mlp(batch_size: int):
    return build_mlp(batch_size=batch_size, input_dim=512, hidden_dim=512,
                     num_layers=3, num_classes=64)


def _huge_mlp(batch_size: int):
    # ~19 GiB of weight state: cannot fit on one 12 GiB GPU.
    return build_mlp(batch_size=batch_size, input_dim=16384, hidden_dim=16384,
                     num_layers=6, num_classes=64)


def _small_rnn(batch_size: int):
    return build_rnn(num_layers=2, hidden_size=256, seq_len=4, batch_size=batch_size)


MACHINE = k80_8gpu_machine()


class TestSmallModel:
    def test_ideal_reports_positive_throughput(self):
        result = evaluate_ideal(_small_mlp, 128, MACHINE)
        assert result.throughput > 0 and not result.oom

    def test_smallbatch_matches_ideal_when_model_fits(self):
        ideal = evaluate_ideal(_small_mlp, 128, MACHINE)
        small = evaluate_smallbatch(_small_mlp, 128, MACHINE)
        assert not small.oom
        assert small.throughput == pytest.approx(ideal.throughput, rel=0.25)

    def test_swap_close_to_ideal_when_model_fits(self):
        ideal = evaluate_ideal(_small_mlp, 128, MACHINE)
        swap = evaluate_swapping(_small_mlp, 128, MACHINE)
        assert not swap.oom
        assert swap.throughput >= 0.3 * ideal.throughput

    def test_tofu_runs_small_model(self):
        result = evaluate_tofu(_small_mlp, 128, MACHINE)
        assert not result.oom
        assert result.throughput > 0
        assert result.per_device_memory_gib < 12

    def test_opplacement_on_rnn(self):
        result = evaluate_opplacement(_small_rnn, 64, MACHINE)
        assert not result.oom
        assert result.throughput > 0

    def test_tf_overhead_factor_slows_placement(self):
        mx = evaluate_opplacement(_small_rnn, 64, MACHINE)
        tf = evaluate_opplacement(_small_rnn, 64, MACHINE, overhead_factor=2.0,
                                  system_name="tf")
        assert tf.throughput <= mx.throughput
        assert tf.system == "tf"


class TestHugeModel:
    def test_smallbatch_ooms(self):
        result = evaluate_smallbatch(_huge_mlp, 128, MACHINE)
        assert result.oom and result.throughput == 0.0

    def test_tofu_trains_what_smallbatch_cannot(self):
        result = evaluate_tofu(_huge_mlp, 128, MACHINE)
        assert not result.oom
        assert result.per_device_memory_gib <= 12
        assert result.throughput > 0

    def test_swapping_pays_for_host_transfers(self):
        swap = evaluate_swapping(_huge_mlp, 128, MACHINE)
        tofu = evaluate_tofu(_huge_mlp, 128, MACHINE)
        assert tofu.throughput >= swap.throughput
        # The swap row reports its host traffic like every other system's:
        # each GPU replays every swap over the shared host link.
        swapped = swap.extras["swapped_in_gib"] + swap.extras["swapped_out_gib"]
        assert swap.extras["comm_gib_per_iter"] == pytest.approx(
            swapped * MACHINE.num_devices
        )

    def test_normalized_helper(self):
        ideal = evaluate_ideal(_huge_mlp, 128, MACHINE)
        tofu = evaluate_tofu(_huge_mlp, 128, MACHINE)
        assert 0 < tofu.normalized(ideal.throughput) <= 1.5


class TestStrategyEvaluator:
    def test_strategy_expression_evaluates(self):
        result = evaluate_strategy(
            _small_rnn, 64, MACHINE, strategy="dp:2/tofu"
        )
        assert not result.oom and result.throughput > 0
        assert result.system == "dp:2/tofu"
        assert result.extras["replica_groups"] == 2.0

    def test_pipeline_evaluator_routes_through_strategy(self):
        result = evaluate_strategy(
            _small_rnn, 64, MACHINE, strategy="pipeline:2:1f1b:4"
        )
        assert not result.oom and result.throughput > 0
        assert result.extras["num_stages"] == 2.0
        assert result.extras["num_microbatches"] == 4.0
        assert "strategy pipeline:2:1f1b:4" in result.notes

    def test_hybrid_evaluator_routes_through_strategy(self):
        result = evaluate_strategy(
            _small_rnn, 64, MACHINE, strategy="dp:2/tofu", system_name="hybrid"
        )
        assert not result.oom and result.throughput > 0
        assert result.system == "hybrid"
        assert result.extras["replica_groups"] == 2.0
        assert "strategy dp:2/tofu" in result.notes

    def test_hybrid_with_pipeline_inner(self):
        result = evaluate_strategy(
            _small_rnn, 64, MACHINE, strategy="dp:2/pipeline:2"
        )
        assert not result.oom and result.throughput > 0
        assert result.extras["num_microbatches"] >= 1.0

    def test_oversized_strategy_reports_oom(self):
        result = evaluate_strategy(
            _huge_mlp, 128, MACHINE, strategy="single"
        )
        assert result.oom and result.throughput == 0.0


class TestUnequalDevices:
    """The batch search asks every device, not device 0 alone."""

    @staticmethod
    def _rnn(batch_size: int):
        return build_rnn(
            num_layers=4, hidden_size=2048, seq_len=8, batch_size=batch_size
        )

    def test_batch_search_fits_every_device(self):
        machine = MachineSpec(
            devices=[DeviceSpec("gpu0")]
            + [
                DeviceSpec(f"gpu{i}", memory_bytes=int(0.6 * GiB))
                for i in (1, 2, 3)
            ]
        )
        result = evaluate_strategy(
            self._rnn, 256, machine, strategy="placement"
        )
        assert not result.oom and result.throughput > 0
        assert result.batch_size == 64
        # 64 is the largest halving of 256 that fits: 128 overflows a
        # small device though it fits device 0.
        lowered = repro_compile(
            self._rnn(128).graph, "placement", machine, lower_only=True
        ).program
        over = machine.over_capacity(lowered.per_device_memory)
        assert over and 0 not in over
