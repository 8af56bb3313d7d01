"""Pipeline-parallel and hybrid execution backends.

Covers the stage-assignment and micro-batch scheduling passes, end-to-end
execution through the :class:`Executor` facade on the MLP and RNN fixtures,
the bubble-time / per-stage-memory reporting, and the degenerate-config
parity bars: ``pipeline`` with one stage and one micro-batch must reproduce
``single-device``, and ``hybrid`` with one replica group must reproduce its
inner backend exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.errors import ExecutionError
from repro.models.rnn import build_rnn
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor
from repro.runtime.passes import (
    assign_pipeline_stages,
    balanced_contiguous_partition,
    full_layer_assignment,
    pipeline_schedule,
    stage_memory_report,
)
from repro.sim.device import MachineSpec, k80_8gpu_machine
from repro.sim.engine import HOST_DEVICE, Task, TaskGraphSimulator

MACHINE = k80_8gpu_machine(4)


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def big_rnn_bundle():
    """An RNN whose kernels are large enough to scale with the micro-batch
    size (the regime where pipelining pays off)."""
    return build_rnn(num_layers=4, hidden_size=1024, seq_len=4, batch_size=256)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
class TestStageAssignment:
    def test_layer_assignment_covers_every_node(self, bundle):
        layer_of = full_layer_assignment(bundle.graph)
        assert set(layer_of) == set(bundle.graph.nodes)

    def test_backward_nodes_inherit_forward_layer(self, bundle):
        layer_of = full_layer_assignment(bundle.graph)
        for fwd, bwds in bundle.graph.metadata.get("bwd_nodes_of", {}).items():
            for bwd in bwds:
                assert layer_of[bwd] == layer_of[fwd]

    def test_balanced_partition_minimises_bottleneck(self):
        bounds = balanced_contiguous_partition([4.0, 1.0, 1.0, 1.0, 1.0], 2)
        assert bounds == [(0, 1), (1, 5)]

    def test_balanced_partition_is_contiguous_and_complete(self):
        bounds = balanced_contiguous_partition([1.0] * 7, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 7
        for (_, end), (start, _) in zip(bounds, bounds[1:]):
            assert end == start

    def test_too_many_groups_rejected(self):
        with pytest.raises(ExecutionError, match="cannot split"):
            balanced_contiguous_partition([1.0, 1.0], 3)

    def test_stages_are_monotone_along_layers(self, bundle):
        stages = assign_pipeline_stages(bundle.graph, MACHINE, 2)
        layer_of = full_layer_assignment(bundle.graph)
        for node, stage in stages.stage_of_node.items():
            assert stage == stages.stage_of_layer[layer_of[node]]
        ordered = sorted(stages.stage_of_layer)
        assigned = [stages.stage_of_layer[layer] for layer in ordered]
        assert assigned == sorted(assigned), "stages must be contiguous"


class TestSchedule:
    def test_gpipe_runs_all_forwards_first(self):
        sched = pipeline_schedule(3, 4, style="gpipe")
        for slots in sched.slots_of_stage:
            phases = [phase for phase, _ in slots]
            assert phases == ["fwd"] * 4 + ["bwd"] * 4

    def test_1f1b_last_stage_alternates(self):
        sched = pipeline_schedule(3, 4, style="1f1b")
        last = sched.slots_of_stage[-1]
        assert last == [
            ("fwd", 0), ("bwd", 0), ("fwd", 1), ("bwd", 1),
            ("fwd", 2), ("bwd", 2), ("fwd", 3), ("bwd", 3),
        ]

    def test_1f1b_slots_cover_every_microbatch_once(self):
        sched = pipeline_schedule(4, 6, style="1f1b")
        for slots in sched.slots_of_stage:
            fwd = [m for phase, m in slots if phase == "fwd"]
            bwd = [m for phase, m in slots if phase == "bwd"]
            assert sorted(fwd) == list(range(6))
            assert sorted(bwd) == list(range(6))

    def test_1f1b_inflight_below_gpipe(self):
        gpipe = pipeline_schedule(4, 8, style="gpipe")
        f1b = pipeline_schedule(4, 8, style="1f1b")
        for stage in range(4):
            assert f1b.inflight(stage) <= gpipe.inflight(stage)
        assert f1b.inflight(3) == 1

    def test_unknown_style_rejected(self):
        with pytest.raises(ExecutionError, match="unknown pipeline schedule"):
            pipeline_schedule(2, 2, style="interleaved")


class TestStageMemoryReport:
    def test_one_stage_one_microbatch_is_the_memory_plan(self, bundle):
        from repro.graph.memory_planner import plan_memory

        stage_of_node = {node: 0 for node in bundle.graph.nodes}
        report = stage_memory_report(bundle.graph, stage_of_node, 1)
        assert report == {0: plan_memory(bundle.graph).peak_bytes}

    def test_microbatching_shrinks_transient_memory(self, bundle):
        stages = assign_pipeline_stages(bundle.graph, MACHINE, 2)
        sched = pipeline_schedule(2, 4, style="1f1b")
        whole = stage_memory_report(
            bundle.graph, stages.stage_of_node, 2,
            num_microbatches=1, schedule=pipeline_schedule(2, 1, style="1f1b"),
        )
        split = stage_memory_report(
            bundle.graph, stages.stage_of_node, 2,
            num_microbatches=4, schedule=sched,
        )
        assert split[1] <= whole[1]


# ---------------------------------------------------------------------------
# Engine: control dependencies and idle accounting
# ---------------------------------------------------------------------------
class TestControlDependencies:
    def test_after_orders_independent_tasks(self):
        tasks = {
            "a": Task(name="a", device=0, duration=1.0),
            "b": Task(name="b", device=1, duration=1.0, after=["a"]),
        }
        result = TaskGraphSimulator(MACHINE).run(tasks, check_memory=False)
        # b could start at 0 (different device, no data dep) but the control
        # dependency pins it behind a.
        assert result.iteration_time == pytest.approx(2.0)

    def test_idle_time_reports_the_gap(self):
        tasks = {
            "a": Task(name="a", device=0, duration=3.0),
            "b": Task(name="b", device=1, duration=1.0, after=["a"]),
        }
        result = TaskGraphSimulator(MACHINE).run(tasks, check_memory=False)
        assert result.per_device_idle_time[1] == pytest.approx(3.0)
        assert result.per_device_idle_time[0] == pytest.approx(1.0)

    def test_missing_after_reference_raises(self):
        from repro.errors import SimulationError

        tasks = {"a": Task(name="a", device=0, after=["ghost"])}
        with pytest.raises(SimulationError, match="missing task"):
            TaskGraphSimulator(MACHINE).run(tasks)


# ---------------------------------------------------------------------------
# End-to-end pipeline execution
# ---------------------------------------------------------------------------
class TestPipelineExecution:
    @pytest.mark.parametrize("style", ["gpipe", "1f1b"])
    def test_runs_on_fixtures(self, bundle, style):
        executor = Executor()
        program = executor.lower(
            bundle.graph,
            machine=MACHINE,
            backend="pipeline",
            backend_options={
                "num_stages": 2, "num_microbatches": 3, "schedule": style,
            },
        )
        result = executor.simulate(program)
        assert result.iteration_time > 0
        assert not result.oom
        assert program.num_stages == 2
        assert program.num_microbatches == 3
        # Every stage device ran compute.
        assert set(result.per_device_compute_time) == {0, 1}

    def test_report_exposes_bubble_and_per_stage_memory(self, big_rnn_bundle):
        model = repro.compile(big_rnn_bundle.graph, "pipeline:4:1f1b:4", MACHINE)
        per_stage_peak_memory = model.program.per_device_memory
        assert set(per_stage_peak_memory) == {0, 1, 2, 3}
        assert all(v > 0 for v in per_stage_peak_memory.values())
        assert 0 < model.program.bubble_fraction(model.result) < 1
        assert "bubble" in model.summary()

    def test_pipeline_beats_single_device_on_rnn(self, big_rnn_bundle):
        executor = Executor()
        single = executor.lower(
            big_rnn_bundle.graph, machine=MACHINE, backend="single-device"
        )
        pipe = executor.lower(
            big_rnn_bundle.graph,
            machine=MACHINE,
            backend="pipeline",
            backend_options={"num_stages": 4, "num_microbatches": 4},
        )
        assert (
            executor.simulate(pipe).iteration_time
            < executor.simulate(single).iteration_time
        )

    def test_more_microbatches_shrink_the_bubble(self, big_rnn_bundle):
        executor = Executor()

        def bubble(microbatches: int) -> float:
            program = executor.lower(
                big_rnn_bundle.graph,
                machine=MACHINE,
                backend="pipeline",
                backend_options={
                    "num_stages": 4, "num_microbatches": microbatches,
                },
            )
            return program.bubble_fraction(executor.simulate(program))

        assert bubble(8) < bubble(2)

    def test_replica_groups_bubble_is_the_mean_device_idle_share(self):
        """dp:2 over pipeline:4 runs 8 stage devices: its bubble is their
        mean idle share, not twice it (one group's stage count)."""
        graph = build_rnn(
            num_layers=4, hidden_size=1024, seq_len=4, batch_size=64
        ).graph
        model = repro.compile(
            graph, "dp:2/pipeline:4:1f1b:4", k80_8gpu_machine(8)
        )
        idle = model.result.per_device_idle_time
        assert set(model.program.per_device_memory) == set(range(8))
        mean_idle = sum(idle[d] for d in range(8)) / 8
        assert model.program.bubble_fraction(model.result) == pytest.approx(
            mean_idle / model.result.iteration_time
        )

    def test_1f1b_uses_no_more_memory_than_gpipe(self, big_rnn_bundle):
        executor = Executor()

        def peak(style: str) -> int:
            return executor.lower(
                big_rnn_bundle.graph,
                machine=MACHINE,
                backend="pipeline",
                backend_options={
                    "num_stages": 4, "num_microbatches": 4, "schedule": style,
                },
            ).per_device_peak_bytes

        assert peak("1f1b") <= peak("gpipe")

    def test_too_many_stages_rejected(self, bundle):
        with pytest.raises(ExecutionError, match="stages"):
            Executor().lower(
                bundle.graph,
                machine=MACHINE,
                backend="pipeline",
                backend_options={"num_stages": 99},
            )

    def test_zero_microbatches_rejected(self, bundle):
        with pytest.raises(ExecutionError, match="micro-batch"):
            Executor().lower(
                bundle.graph,
                machine=MACHINE,
                backend="pipeline",
                backend_options={"num_microbatches": 0},
            )


# ---------------------------------------------------------------------------
# Degenerate-config parity
# ---------------------------------------------------------------------------
class TestDegenerateParity:
    def test_pipeline_one_stage_matches_single_device(self, bundle):
        executor = Executor()
        single = executor.lower(
            bundle.graph, machine=MACHINE, backend="single-device"
        )
        pipe = executor.lower(
            bundle.graph,
            machine=MACHINE,
            backend="pipeline",
            backend_options={"num_stages": 1, "num_microbatches": 1},
        )
        assert executor.simulate(pipe).iteration_time == pytest.approx(
            executor.simulate(single).iteration_time, rel=1e-12
        )
        assert pipe.per_device_memory == single.per_device_memory
        assert pipe.total_comm_bytes == 0.0
        assert len(pipe.tasks) == len(single.tasks)

    def test_hybrid_one_group_matches_tofu_partitioned(self, bundle):
        executor = Executor()
        plan = recursive_partition(bundle.graph, 4)
        tofu = executor.lower(
            bundle.graph, plan=plan, machine=MACHINE, backend="tofu-partitioned"
        )
        hybrid = executor.lower(
            bundle.graph,
            plan=plan,
            machine=MACHINE,
            backend="hybrid",
            backend_options={"replica_groups": 1},
        )
        assert (
            executor.simulate(hybrid).iteration_time
            == executor.simulate(tofu).iteration_time
        )
        assert hybrid.per_device_memory == tofu.per_device_memory
        assert hybrid.total_comm_bytes == tofu.total_comm_bytes
        assert hybrid.backend == "hybrid"


# ---------------------------------------------------------------------------
# Hybrid execution
# ---------------------------------------------------------------------------
class TestHybridExecution:
    def test_hybrid_tofu_groups_run_end_to_end(self, bundle):
        plan = recursive_partition(bundle.graph, 2)
        executor = Executor()
        program = executor.lower(
            bundle.graph,
            plan=plan,
            machine=MACHINE,
            backend="hybrid",
            backend_options={"replica_groups": 2},
        )
        result = executor.simulate(program)
        assert not result.oom
        assert program.num_devices == 4
        assert program.stats["replica_groups"] == 2.0
        assert program.stats["allreduce_bytes"] > 0
        # Both groups' devices actually computed.
        busy = set(result.per_device_compute_time)
        assert busy & {0, 1} and busy & {2, 3}

    def test_hybrid_composes_with_pipeline_inner(self, bundle):
        executor = Executor()
        program = executor.lower(
            bundle.graph,
            machine=MACHINE,
            backend="hybrid",
            backend_options={
                "replica_groups": 2,
                "inner": "pipeline",
                "inner_options": {"num_stages": 2, "num_microbatches": 2},
            },
        )
        assert not executor.simulate(program).oom
        assert program.schedule is not None
        assert program.num_microbatches == 2

    @pytest.mark.parametrize("strategy, device_memory", [
        ("dp:2/pipeline:2:1f1b:4", None), ("dp:4/pipeline:2:1f1b:4", None),
        ("dp:2/tofu", None), ("dp:2/swap", None), ("dp:4/single", None),
        # 2 MiB devices make the swap groups copy from the host.
        ("dp:2/swap", 2 * 2**20),
    ])
    def test_every_group_stamps_group_zero_onto_its_slice(
        self, rnn_bundle, strategy, device_memory
    ):
        """On one machine group g's rows are group 0's with ids shifted by
        the group's base, devices and endpoints by g times the group's device
        count (a gather from every peer and a host copy kept), and the name
        suffix ``@grp{g}``; each group is followed by its all-reduce rows."""
        machine = k80_8gpu_machine(8)
        if device_memory is not None:
            machine = MachineSpec(devices=[
                dataclasses.replace(device, memory_bytes=device_memory)
                for device in machine.devices
            ])
        program = repro.compile(
            rnn_bundle.graph, strategy, machine, lower_only=True
        ).program
        groups = int(program.stats["replica_groups"])
        group_devices = 8 // groups
        rows = program.task_graph.rows
        stride = len(rows) // groups
        size = stride - group_devices
        assert stride * groups == len(rows)
        first = rows[:size]
        assert all(row[0].endswith("@grp0") for row in first)

        for group in range(groups):
            base = group * stride

            def move(device, offset=group * group_devices):
                return device if device in (None, HOST_DEVICE) else device + offset

            assert rows[base:base + size] == [
                (
                    name[:-len("@grp0")] + f"@grp{group}", move(device), kind,
                    duration, nbytes, tuple(base + i for i in deps),
                    tuple(base + i for i in after), move(src), move(dst),
                )
                for name, device, kind, duration, nbytes, deps, after, src, dst in first
            ]
            assert [row[0] for row in rows[base + size:base + stride]] == [
                f"allreduce@d{device}@grp{group}" for device in range(group_devices)
            ]

    def test_indivisible_groups_rejected(self, bundle):
        with pytest.raises(ExecutionError, match="divisible"):
            Executor().lower(
                bundle.graph,
                machine=MACHINE,
                backend="hybrid",
                backend_options={"replica_groups": 3},
            )

    def test_nested_hybrid_rejected(self, bundle):
        with pytest.raises(ExecutionError, match="nest"):
            Executor().lower(
                bundle.graph,
                machine=MACHINE,
                backend="hybrid",
                backend_options={"inner": "hybrid"},
            )

    def test_plan_for_wrong_worker_count_rejected(self, bundle):
        plan = recursive_partition(bundle.graph, 4)  # groups need 2 workers
        with pytest.raises(ExecutionError, match="workers"):
            Executor().lower(
                bundle.graph,
                plan=plan,
                machine=MACHINE,
                backend="hybrid",
                backend_options={"replica_groups": 2},
            )

    def test_missing_plan_names_group_size(self, bundle):
        with pytest.raises(ExecutionError, match="2 workers"):
            Executor().lower(
                bundle.graph,
                machine=MACHINE,
                backend="hybrid",
                backend_options={"replica_groups": 2},
            )
