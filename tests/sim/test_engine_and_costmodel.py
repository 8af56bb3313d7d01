"""Tests for the device model, kernel cost model, and the task-graph simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim.costmodel import graph_compute_time, kernel_time, node_kernel_time
from repro.sim.device import DeviceSpec, GiB, k80_8gpu_machine, v100_machine
from repro.sim.engine import HOST_DEVICE, SimResult, Task, TaskGraphSimulator


class TestDevices:
    def test_k80_machine_matches_paper_testbed(self):
        machine = k80_8gpu_machine()
        assert machine.num_devices == 8
        assert machine.device(0).memory_bytes == 12 * GiB
        assert machine.p2p_bandwidth == pytest.approx(21e9)
        assert machine.cpu_bandwidth == pytest.approx(10e9)

    def test_smaller_machine(self):
        assert k80_8gpu_machine(4).num_devices == 4

    def test_v100_is_faster(self):
        assert v100_machine().device(0).peak_flops > k80_8gpu_machine().device(0).peak_flops

    def test_fits(self):
        dev = DeviceSpec("d", memory_bytes=10)
        assert dev.fits(10) and not dev.fits(11)


class TestKernelTime:
    def test_compute_bound(self):
        machine = k80_8gpu_machine()
        dev = machine.device(0)
        t = kernel_time(1e12, 1e6, dev, machine, category="matmul")
        assert t == pytest.approx(1e12 / (dev.peak_flops * 0.9), rel=0.05)

    def test_memory_bound(self):
        machine = k80_8gpu_machine()
        dev = machine.device(0)
        t = kernel_time(1e3, 1.6e9, dev, machine, category="elementwise")
        assert t == pytest.approx(1.6e9 / dev.memory_bandwidth, rel=0.05)

    def test_launch_overhead_floor(self):
        machine = k80_8gpu_machine()
        t = kernel_time(0, 0, machine.device(0), machine)
        assert t == pytest.approx(machine.kernel_launch_overhead)

    def test_small_kernels_lose_efficiency(self):
        machine = k80_8gpu_machine()
        dev = machine.device(0)
        big = kernel_time(1e9, 1e3, dev, machine, category="matmul", parallel_elements=1e7)
        small = kernel_time(1e9, 1e3, dev, machine, category="matmul", parallel_elements=1e3)
        assert small > big

    def test_node_kernel_time_scales(self, mlp_bundle):
        machine = k80_8gpu_machine()
        dev = machine.device(0)
        node = next(iter(mlp_bundle.graph.nodes))
        full = node_kernel_time(mlp_bundle.graph, node, dev, machine)
        shard = node_kernel_time(mlp_bundle.graph, node, dev, machine, scale=0.125)
        assert shard <= full

    def test_graph_compute_time_positive(self, mlp_bundle):
        machine = k80_8gpu_machine()
        assert graph_compute_time(mlp_bundle.graph, machine.device(0), machine) > 0


class TestSimulator:
    def _machine(self):
        return k80_8gpu_machine(2)

    def test_serial_chain(self):
        machine = self._machine()
        tasks = {
            "a": Task("a", device=0, duration=1.0),
            "b": Task("b", device=0, duration=2.0, deps=["a"]),
        }
        result = TaskGraphSimulator(machine).run(tasks)
        assert result.iteration_time == pytest.approx(3.0)

    def test_parallel_devices(self):
        machine = self._machine()
        tasks = {
            "a": Task("a", device=0, duration=1.0),
            "b": Task("b", device=1, duration=1.0),
        }
        result = TaskGraphSimulator(machine).run(tasks)
        assert result.iteration_time == pytest.approx(1.0)

    def test_comm_task_duration_from_bandwidth(self):
        machine = self._machine()
        tasks = {
            "a": Task("a", device=0, duration=1.0),
            "copy": Task("copy", device=1, kind="comm", comm_bytes=machine.p2p_bandwidth,
                         deps=["a"], src_device=0, dst_device=1),
            "b": Task("b", device=1, duration=1.0, deps=["copy"]),
        }
        result = TaskGraphSimulator(machine).run(tasks)
        assert result.iteration_time == pytest.approx(3.0)
        assert result.total_comm_bytes == machine.p2p_bandwidth

    def test_cpu_link_is_shared(self):
        machine = self._machine()
        bytes_each = machine.cpu_bandwidth  # 1 second each
        tasks = {
            "c0": Task("c0", device=0, kind="comm", comm_bytes=bytes_each,
                       src_device=HOST_DEVICE, dst_device=0),
            "c1": Task("c1", device=1, kind="comm", comm_bytes=bytes_each,
                       src_device=HOST_DEVICE, dst_device=1),
        }
        result = TaskGraphSimulator(machine).run(tasks)
        assert result.iteration_time == pytest.approx(2.0)  # serialised on host link

    def test_p2p_links_are_per_device(self):
        machine = self._machine()
        bytes_each = machine.p2p_bandwidth
        tasks = {
            "c0": Task("c0", device=0, kind="comm", comm_bytes=bytes_each,
                       src_device=1, dst_device=0),
            "c1": Task("c1", device=1, kind="comm", comm_bytes=bytes_each,
                       src_device=0, dst_device=1),
        }
        result = TaskGraphSimulator(machine).run(tasks)
        assert result.iteration_time == pytest.approx(1.0)

    def test_oom_detection(self):
        machine = self._machine()
        tasks = {"a": Task("a", device=0, duration=1.0)}
        result = TaskGraphSimulator(machine).run(
            tasks, peak_memory={0: 13 * GiB, 1: 1 * GiB}
        )
        assert result.oom and result.oom_devices == [0]
        assert result.throughput(32) == 0.0

    def test_unknown_dependency_rejected(self):
        machine = self._machine()
        tasks = {"a": Task("a", device=0, duration=1.0, deps=["missing"])}
        with pytest.raises(SimulationError):
            TaskGraphSimulator(machine).run(tasks)

    def test_cycle_rejected(self):
        machine = self._machine()
        tasks = {
            "a": Task("a", device=0, duration=1.0, deps=["b"]),
            "b": Task("b", device=0, duration=1.0, deps=["a"]),
        }
        with pytest.raises(SimulationError):
            TaskGraphSimulator(machine).run(tasks)

    def test_throughput_and_comm_fraction(self):
        result = SimResult(
            iteration_time=2.0,
            per_device_compute_time={0: 1.0},
            per_device_comm_time={0: 1.0},
            total_comm_bytes=10.0,
        )
        assert result.throughput(64) == 32.0
        assert result.comm_fraction() == pytest.approx(0.5)
