"""The hierarchical topology model: ClusterSpec structure, link resolution,
slicing, presets, and the versioned machine/cluster serialization."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.device import (
    HOST_DEVICE,
    MACHINE_PAYLOAD_VERSION,
    TOPOLOGY_PRESETS,
    ClusterSpec,
    DeviceSpec,
    Link,
    MachineSpec,
    cluster_of,
    k80_8gpu_machine,
    link_from_dict,
    machine_from_dict,
    machine_to_dict,
    slice_machines,
    slice_topology_range,
    topology_preset,
    v100_machine,
)


@pytest.fixture
def cluster():
    return cluster_of(k80_8gpu_machine(4), 2)


class TestClusterStructure:
    def test_global_device_indexing(self, cluster):
        assert cluster.num_machines == 2
        assert cluster.num_devices == 8
        assert len(cluster.devices) == 8
        assert cluster.machine_of(0) == 0
        assert cluster.machine_of(3) == 0
        assert cluster.machine_of(4) == 1
        assert cluster.machine_of(7) == 1
        machine, local = cluster.locate(6)
        assert local == 2 and machine is cluster.machines[1]
        assert cluster.devices_of_machine(1) == [4, 5, 6, 7]

    def test_device_index_out_of_range(self, cluster):
        with pytest.raises(SimulationError, match="out of range"):
            cluster.machine_of(8)
        with pytest.raises(SimulationError, match="out of range"):
            cluster.link_between(0, 99)
        for index in (-2, 2):
            with pytest.raises(SimulationError, match="out of range"):
                k80_8gpu_machine(2).device(index)

    @pytest.mark.parametrize("device", ["-2", "-1", "5"])
    def test_simulating_a_budget_for_a_missing_device_raises(self, device):
        from repro.models.mlp import build_mlp
        from repro.runtime import Executor, ExecutorConfig
        from repro.runtime.program import program_from_dict, program_to_dict

        graph = build_mlp(batch_size=8, input_dim=16, hidden_dim=16,
                          num_layers=2, num_classes=4).graph
        executor = Executor(ExecutorConfig(cache_programs=False))
        program = executor.lower(
            graph, machine=k80_8gpu_machine(2), backend="single-device"
        )
        payload = program_to_dict(program)
        payload["per_device_memory"][device] = 1
        with pytest.raises(SimulationError, match="out of range"):
            executor.simulate(program_from_dict(payload))

    def test_machinespec_surface_mirrored(self, cluster):
        machine = cluster.machines[0]
        assert cluster.kernel_launch_overhead == machine.kernel_launch_overhead
        assert cluster.devices == machine.devices + cluster.machines[1].devices
        assert cluster.num_devices == 2 * machine.num_devices
        assert cluster.device(5).name == machine.device(1).name

    def test_empty_cluster_rejected(self):
        with pytest.raises(SimulationError, match="at least one machine"):
            ClusterSpec(machines=[])

    def test_a_cluster_is_not_a_machine_of_a_cluster(self, cluster):
        # Nested, the inner cluster's network would be priced as one box's
        # PCI-e: link_between(0, 3) would be p2p:3 instead of net:m1.
        with pytest.raises(SimulationError, match="machine 0 is a ClusterSpec"):
            ClusterSpec(machines=[cluster_of(k80_8gpu_machine(2), 2)])
        with pytest.raises(SimulationError, match="machine 1 is a ClusterSpec"):
            ClusterSpec(machines=[k80_8gpu_machine(2), cluster])

    def test_heterogeneous_machine_sizes(self):
        cluster = ClusterSpec(
            machines=[k80_8gpu_machine(2), k80_8gpu_machine(3)]
        )
        assert cluster.num_devices == 5
        assert cluster.machine_of(1) == 0
        assert cluster.machine_of(2) == 1
        assert cluster.devices_of_machine(1) == [2, 3, 4]


class TestLinkResolution:
    def test_intra_machine_link_is_destination_p2p(self, cluster):
        link = cluster.link_between(0, 1)
        assert link == Link(
            kind="p2p", key="p2p:1", bandwidth=cluster.machines[0].p2p_bandwidth
        )
        # Same within the second machine, keyed by the global device index.
        assert cluster.link_between(5, 6).key == "p2p:6"

    def test_cross_machine_link_is_destination_nic(self, cluster):
        link = cluster.link_between(0, 5)
        assert link.kind == "net"
        assert link.key == "net:m1"
        assert link.bandwidth == cluster.network_bandwidth
        assert link.latency == cluster.network_latency
        # Opposite direction lands on machine 0's NIC.
        assert cluster.link_between(5, 0).key == "net:m0"

    def test_host_link_is_per_machine(self, cluster):
        assert cluster.host_link(0).key == "cpu:m0"
        assert cluster.host_link(6).key == "cpu:m1"
        assert cluster.host_link(6).bandwidth == (
            cluster.machines[1].cpu_bandwidth
        )

    def test_bare_machine_mirrors_single_machine_cluster(self):
        for num_gpus in (1, 2, 8):
            machine = k80_8gpu_machine(num_gpus)
            wrapped = ClusterSpec(machines=[machine])
            assert machine.num_machines == wrapped.num_machines == 1
            assert machine.machines == (machine,)
            devices = list(range(num_gpus))
            assert machine.devices_of_machine(0) == devices
            assert wrapped.devices_of_machine(0) == devices
            for src in [*devices, None, HOST_DEVICE]:
                for dst in devices:
                    assert machine.link_between(src, dst) == (
                        wrapped.link_between(src, dst)
                    )
            for device in devices:
                assert machine.machine_of(device) == 0
                assert wrapped.machine_of(device) == 0
                assert machine.host_link(device) == wrapped.host_link(device)
            for topology in (machine, wrapped):
                for bad in (-2, HOST_DEVICE, num_gpus):
                    with pytest.raises(SimulationError, match="out of range"):
                        topology.machine_of(bad)
                    with pytest.raises(SimulationError, match="out of range"):
                        topology.link_between(0, bad)
                with pytest.raises(SimulationError, match="out of range"):
                    topology.link_between(num_gpus, 0)

    def test_transfer_time_includes_latency(self, cluster):
        net = cluster.link_between(0, 4)
        expected = 1e9 / cluster.network_bandwidth + cluster.network_latency
        assert net.transfer_time(1e9) == pytest.approx(expected)
        p2p = cluster.link_between(0, 1)
        assert p2p.transfer_time(1e9) == pytest.approx(1e9 / p2p.bandwidth)


class TestSlicing:
    def test_slice_within_first_machine_collapses_to_machine(self, cluster):
        sliced = slice_topology_range(cluster, 0, 2)
        assert isinstance(sliced, MachineSpec)
        assert sliced.num_devices == 2

    def test_slice_spanning_machines_keeps_cluster(self, cluster):
        sliced = slice_topology_range(cluster, 0, 6)
        assert isinstance(sliced, ClusterSpec)
        assert sliced.num_machines == 2
        assert sliced.num_devices == 6
        assert sliced.machines[1].num_devices == 2

    def test_slice_bounds(self, cluster):
        with pytest.raises(SimulationError):
            slice_topology_range(cluster, 0, 0)
        with pytest.raises(SimulationError):
            slice_topology_range(cluster, 0, 9)

    def test_slice_machines(self, cluster):
        assert slice_machines(cluster, 2) is cluster
        one = slice_machines(cluster, 1)
        assert isinstance(one, MachineSpec) and one.num_devices == 4
        with pytest.raises(SimulationError):
            slice_machines(cluster, 3)

    @pytest.mark.parametrize("build", [k80_8gpu_machine, v100_machine])
    def test_a_machine_needs_a_device(self, build):
        with pytest.raises(SimulationError, match="at least one device"):
            build(0)
        with pytest.raises(SimulationError, match="at least one device"):
            MachineSpec(devices=[])

    def test_cluster_of_one_machine_is_the_machine(self):
        machine = k80_8gpu_machine(2)
        assert cluster_of(machine, 1) is machine


class TestPresets:
    def test_presets_build(self):
        for name in TOPOLOGY_PRESETS:
            topology = topology_preset(name)
            assert topology.num_devices >= 1

    def test_p2_8xlarge_x4(self):
        cluster = topology_preset("p2_8xlarge_x4")
        assert cluster.num_machines == 4
        assert cluster.num_devices == 32

    def test_unknown_preset(self):
        with pytest.raises(SimulationError, match="unknown topology preset"):
            topology_preset("dgx-missing")


class TestSerialization:
    def test_machine_round_trip_is_versioned(self):
        machine = v100_machine(2)
        payload = machine_to_dict(machine)
        assert payload["version"] == MACHINE_PAYLOAD_VERSION
        assert payload["kind"] == "machine"
        assert machine_from_dict(payload) == machine

    def test_cluster_round_trip(self):
        cluster = cluster_of(
            k80_8gpu_machine(2), 3, network_bandwidth=5e9, network_latency=1e-5
        )
        restored = machine_from_dict(machine_to_dict(cluster))
        assert restored == cluster

    def test_legacy_payload_without_version_still_loads(self):
        # The exact shape machine_to_dict emitted before versioning.
        payload = {
            "devices": [
                {"name": "gpu0", "memory_bytes": 1 << 30,
                 "peak_flops": 1e12, "memory_bandwidth": 100e9},
            ],
            "p2p_bandwidth": 21e9,
            "cpu_bandwidth": 10e9,
            "cpu_memory": 4 << 30,
            "kernel_launch_overhead": 8e-6,
        }
        machine = machine_from_dict(payload)
        assert isinstance(machine, MachineSpec)
        assert machine.num_devices == 1
        assert machine.device(0).memory_bytes == 1 << 30

    def test_unknown_version_rejected_cleanly(self):
        payload = machine_to_dict(k80_8gpu_machine(1))
        payload["version"] = 99
        with pytest.raises(SimulationError, match="unsupported machine payload"):
            machine_from_dict(payload)

    def test_unknown_kind_rejected(self):
        payload = machine_to_dict(k80_8gpu_machine(1))
        payload["kind"] = "rack"
        with pytest.raises(SimulationError, match="unknown machine payload kind"):
            machine_from_dict(payload)

    def test_unknown_fields_raise_library_error_not_typeerror(self):
        payload = machine_to_dict(k80_8gpu_machine(1))
        payload["nvlink_bandwidth"] = 300e9
        with pytest.raises(SimulationError, match="unknown field"):
            machine_from_dict(payload)
        device_payload = machine_to_dict(k80_8gpu_machine(1))
        device_payload["devices"][0]["cores"] = 80
        with pytest.raises(SimulationError, match="unknown device field"):
            machine_from_dict(device_payload)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(SimulationError, match="must be a mapping"):
            machine_from_dict([1, 2, 3])

    def test_empty_cluster_payload_rejected(self):
        payload = machine_to_dict(cluster_of(k80_8gpu_machine(1), 2))
        payload["machines"] = []
        with pytest.raises(SimulationError, match="no machines"):
            machine_from_dict(payload)


#: Numeric payload fields and how to reach them: (payload kind, path to the
#: field's dict, field, whether 0 is a valid value).
NUMERIC_FIELDS = [
    ("machine", (), "p2p_bandwidth", False),
    ("machine", (), "cpu_bandwidth", False),
    ("machine", (), "cpu_memory", False),
    ("machine", (), "kernel_launch_overhead", True),
    ("machine", ("devices", 0), "memory_bytes", False),
    ("machine", ("devices", 0), "peak_flops", False),
    ("machine", ("devices", 0), "memory_bandwidth", False),
    ("cluster", (), "network_bandwidth", False),
    ("cluster", (), "network_latency", True),
    ("cluster", ("machines", 1), "p2p_bandwidth", False),
    ("link", (), "bandwidth", False),
    ("link", (), "latency", True),
]
BAD_NUMBERS = [float("nan"), float("inf"), -1, "x", True]


def _numeric_payload(kind):
    if kind == "link":
        return {"kind": "net", "key": "net:1", "bandwidth": 5e9, "latency": 1e-5}
    if kind == "cluster":
        return machine_to_dict(cluster_of(k80_8gpu_machine(2), 2))
    return machine_to_dict(k80_8gpu_machine(2))


def _load_numeric_payload(kind, payload):
    return (link_from_dict if kind == "link" else machine_from_dict)(payload)


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize(
    "kind,path,field,zero_ok", NUMERIC_FIELDS,
    ids=[f"{kind}.{field}" for kind, _, field, _ in NUMERIC_FIELDS],
)
def test_payload_numbers_must_be_finite_and_in_range(kind, path, field, zero_ok, bad):
    payload = _numeric_payload(kind)
    target = payload
    for step in path:
        target = target[step]
    target[field] = 0
    if zero_ok:
        _load_numeric_payload(kind, payload)
    else:
        with pytest.raises(SimulationError, match=field):
            _load_numeric_payload(kind, payload)
    target[field] = bad
    with pytest.raises(SimulationError, match=field):
        _load_numeric_payload(kind, payload)


def _device(**fields):
    return DeviceSpec(name="x", **fields)


def _machine(**fields):
    return MachineSpec([DeviceSpec(name=f"gpu{i}") for i in range(4)], **fields)


def _cluster(**fields):
    return ClusterSpec([k80_8gpu_machine(2), k80_8gpu_machine(2)], **fields)


#: In-process constructors and the numeric fields they check: (builder
#: taking the field as a keyword, field, whether 0 is a valid value).
CONSTRUCTOR_FIELDS = [
    (_device, "memory_bytes", False),
    (_device, "peak_flops", False),
    (_device, "memory_bandwidth", False),
    (_machine, "p2p_bandwidth", False),
    (_machine, "cpu_bandwidth", False),
    (_machine, "cpu_memory", False),
    (_machine, "kernel_launch_overhead", True),
    (_cluster, "network_bandwidth", False),
    (_cluster, "network_latency", True),
]


@pytest.mark.parametrize("bad", BAD_NUMBERS + [-21e9], ids=repr)
@pytest.mark.parametrize(
    "build,field,zero_ok", CONSTRUCTOR_FIELDS,
    ids=[f"{build.__name__[1:]}.{field}" for build, field, _ in CONSTRUCTOR_FIELDS],
)
def test_constructors_reject_impossible_numbers(build, field, zero_ok, bad):
    """The constructors apply the loaders' rules: a wrong number fails at
    construction instead of pricing transfers as free or negative."""
    if zero_ok:
        build(**{field: 0})
    else:
        with pytest.raises(SimulationError, match=field):
            build(**{field: 0})
    with pytest.raises(SimulationError, match=field):
        build(**{field: bad})


def test_load_rejects_a_saved_model_with_a_negative_bandwidth(tmp_path):
    import json

    from repro import CompiledModel, compile as repro_compile
    from repro.errors import StrategyError
    from repro.models.mlp import build_mlp

    graph = build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2, num_classes=16
    ).graph
    path = tmp_path / "model.json"
    repro_compile(graph, "single", k80_8gpu_machine(1)).save(str(path))
    payload = json.loads(path.read_text())
    payload["machine"]["p2p_bandwidth"] = -1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(StrategyError, match="p2p_bandwidth"):
        CompiledModel.load(str(path))


def test_devicespec_defaults_are_k80():
    device = DeviceSpec(name="gpu0")
    assert device.fits(device.memory_bytes)
    assert not device.fits(device.memory_bytes + 1)
