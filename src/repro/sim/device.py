"""Device, machine, and cluster models.

The paper's testbed is an EC2 p2.8xlarge: 8 NVIDIA K80 GPUs (GK210 dies) with
12 GB device memory each, connected by PCI-e with 21 GB/s peer-to-peer
bandwidth and a 10 GB/s aggregate CPU-GPU link, backed by 488 GB of host
memory (Sec 7.1).  ``k80_8gpu_machine`` reconstructs that machine; other
configurations can be built for sensitivity studies.

Beyond the single box, :class:`ClusterSpec` composes N machines over a
network link (bandwidth + latency) into a hierarchical topology — the
setting the paper's recursive partitioning is designed for (partition across
the slow level first, then within the fast level).  Both classes expose
their machines as ``machines`` (a bare :class:`MachineSpec` is the
one-machine topology ``(self,)``), and one implementation over that tuple
resolves links for both: ``link_between`` maps a transfer's endpoints — a
source device, every peer (``None``) or the host (:data:`HOST_DEVICE`), and
a destination device — to the :class:`Link` the transfer actually crosses,
which is what the simulator's per-link contention queues price against.
A transfer only reaches the network link when its endpoints sit on two
different machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError

GiB = 1 << 30

#: The source of a host copy: the transfer crosses the destination machine's
#: shared CPU link.  It names no device, so no memory report may budget it.
HOST_DEVICE = -1

#: Serialization version emitted by :func:`machine_to_dict`; payloads without
#: a ``version`` field are the pre-cluster format and still load.
MACHINE_PAYLOAD_VERSION = 2


@dataclass(frozen=True)
class DeviceSpec:
    """A single accelerator device.

    Memory size, FLOP rate and memory bandwidth must be finite numbers > 0
    (:class:`SimulationError` otherwise).
    """

    name: str
    memory_bytes: int = 12 * GiB
    peak_flops: float = 2.91e12       # GK210 single-precision peak
    memory_bandwidth: float = 160e9   # effective HBM/GDDR5 bandwidth

    def __post_init__(self):
        _check_numbers(
            "DeviceSpec", vars(self),
            positive=("memory_bytes", "peak_flops", "memory_bandwidth"),
        )

    def fits(self, required_bytes: int) -> bool:
        return required_bytes <= self.memory_bytes


@dataclass(frozen=True)
class Link:
    """One priced communication edge of the topology.

    ``key`` identifies the contention queue the transfer occupies in the
    simulator (transfers sharing a key serialise); ``kind`` is the edge's
    level in the hierarchy — ``"p2p"`` (intra-machine PCI-e, one queue per
    destination device), ``"cpu"`` (the machine's shared host link), or
    ``"net"`` (the inter-machine network, one queue per destination NIC).
    ``latency`` is added once per transfer on top of ``bytes / bandwidth``.
    """

    kind: str
    key: str
    bandwidth: float
    latency: float = 0.0

    def transfer_time(self, num_bytes: float) -> float:
        """Occupancy of this link for one ``num_bytes`` transfer."""
        return num_bytes / self.bandwidth + self.latency


class _TopologyBase:
    """Structure and link resolution of a topology, written once over
    ``self.machines``.

    :class:`MachineSpec` is the one-machine topology (``machines`` is
    ``(self,)``) and :class:`ClusterSpec` the general one; both inherit
    these methods, so a transfer resolves to the same :class:`Link` on a
    bare machine as on the one-machine cluster holding it.  Device indices
    are global and contiguous: machine 0 holds devices
    ``[0, machines[0].num_devices)``, machine 1 the next block, and so on.
    """

    @property
    def num_machines(self) -> int:
        """Number of machines in the topology."""
        return len(self.machines)

    def machine_of(self, device_index: int) -> int:
        """Index of the machine holding global device ``device_index``."""
        self._check_device(device_index)
        remaining = device_index
        for machine_index, machine in enumerate(self.machines):
            if remaining < machine.num_devices:
                return machine_index
            remaining -= machine.num_devices
        raise SimulationError(  # pragma: no cover - guarded by _check_device
            f"device index {device_index} out of range"
        )

    def locate(self, device_index: int) -> Tuple["MachineSpec", int]:
        """``(machine, local device index)`` of a global device index."""
        machine_index = self.machine_of(device_index)
        offset = sum(m.num_devices for m in self.machines[:machine_index])
        return self.machines[machine_index], device_index - offset

    def devices_of_machine(self, machine_index: int) -> List[int]:
        """Global device indices of one machine, in order."""
        offset = sum(m.num_devices for m in self.machines[:machine_index])
        return list(
            range(offset, offset + self.machines[machine_index].num_devices)
        )

    # -------------------------------------------------------- link resolution
    def p2p_link(self, dst_device: int) -> Link:
        """The destination device's PCI-e link within its machine."""
        machine, _ = self.locate(dst_device)
        return Link(
            kind="p2p", key=f"p2p:{dst_device}", bandwidth=machine.p2p_bandwidth
        )

    def host_link(self, device_index: int = 0) -> Link:
        """The shared CPU link of the machine holding ``device_index``."""
        machine_index = self.machine_of(device_index)
        machine = self.machines[machine_index]
        return Link(
            kind="cpu",
            key=f"cpu:m{machine_index}",
            bandwidth=machine.cpu_bandwidth,
        )

    def link_between(self, src_device: Optional[int], dst_device: int) -> Link:
        """The link a ``src -> dst`` transfer occupies: the destination
        machine's shared CPU link for a host copy (``src`` is
        :data:`HOST_DEVICE`), the destination's PCI-e link for a gather from
        every peer (``src`` is ``None``) or within one machine, the
        destination machine's NIC (:meth:`ClusterSpec.network_link`) across
        machines."""
        dst_machine = self.machine_of(dst_device)
        if src_device == HOST_DEVICE:
            return self.host_link(dst_device)
        if src_device is None or self.machine_of(src_device) == dst_machine:
            return self.p2p_link(dst_device)
        return self.network_link(dst_machine)

    def _check_device(self, index: Optional[int]) -> None:
        if index is None or not 0 <= index < self.num_devices:
            raise SimulationError(
                f"device index {index} out of range for a topology with "
                f"{self.num_devices} device(s)"
            )


@dataclass(frozen=True)
class MachineSpec(_TopologyBase):
    """A single machine with multiple devices (the paper's setting).

    ``p2p_bandwidth`` is the per-device PCI-e peer-to-peer bandwidth;
    ``cpu_bandwidth`` is the *aggregate* host link shared by all devices,
    which is why the swapping baseline collapses when 8 GPUs swap at once
    (Sec 7.2).  Bandwidths and host memory must be finite numbers > 0, the
    launch overhead a finite number >= 0 (:class:`SimulationError`
    otherwise).
    """

    devices: List[DeviceSpec]
    p2p_bandwidth: float = 21e9
    cpu_bandwidth: float = 10e9
    cpu_memory: int = 488 * GiB
    kernel_launch_overhead: float = 8e-6

    def __post_init__(self):
        if not self.devices:
            raise SimulationError("a machine needs at least one device")
        _check_numbers(
            "MachineSpec", vars(self),
            positive=("p2p_bandwidth", "cpu_bandwidth", "cpu_memory"),
            non_negative=("kernel_launch_overhead",),
        )

    @property
    def machines(self) -> Tuple["MachineSpec"]:
        """``(self,)`` — a bare machine is the one-machine topology."""
        return (self,)

    @property
    def num_devices(self) -> int:
        """Number of devices in this machine."""
        return len(self.devices)

    def device(self, index: int) -> DeviceSpec:
        """The device at ``index`` (0-based; no negative indexing)."""
        self._check_device(index)
        return self.devices[index]


@dataclass(frozen=True)
class ClusterSpec(_TopologyBase):
    """N machines composed over a network link — a hierarchical topology.

    Every machine must be a :class:`MachineSpec` (a nested cluster is
    rejected: its inner network would be priced as one box's PCI-e).
    ``network_bandwidth``/``network_latency`` model the inter-machine fabric
    (default: a 10 Gb/s datacenter link with 40 µs latency — two orders of
    magnitude slower than PCI-e peer-to-peer, which is exactly the gap the
    hierarchical partitioning exploits).  The bandwidth must be a finite
    number > 0 and the latency a finite number >= 0.

    Structure and link resolution are the ones :class:`MachineSpec` uses
    too (one implementation over ``machines``); a cluster adds the network
    link, reached only by a transfer between two machines, and the
    accessors that read a device or a launch overhead across its machines.
    """

    machines: List[MachineSpec]
    network_bandwidth: float = 1.25e9   # 10 Gb/s
    network_latency: float = 40e-6

    def __post_init__(self):
        if not self.machines:
            raise SimulationError("a cluster needs at least one machine")
        for index, machine in enumerate(self.machines):
            if not isinstance(machine, MachineSpec):
                raise SimulationError(
                    f"a cluster's machines must each be a MachineSpec; "
                    f"machine {index} is a {type(machine).__name__}"
                )
        _check_numbers(
            "ClusterSpec", vars(self),
            positive=("network_bandwidth",), non_negative=("network_latency",),
        )

    @property
    def devices(self) -> List[DeviceSpec]:
        """Every device in the cluster, in global-index order."""
        return [d for machine in self.machines for d in machine.devices]

    @property
    def num_devices(self) -> int:
        """Total device count across all machines."""
        return sum(machine.num_devices for machine in self.machines)

    def device(self, index: int) -> DeviceSpec:
        """The device at global index ``index``."""
        machine, local = self.locate(index)
        return machine.device(local)

    @property
    def kernel_launch_overhead(self) -> float:
        """Machine 0's launch overhead (machines are assumed homogeneous)."""
        return self.machines[0].kernel_launch_overhead

    def network_link(self, dst_machine: int) -> Link:
        """The destination machine's NIC: every inbound inter-machine
        transfer to that machine contends on one queue (the aggregate-link
        analogue of the shared CPU link)."""
        return Link(
            kind="net",
            key=f"net:m{dst_machine}",
            bandwidth=self.network_bandwidth,
            latency=self.network_latency,
        )


#: Either topology level accepted by the runtime and the simulator.
Topology = Union[MachineSpec, ClusterSpec]


def slice_topology_range(
    topology: Topology, start: int, num_devices: int
) -> Topology:
    """The sub-topology covering devices ``[start, start + num_devices)``.

    Used wherever a wrapper strategy hands part of the hardware to an inner
    strategy: ``dp`` replica groups, and the hybrid backend giving each
    replica group *its* machines, so a group straddling a machine boundary
    keeps the boundary (and its network link) in the slice.  Whole machines
    are kept as they are; the slice collapses to a bare :class:`MachineSpec`
    when the range stays inside one machine (so single-machine code paths
    keep their exact behaviour).
    """
    if num_devices <= 0:
        raise SimulationError("a topology slice needs at least one device")
    if start < 0 or start + num_devices > topology.num_devices:
        raise SimulationError(
            f"cannot slice devices [{start}, {start + num_devices}) out of a "
            f"topology with {topology.num_devices}"
        )
    machines: List[MachineSpec] = []
    offset = 0
    end = start + num_devices
    for machine in topology.machines:
        machine_end = offset + machine.num_devices
        lo = max(start, offset)
        hi = min(end, machine_end)
        if hi > lo:
            if hi - lo == machine.num_devices:
                machines.append(machine)
            else:
                machines.append(
                    replace(
                        machine,
                        devices=list(machine.devices[lo - offset:hi - offset]),
                    )
                )
        offset = machine_end
    if len(machines) == 1:
        return machines[0]
    return replace(topology, machines=machines)


def slice_machines(topology: Topology, num_machines: int) -> Topology:
    """The sub-cluster of the first ``num_machines`` machines (all their
    devices).  The ``machines(M)`` strategy combinator lowers through this;
    a one-machine slice collapses to the bare :class:`MachineSpec`."""
    if num_machines < 1:
        raise SimulationError("a machine slice needs at least one machine")
    if num_machines > topology.num_machines:
        raise SimulationError(
            f"cannot slice {num_machines} machine(s) out of a topology with "
            f"{topology.num_machines}"
        )
    if num_machines == topology.num_machines:
        return topology
    if num_machines == 1:
        return topology.machines[0]
    return replace(topology, machines=list(topology.machines[:num_machines]))


def k80_8gpu_machine(num_gpus: int = 8) -> MachineSpec:
    """The paper's p2.8xlarge testbed (or a smaller slice of it)."""
    devices = [DeviceSpec(name=f"gpu{i}") for i in range(num_gpus)]
    return MachineSpec(devices=devices)


def v100_machine(num_gpus: int = 8) -> MachineSpec:
    """A more modern configuration, used in examples/sensitivity studies."""
    devices = [
        DeviceSpec(
            name=f"gpu{i}",
            memory_bytes=16 * GiB,
            peak_flops=15.7e12,
            memory_bandwidth=900e9,
        )
        for i in range(num_gpus)
    ]
    return MachineSpec(
        devices=devices,
        p2p_bandwidth=150e9,   # NVLink-class
        cpu_bandwidth=32e9,
        kernel_launch_overhead=5e-6,
    )


def cluster_of(
    machine: MachineSpec,
    num_machines: int,
    *,
    network_bandwidth: float = 1.25e9,
    network_latency: float = 40e-6,
) -> Topology:
    """``num_machines`` copies of ``machine`` over one network fabric.

    ``num_machines=1`` returns the bare machine itself, so callers that
    parameterise over machine counts keep exact single-machine behaviour at
    count 1.
    """
    if num_machines < 1:
        raise SimulationError("a cluster needs at least one machine")
    if num_machines == 1:
        return machine
    return ClusterSpec(
        machines=[machine for _ in range(num_machines)],
        network_bandwidth=network_bandwidth,
        network_latency=network_latency,
    )


def _p2_cluster(count: int) -> Topology:
    return cluster_of(k80_8gpu_machine(), count)


def _v100_cluster(count: int) -> Topology:
    # NVLink boxes typically ship with faster NICs; model 100 Gb/s.
    return cluster_of(
        v100_machine(), count, network_bandwidth=12.5e9, network_latency=20e-6
    )


#: Named topologies the CLI's ``--preset`` flag (and tests) build from.
TOPOLOGY_PRESETS: Dict[str, Callable[[], Topology]] = {
    "p2_8xlarge": lambda: _p2_cluster(1),
    "p2_8xlarge_x2": lambda: _p2_cluster(2),
    "p2_8xlarge_x4": lambda: _p2_cluster(4),
    "v100_x2": lambda: _v100_cluster(2),
    "v100_x4": lambda: _v100_cluster(4),
}


def topology_preset(name: str) -> Topology:
    """Build a named topology preset; raises :class:`SimulationError` with
    the known names on a miss."""
    try:
        factory = TOPOLOGY_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_PRESETS))
        raise SimulationError(
            f"unknown topology preset {name!r} (known: {known})"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
def _device_to_dict(device: DeviceSpec) -> dict:
    import dataclasses

    return dataclasses.asdict(device)


def _machine_fields(machine: MachineSpec) -> dict:
    return {
        "devices": [_device_to_dict(d) for d in machine.devices],
        "p2p_bandwidth": machine.p2p_bandwidth,
        "cpu_bandwidth": machine.cpu_bandwidth,
        "cpu_memory": machine.cpu_memory,
        "kernel_launch_overhead": machine.kernel_launch_overhead,
    }


def machine_to_dict(topology: Topology) -> dict:
    """JSON-serialisable form of a machine or cluster model; inverse of
    :func:`machine_from_dict`.  Backs ``CompiledModel.save``.

    The payload carries ``version`` (currently ``2``) and ``kind``
    (``"machine"`` or ``"cluster"``); version-1 payloads — plain
    ``MachineSpec`` field dumps without either key — still load.
    """
    if isinstance(topology, ClusterSpec):
        return {
            "version": MACHINE_PAYLOAD_VERSION,
            "kind": "cluster",
            "machines": [_machine_fields(m) for m in topology.machines],
            "network_bandwidth": topology.network_bandwidth,
            "network_latency": topology.network_latency,
        }
    payload = {"version": MACHINE_PAYLOAD_VERSION, "kind": "machine"}
    payload.update(_machine_fields(topology))
    return payload


_MACHINE_KEYS = (
    "p2p_bandwidth", "cpu_bandwidth", "cpu_memory", "kernel_launch_overhead"
)
_DEVICE_KEYS = ("name", "memory_bytes", "peak_flops", "memory_bandwidth")
_LINK_KEYS = ("kind", "key", "bandwidth", "latency")


def is_finite_number(value: object) -> bool:
    """Whether ``value`` is a finite ``int`` or ``float`` (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _check_numbers(
    what: str,
    payload: dict,
    positive: Tuple[str, ...] = (),
    non_negative: Tuple[str, ...] = (),
) -> None:
    """Raise :class:`SimulationError` unless each present ``positive`` field
    is a finite number > 0 and each ``non_negative`` one a finite number
    >= 0."""
    for names, bound in ((positive, "> 0"), (non_negative, ">= 0")):
        for name in names:
            if name not in payload:
                continue
            value = payload[name]
            if (
                not is_finite_number(value)
                or value < 0
                or (value == 0 and bound == "> 0")
            ):
                raise SimulationError(
                    f"{what} field {name!r} must be a finite number {bound}, "
                    f"got {value!r}"
                )


def _load_device(entry: dict) -> DeviceSpec:
    unknown = sorted(set(entry) - set(_DEVICE_KEYS))
    if unknown:
        raise SimulationError(
            f"machine payload has unknown device field(s) {unknown} "
            f"(known: {', '.join(_DEVICE_KEYS)})"
        )
    return DeviceSpec(**entry)


def _load_machine(payload: dict) -> MachineSpec:
    devices = [_load_device(dict(entry)) for entry in payload.get("devices", [])]
    kwargs = {k: payload[k] for k in _MACHINE_KEYS if k in payload}
    unknown = sorted(set(payload) - set(_MACHINE_KEYS) - {"devices"})
    if unknown:
        raise SimulationError(
            f"machine payload has unknown field(s) {unknown} "
            f"(known: devices, {', '.join(_MACHINE_KEYS)})"
        )
    return MachineSpec(devices=devices, **kwargs)


def link_from_dict(payload: dict) -> Link:
    """Rebuild a :class:`Link` from its field dump (a program task row's
    ``link``), with the bandwidth and latency checks of
    :func:`machine_from_dict`."""
    if not isinstance(payload, dict):
        raise SimulationError(
            f"link payload must be a mapping, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_LINK_KEYS))
    if unknown:
        raise SimulationError(
            f"link payload has unknown field(s) {unknown} "
            f"(known: {', '.join(_LINK_KEYS)})"
        )
    _check_numbers(
        "link payload", payload,
        positive=("bandwidth",), non_negative=("latency",),
    )
    return Link(**payload)


def machine_from_dict(payload: dict) -> Topology:
    """Rebuild a :class:`MachineSpec` or :class:`ClusterSpec` from
    :func:`machine_to_dict` output.

    Payloads without a ``version`` field are the pre-cluster format and load
    as plain machines; a payload declaring a version this library does not
    understand is rejected with a clear :class:`SimulationError` (never a
    ``TypeError`` from unexpected keyword arguments), and so is a bandwidth,
    FLOP rate or memory size that is not a finite number > 0, or a launch
    overhead or latency that is not a finite number >= 0 (the checks of the
    :class:`DeviceSpec`, :class:`MachineSpec` and :class:`ClusterSpec`
    constructors).
    """
    if not isinstance(payload, dict):
        raise SimulationError(
            f"machine payload must be a mapping, got {type(payload).__name__}"
        )
    version = payload.get("version")
    if version is None:
        # Version-1 payload: a bare MachineSpec field dump.
        return _load_machine(payload)
    if version != MACHINE_PAYLOAD_VERSION:
        raise SimulationError(
            f"unsupported machine payload version {version!r} (this library "
            f"reads versions: 1 [no 'version' field], "
            f"{MACHINE_PAYLOAD_VERSION})"
        )
    kind = payload.get("kind", "machine")
    body = {k: v for k, v in payload.items() if k not in ("version", "kind")}
    if kind == "machine":
        return _load_machine(body)
    if kind == "cluster":
        machines = [_load_machine(dict(m)) for m in body.pop("machines", [])]
        unknown = sorted(
            set(body) - {"network_bandwidth", "network_latency"}
        )
        if unknown:
            raise SimulationError(
                f"cluster payload has unknown field(s) {unknown} "
                f"(known: machines, network_bandwidth, network_latency)"
            )
        if not machines:
            raise SimulationError("cluster payload has no machines")
        return ClusterSpec(machines=machines, **body)
    raise SimulationError(
        f"unknown machine payload kind {kind!r} (known: machine, cluster)"
    )
