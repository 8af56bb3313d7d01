"""Golden task rows: lowering must emit bit-identical rows per strategy.

Each digest is the sha256 of ``repr(program.task_graph.rows)``:
every task's name, device, kind, duration, bytes, dependency ids and
endpoints, in emission order (floats round-trip exactly through ``repr``).
Next to it sit the program's ``total_comm_bytes`` and ``per_device_memory``,
the report a memory screen reads without the rows.  A change to when or how
rows are emitted that claims to leave programs alone is held to this table.
"""

from __future__ import annotations

import hashlib

import pytest

import repro
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import ClusterSpec, cluster_of, k80_8gpu_machine


def _even(num_devices, required):
    return {device: required for device in range(num_devices)}


#: (bundle, strategy) -> (rows digest, total comm bytes, per-device memory).
GOLDEN = {
    ("mlp", "tofu"): (
        "fbdcf0b29f8e0c66cc1a5f88da40d6f711d4d038c51330469cdfc311ebe5bdb8",
        960056.0, _even(8, 346984),
    ),
    ("mlp", "single"): (
        "6ea44e7045e42ed765014b22bf7912e293cf2ff84091b003a77eb869e419fc73",
        0.0, {0: 2579208},
    ),
    ("mlp", "pipeline:2:1f1b:4"): (
        "459f5945bf7e3f5003f0895fd8455ce27c0c79e269bcfa79d53ca5e377159983",
        65536.0, {0: 1265664, 1: 768578},
    ),
    ("mlp", "pipeline:2:gpipe:4"): (
        "c1a457b970cad43932151e41c8756af537e226743ac560c1c690b9c0f3b9b370",
        65536.0, {0: 1478656, 1: 1100552},
    ),
    ("mlp", "dp:2/tofu"): (
        "fd8b47c3d2368a6cdbe347115035005f402236c78f384ce12f59182ccf4ab918",
        2350616.0, _even(8, 677576),
    ),
    ("mlp", "dp:2/pipeline:2:1f1b:4"): (
        "cb82326b34c09f5bee1735a622e1584c1a6e1dfb04078b57dba105207a04fc57",
        1776128.0, {0: 1265664, 1: 768578, 4: 1265664, 5: 768578},
    ),
    ("rnn", "tofu"): (
        "3db979aaf968f7395e52abc2091e42f350055a17f9fbfd82850c1320f74bee7c",
        1966136.0, _even(8, 601092),
    ),
    ("rnn", "single"): (
        "825541b4950a4cdee8435d7b8007445db6c9617e23b3ad2df4b4c8e1acf7adbd",
        0.0, {0: 4759556},
    ),
    ("rnn", "pipeline:2:1f1b:4"): (
        "8d9c80eac0bd629921b2abc97563c223e87fc8a90a4c1ae19bc36d2706588357",
        2170880.0, {0: 1589248, 1: 1447937},
    ),
    ("rnn", "pipeline:2:gpipe:4"): (
        "dba2ea61f35ec868909e0c99d47614940ad2cf55302c61da169a5d74958777e3",
        2170880.0, {0: 2125824, 1: 2633732},
    ),
    ("rnn", "dp:2/tofu"): (
        "41e41b40860b38bcf9025b69a426688892d74197644b9ca87a88e227fe9ed6da",
        3416088.0, _even(8, 1198084),
    ),
    ("rnn", "dp:2/pipeline:2:1f1b:4"): (
        "698ef909d4d934734bc1822866479c1c4de7d1cd1a3c565b2c573f1ecd48b885",
        4276224.0, {0: 1589248, 1: 1447937, 4: 1589248, 5: 1447937},
    ),
}


#: Tofu setups whose devices do not all emit alike: machine, backend options.
TOFU_SETUPS = {
    "k80x4_x2": (lambda: cluster_of(k80_8gpu_machine(4), 2), {}),
    "k80_6+2": (
        lambda: ClusterSpec(machines=[k80_8gpu_machine(6), k80_8gpu_machine(2)]),
        {},
    ),
    "k80x8_unfused": (lambda: k80_8gpu_machine(8), {"fuse_remote_fetch": False}),
    "k80x8_funnelled": (lambda: k80_8gpu_machine(8), {"spread_reduction": False}),
}

#: (bundle, tofu setup) -> (rows digest, total comm bytes, per-device memory).
TOFU_GOLDEN = {
    ("mlp", "k80x4_x2"): (
        "128f0ad91b0cf7aa0f9401bec40421724dc43f6dce6d5ff71f4a6a135ccdd658",
        960056.0, _even(8, 346984),
    ),
    ("mlp", "k80_6+2"): (
        "7988589633009c2673cfbff0ea33eb590b039c6a54aa26c8e737ce67b875109f",
        960056.0, _even(8, 346984),
    ),
    ("mlp", "k80x8_unfused"): (
        "e591a5c622a8e9da173283e1cf17177c2cdf37c3c6391dd97e9cd84cd78c3ca4",
        960056.0, _even(8, 383848),
    ),
    ("mlp", "k80x8_funnelled"): (
        "2bedf14bb49a9698cfa2519d56101664c8bfb2b1cbe479be8bdd5cde6b822c73",
        960056.0, _even(8, 346984),
    ),
    ("rnn", "k80x4_x2"): (
        "0b6ec336aaa54e3aaeb7806a150eef4e91e5eb344f4e0743af00a4f705b5e4a7",
        1966136.0, _even(8, 601092),
    ),
    ("rnn", "k80_6+2"): (
        "28f8f38c273ccb14c392521398caf99a8e6577352ecfdbcb031c82a42ec1790a",
        1966136.0, _even(8, 601092),
    ),
    ("rnn", "k80x8_unfused"): (
        "55249ebf07f141cf9c69a2c7fcfa1897b36aa6bec2b157a42711f839dcbb97bb",
        1966136.0, _even(8, 610308),
    ),
    ("rnn", "k80x8_funnelled"): (
        "058e2c2b78d1cd4b8b72c1c041f92009ecf99c9020e557aa221a6f4ce28d3517",
        1966136.0, _even(8, 601092),
    ),
}


#: Machines the other lowerings are pinned on: one box, and a cluster.
MACHINES = {
    "k80x8": lambda: k80_8gpu_machine(8),
    "k80x4_x2": lambda: cluster_of(k80_8gpu_machine(4), 2),
}

#: (bundle, strategy, machine) -> (rows digest, total comm bytes, per-device
#: memory), for the placement, swap, single and pipeline leaves, data
#: parallelism over them, and the ``data-parallel`` backend, which no strategy
#: names and is lowered by its backend name.  Rows name endpoints, not links,
#: so both machines emit the same rows, except where a bare pipeline spreads
#: its stages over both boxes of the cluster.  On the cluster each replica
#: group of a hybrid is lowered on its own slice.
LOWERING_GOLDEN = {
    ("mlp", "data-parallel", "k80x4_x2"): (
        "715fc0175fe54684e3f645d83cdf9d11eaa57c7abb275ae73cd5512d99124a5c",
        11974144.0, _even(8, 2579208),
    ),
    ("mlp", "data-parallel", "k80x8"): (
        "715fc0175fe54684e3f645d83cdf9d11eaa57c7abb275ae73cd5512d99124a5c",
        11974144.0, _even(8, 2579208),
    ),
    ("mlp", "dp:2/pipeline:2:1f1b:4", "k80x4_x2"): (
        "cb82326b34c09f5bee1735a622e1584c1a6e1dfb04078b57dba105207a04fc57",
        1776128.0, {0: 1265664, 1: 768578, 4: 1265664, 5: 768578},
    ),
    ("mlp", "dp:2/pipeline:2:1f1b:4", "k80x8"): (
        "cb82326b34c09f5bee1735a622e1584c1a6e1dfb04078b57dba105207a04fc57",
        1776128.0, {0: 1265664, 1: 768578, 4: 1265664, 5: 768578},
    ),
    ("mlp", "dp:2/pipeline:3:gpipe:4", "k80x4_x2"): (
        "199c51e8de39f4f72541cc63988ccb579842c912526480b2680075f09b95987a",
        1841664.0, {0: 624640, 1: 854016, 2: 1100552, 4: 624640, 5: 854016, 6: 1100552},
    ),
    ("mlp", "dp:2/pipeline:3:gpipe:4", "k80x8"): (
        "199c51e8de39f4f72541cc63988ccb579842c912526480b2680075f09b95987a",
        1841664.0, {0: 624640, 1: 854016, 2: 1100552, 4: 624640, 5: 854016, 6: 1100552},
    ),
    ("mlp", "dp:2/placement", "k80x4_x2"): (
        "22a2426d7bb6279c384bcf8d0dbc6b53c41f031f8606e4cae5bcc8d8b1c581b5",
        1907200.0,
        {0: 624640, 1: 854016, 2: 854016, 3: 246536,
         4: 624640, 5: 854016, 6: 854016, 7: 246536},
    ),
    ("mlp", "dp:2/placement", "k80x8"): (
        "22a2426d7bb6279c384bcf8d0dbc6b53c41f031f8606e4cae5bcc8d8b1c581b5",
        1907200.0,
        {0: 624640, 1: 854016, 2: 854016, 3: 246536,
         4: 624640, 5: 854016, 6: 854016, 7: 246536},
    ),
    ("mlp", "dp:2/swap", "k80x4_x2"): (
        "3708c1118a50b112ead4d10206b60ea10d3fb6d40a047eb820b70917f20817e8",
        1710592.0, {0: 2432644, 4: 2432644},
    ),
    ("mlp", "dp:2/swap", "k80x8"): (
        "3708c1118a50b112ead4d10206b60ea10d3fb6d40a047eb820b70917f20817e8",
        1710592.0, {0: 2432644, 4: 2432644},
    ),
    ("mlp", "dp:4/pipeline:2:1f1b:4", "k80x4_x2"): (
        "8ee6f14680d96d84594246f0e7cfd54b587003f71762e6c7af98d6cf44bc5914",
        5197312.0,
        {0: 1265664, 1: 768578, 2: 1265664, 3: 768578,
         4: 1265664, 5: 768578, 6: 1265664, 7: 768578},
    ),
    ("mlp", "dp:4/pipeline:2:1f1b:4", "k80x8"): (
        "8ee6f14680d96d84594246f0e7cfd54b587003f71762e6c7af98d6cf44bc5914",
        5197312.0,
        {0: 1265664, 1: 768578, 2: 1265664, 3: 768578,
         4: 1265664, 5: 768578, 6: 1265664, 7: 768578},
    ),
    ("mlp", "dp:4/single", "k80x4_x2"): (
        "6ecdfbfc61aef355462c7cb8e082ea51c378616e1922348521c4c9a708d4f6b9",
        5131776.0, {0: 2579208, 2: 2579208, 4: 2579208, 6: 2579208},
    ),
    ("mlp", "dp:4/single", "k80x8"): (
        "6ecdfbfc61aef355462c7cb8e082ea51c378616e1922348521c4c9a708d4f6b9",
        5131776.0, {0: 2579208, 2: 2579208, 4: 2579208, 6: 2579208},
    ),
    ("mlp", "pipeline:2:1f1b:4", "k80x4_x2"): (
        "4d2da75e8f3a742f38e6875cd4b1be3ad1419b1ada211f2723e7ce226daa6919",
        65536.0, {0: 1265664, 4: 768578},
    ),
    ("mlp", "pipeline:2:1f1b:4", "k80x8"): (
        "459f5945bf7e3f5003f0895fd8455ce27c0c79e269bcfa79d53ca5e377159983",
        65536.0, {0: 1265664, 1: 768578},
    ),
    ("mlp", "placement", "k80x4_x2"): (
        "043ee3cd9139260c727ba070e29e33b99a444330351af0dec2f67b3a3a78f505",
        196608.0, {0: 624640, 1: 854016, 2: 854016, 3: 246536, 4: 0, 5: 0, 6: 0, 7: 0},
    ),
    ("mlp", "placement", "k80x8"): (
        "043ee3cd9139260c727ba070e29e33b99a444330351af0dec2f67b3a3a78f505",
        196608.0, {0: 624640, 1: 854016, 2: 854016, 3: 246536, 4: 0, 5: 0, 6: 0, 7: 0},
    ),
    ("mlp", "swap", "k80x4_x2"): (
        "8c5c1a6deb7f2074a4e8feb935a8a0a0cf6432ee685e86970103045dc08c8fcd",
        0.0, {0: 2432644},
    ),
    ("mlp", "swap", "k80x8"): (
        "8c5c1a6deb7f2074a4e8feb935a8a0a0cf6432ee685e86970103045dc08c8fcd",
        0.0, {0: 2432644},
    ),
    ("rnn", "data-parallel", "k80x4_x2"): (
        "09241adce6b4d87e8d889673bdbd1d20c17d99f1c57a9479533339b7b1528a18",
        14737408.0, _even(8, 4759556),
    ),
    ("rnn", "data-parallel", "k80x8"): (
        "09241adce6b4d87e8d889673bdbd1d20c17d99f1c57a9479533339b7b1528a18",
        14737408.0, _even(8, 4759556),
    ),
    ("rnn", "dp:2/pipeline:2:1f1b:4", "k80x4_x2"): (
        "698ef909d4d934734bc1822866479c1c4de7d1cd1a3c565b2c573f1ecd48b885",
        4276224.0, {0: 1589248, 1: 1447937, 4: 1589248, 5: 1447937},
    ),
    ("rnn", "dp:2/pipeline:2:1f1b:4", "k80x8"): (
        "698ef909d4d934734bc1822866479c1c4de7d1cd1a3c565b2c573f1ecd48b885",
        4276224.0, {0: 1589248, 1: 1447937, 4: 1589248, 5: 1447937},
    ),
    ("rnn", "dp:2/placement", "k80x4_x2"): (
        "fafd7df16c9ce69428420bb975a53b254b6d033021163d6aa9fdb8efb3ca5d9d",
        4802560.0,
        {0: 2125824, 1: 2633732, 2: 0, 3: 0, 4: 2125824, 5: 2633732, 6: 0, 7: 0},
    ),
    ("rnn", "dp:2/placement", "k80x8"): (
        "fafd7df16c9ce69428420bb975a53b254b6d033021163d6aa9fdb8efb3ca5d9d",
        4802560.0,
        {0: 2125824, 1: 2633732, 2: 0, 3: 0, 4: 2125824, 5: 2633732, 6: 0, 7: 0},
    ),
    ("rnn", "dp:2/swap", "k80x4_x2"): (
        "9e34aaa252e79f322e1083e83f342695525d202c5e9184443ab2ea78b30ad37e",
        2105344.0, {0: 4558852, 4: 4558852},
    ),
    ("rnn", "dp:2/swap", "k80x8"): (
        "9e34aaa252e79f322e1083e83f342695525d202c5e9184443ab2ea78b30ad37e",
        2105344.0, {0: 4558852, 4: 4558852},
    ),
    ("rnn", "dp:4/pipeline:2:1f1b:4", "k80x4_x2"): (
        "430a9ff38be64877a658d72c5fb15d66c7c7b368633d98d919e0febe01325af8",
        8486912.0,
        {0: 1589248, 1: 1447937, 2: 1589248, 3: 1447937,
         4: 1589248, 5: 1447937, 6: 1589248, 7: 1447937},
    ),
    ("rnn", "dp:4/pipeline:2:1f1b:4", "k80x8"): (
        "430a9ff38be64877a658d72c5fb15d66c7c7b368633d98d919e0febe01325af8",
        8486912.0,
        {0: 1589248, 1: 1447937, 2: 1589248, 3: 1447937,
         4: 1589248, 5: 1447937, 6: 1589248, 7: 1447937},
    ),
    ("rnn", "dp:4/single", "k80x4_x2"): (
        "17d07c882c7414f46529ba25f67aa0f063dc5467a445aaea802cc7f8d2dea9ea",
        6316032.0, {0: 4759556, 2: 4759556, 4: 4759556, 6: 4759556},
    ),
    ("rnn", "dp:4/single", "k80x8"): (
        "17d07c882c7414f46529ba25f67aa0f063dc5467a445aaea802cc7f8d2dea9ea",
        6316032.0, {0: 4759556, 2: 4759556, 4: 4759556, 6: 4759556},
    ),
    ("rnn", "pipeline:2:1f1b:4", "k80x4_x2"): (
        "37c9b030d4ad8886432cdc1a03e2f2c2bc57bd9e0b5663c2385b9cb10324b746",
        2170880.0, {0: 1589248, 4: 1447937},
    ),
    ("rnn", "pipeline:2:1f1b:4", "k80x8"): (
        "8d9c80eac0bd629921b2abc97563c223e87fc8a90a4c1ae19bc36d2706588357",
        2170880.0, {0: 1589248, 1: 1447937},
    ),
    ("rnn", "placement", "k80x4_x2"): (
        "45888f93520637e746e62999a97b14cbe00416899af053436804b3f19fabfd90",
        2697216.0, {0: 2125824, 1: 2633732, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0},
    ),
    ("rnn", "placement", "k80x8"): (
        "45888f93520637e746e62999a97b14cbe00416899af053436804b3f19fabfd90",
        2697216.0, {0: 2125824, 1: 2633732, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0},
    ),
    ("rnn", "swap", "k80x4_x2"): (
        "e6b34c28b37f4b107ac05c7aa62e45e26bf1f069c0ea16db9cc9e887bf0fd65e",
        0.0, {0: 4558852},
    ),
    ("rnn", "swap", "k80x8"): (
        "e6b34c28b37f4b107ac05c7aa62e45e26bf1f069c0ea16db9cc9e887bf0fd65e",
        0.0, {0: 4558852},
    ),
}


def rows_digest(program) -> str:
    rows = program.task_graph.rows
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("model, strategy", sorted(GOLDEN))
def test_rows_and_memory_report_are_pinned(request, model, strategy):
    graph = request.getfixturevalue(f"{model}_bundle").graph
    executor = Executor(ExecutorConfig(cache_programs=False))
    program = repro.compile(
        graph, strategy, executor=executor, lower_only=True
    ).program
    digest, total_comm_bytes, per_device_memory = GOLDEN[model, strategy]
    # The memory report first: a screen reads it before any row is needed.
    assert program.total_comm_bytes == total_comm_bytes
    assert program.per_device_memory == per_device_memory
    assert rows_digest(program) == digest


@pytest.mark.parametrize("model, setup", sorted(TOFU_GOLDEN))
def test_tofu_rows_are_pinned_where_devices_differ(request, model, setup):
    """Clusters split a device's gather by where it sits, and the unfused
    fetch and the funnelled reduction treat devices apart."""
    graph = request.getfixturevalue(f"{model}_bundle").graph
    make_machine, options = TOFU_SETUPS[setup]
    machine = make_machine()
    executor = Executor(ExecutorConfig(cache_programs=False))
    plan = repro.compile(
        graph, "tofu", machine, executor=executor, lower_only=True
    ).plan
    program = executor.lower(
        graph, plan=plan, machine=machine, backend="tofu-partitioned",
        backend_options=options,
    )
    digest, total_comm_bytes, per_device_memory = TOFU_GOLDEN[model, setup]
    assert program.total_comm_bytes == total_comm_bytes
    assert program.per_device_memory == per_device_memory
    assert rows_digest(program) == digest


@pytest.mark.parametrize("model, strategy, machine", sorted(LOWERING_GOLDEN))
def test_lowering_rows_are_pinned_per_machine(request, model, strategy, machine):
    graph = request.getfixturevalue(f"{model}_bundle").graph
    topology = MACHINES[machine]()
    executor = Executor(ExecutorConfig(cache_programs=False))
    if strategy == "data-parallel":
        program = executor.lower(graph, machine=topology, backend=strategy)
    else:
        program = repro.compile(
            graph, strategy, topology, executor=executor, lower_only=True
        ).program
    digest, total_comm_bytes, per_device_memory = LOWERING_GOLDEN[
        model, strategy, machine
    ]
    assert program.total_comm_bytes == total_comm_bytes
    assert program.per_device_memory == per_device_memory
    assert rows_digest(program) == digest
