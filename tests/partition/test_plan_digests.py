"""Golden plan digests: the partition search must return bit-identical plans.

Each digest is the plan's :func:`plan_signature`: the sha256 of
``plan_to_dict`` without the wall-clock ``search_time_seconds``, serialised
as sorted-key JSON (floats round-trip exactly through ``repr``).  Any change
to a chosen dimension, a strategy or a single bit of a step cost changes
the digest, so a speed-up of the search that claims to leave plans alone
is held to it here.  The program cache keys a plan by the same signature.
"""

from __future__ import annotations

import pytest

from repro.partition.coarsen import coarsen
from repro.partition.cost import CommunicationCostModel
from repro.partition.dp import count_joint_configurations, joint_partition
from repro.partition.plan import plan_signature
from repro.partition.recursive import recursive_partition

GOLDEN = {
    "mlp-2-tofu": "da69d362d827576a716bfc0dc6af527d76247cfc1aca2d4ccc3e336144d34cc2",
    "mlp-2-noreduce": "7ea33d05c7df2231c867f6f64b63918aa37704cfd02da29909d0a76a80fe5c71",
    "mlp-4-tofu": "d5ca896ea7f45844a2fd57e29ea4f3cd4127705baf0b590cf21c1c52c32132ae",
    "mlp-4-noreduce": "e825b32f47c4288c97afdb068c1a195ff13dbe4cdb03dda33cc90d3fb198bcda",
    "mlp-6-tofu": "dab5826083b0a6a3ac4b62d79d50009adc2ebce075db41c0ea928a8272611b63",
    "mlp-6-noreduce": "90d8793a837fc3cf4c79cc63016bffc3220ca7d0133878f4ce71707eebc4cb1c",
    "mlp-8-tofu": "16722bfa5bcbc11ad7465ef9ddd460065730cddb379b1d6759d6b18812f831df",
    "mlp-8-noreduce": "c8ca05f9e432d2e56a48133f3bd6d4a15214f2f46afcfa3b1b94fac984b11803",
    "rnn-2-tofu": "15e67b9984af2d2b8663c28d284944276f0fcd776e7dd0302ea5110434d9cfe9",
    "rnn-2-noreduce": "18c387987b3395681bfea49fb4108230e8b407e4f1f0867af5f792eee6345bd0",
    "rnn-4-tofu": "395ae8f21f2c759fbb993627616bf928e4332b93d28c939901556dae41196453",
    "rnn-4-noreduce": "010a86d8519b0d0ed196e0f51c276e6f77f99e81d6c7aee792df5dd95c749ca0",
    "rnn-6-tofu": "1ae03b683454d32e4d8fd712746d8a52682e0bd201960861793be96038323888",
    "rnn-6-noreduce": "245fca6c2fec37db178d075aaae7b4e374c4c887e7c8290850e632d47826d62f",
    "rnn-8-tofu": "114bf72bbd33edff275efb2b2c376f2a941da64bacd5d5bacc6942ff86b18d30",
    "rnn-8-noreduce": "282ed104dd4cf68c9b631e1981a66d3ece7ef854ee418ac54226ea29f8608911",
    "cnn-2-tofu": "4673c8dc20a667ec422e3b7941517fd625ba5dec08b0361a460c1b1bbe10efcb",
    "cnn-2-noreduce": "9c638b2b579e80f67e9ef9ac79032dfdf6485ced5b25cf39e387f96dbc0c7561",
    "cnn-4-tofu": "11064b2440e0b5e8eaef41f9c7cd9008b4c3eaa71fb4cb87c6170305ee4226d5",
    "cnn-4-noreduce": "8d7a877ca05c93471974b7356b966cbc9a4ce1c4b29510eadfb41af61175d927",
    "cnn-6-tofu": "8bf608ced3188acefdde7a08630c2790ffc2035d4877ccf39d7d399ab9bb5cfa",
    "cnn-6-noreduce": "137a478bc060937fd48a1319d0dbb129d9a258e60254fb1ade9f11e1c0a350b8",
    "cnn-8-tofu": "4fa011f040692e098d95ae99cf2fea204860db9ef86d366cdf5e0bcaef86ef06",
    "cnn-8-noreduce": "803f5da1cdda2356f56b5f6ad2da7c15db410b6f01f4dd9339678fc8439d0af6",
    "mlp-joint-4": "79f6bf060a218b7e08c8ded2ffe304a52fc8e49364f7d450ca966b18e1fc744a",
}

#: ``count_joint_configurations`` on the shared fixtures (Table 1 inputs).
JOINT_COUNTS = {
    ("mlp", 4): (13.0, 16.0, 82.0),
    ("mlp", 8): (13.0, 64.0, 286.0),
    ("rnn", 4): (25.0, 64.0, 211.0),
    ("rnn", 8): (25.0, 512.0, 1243.0),
}


#: How many back-to-back searches each digest test runs on the shared graph:
#: a repeat search finds the shapes, profiles and memos the previous one left
#: behind and must still return the cold plan.
SEARCHES = [1, 4]


@pytest.mark.parametrize("searches", SEARCHES)
@pytest.mark.parametrize("reduction", ["tofu", "noreduce"])
@pytest.mark.parametrize("workers", [2, 4, 6, 8])
@pytest.mark.parametrize("model", ["mlp", "rnn", "cnn"])
def test_recursive_plan_digest(request, model, workers, reduction, searches):
    graph = request.getfixturevalue(f"{model}_bundle").graph
    for _ in range(searches):
        plan = recursive_partition(
            graph, workers, allow_reduction=reduction == "tofu"
        )
        assert plan_signature(plan) == GOLDEN[f"{model}-{workers}-{reduction}"]


@pytest.mark.parametrize("searches", SEARCHES)
def test_joint_plan_digest(mlp_bundle, searches):
    for _ in range(searches):
        plan = joint_partition(mlp_bundle.graph, 4)
        assert plan_signature(plan) == GOLDEN["mlp-joint-4"]


@pytest.mark.parametrize("model, workers", sorted(JOINT_COUNTS))
def test_joint_configuration_counts(request, model, workers):
    graph = request.getfixturevalue(f"{model}_bundle").graph
    stats = count_joint_configurations(
        coarsen(graph), CommunicationCostModel(graph), workers
    )
    counts = (
        stats["num_op_groups"],
        stats["max_configs_per_group"],
        stats["total_configs"],
    )
    assert counts == JOINT_COUNTS[(model, workers)]
