"""Wide ResNet models on ImageNet-sized inputs (Sec 7.1).

The paper evaluates WResNet-50/101/152 with widening scalars 4-10 on 224x224
images.  The architecture follows the original bottleneck ResNet (He et al.)
with every convolution's channel count multiplied by the widening scalar, so
the weight volume grows quadratically with the scalar — which is exactly what
makes these models exceed single-GPU memory (Table 2).
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.autodiff import build_backward, build_optimizer
from repro.graph.builder import GraphBuilder
from repro.models.layers import PERSISTENT_FACTOR, ModelBundle, conv_bn_relu

#: Residual blocks per stage for each supported depth (Fig. 11 describes the
#: 152-layer layout: 3, 8, 36, 3).
WRESNET_BLOCKS: Dict[int, List[int]] = {
    50: [3, 4, 6, 3],
    101: [3, 4, 23, 3],
    152: [3, 8, 36, 3],
}

#: Base (un-widened) bottleneck widths of the four stages.
STAGE_WIDTHS = [64, 128, 256, 512]
BOTTLENECK_EXPANSION = 4


def build_wide_resnet(
    *,
    depth: int = 50,
    widen: int = 4,
    batch_size: int = 32,
    image_size: int = 224,
    num_classes: int = 1000,
    training: bool = True,
    optimizer: str = "adagrad",
) -> ModelBundle:
    """Build a WResNet-{depth}-{widen} training graph.

    ``build_wide_resnet(depth=152, widen=10, batch_size=8)`` reproduces the
    largest model of the evaluation.
    """
    if depth not in WRESNET_BLOCKS:
        raise ValueError(f"unsupported WResNet depth {depth}; pick one of {sorted(WRESNET_BLOCKS)}")
    builder = GraphBuilder(f"wresnet{depth}_{widen}")
    weights: List[str] = []
    layer_of_node: Dict[str, int] = {}
    layer_index = 0

    def track(before: int) -> None:
        nonlocal layer_index
        for node in builder.graph.nodes_since(before):
            layer_of_node[node] = layer_index
        layer_index += 1

    data = builder.data("data", (batch_size, 3, image_size, image_size))
    labels = builder.input("labels", (batch_size,), kind="data")

    # Stem: 7x7 stride-2 convolution followed by a stride-2 max pool.
    before = len(builder.graph.nodes)
    stem_channels = 64 * widen
    out = conv_bn_relu(
        builder, data, 3, stem_channels, kernel=7, stride=2, prefix="stem", weights=weights
    )
    out = builder.apply(
        "max_pool2d", [out], name="stem_pool", attrs={"kernel": 3, "stride": 2, "pad": 1}
    )
    track(before)

    in_channels = stem_channels
    for stage, num_blocks in enumerate(WRESNET_BLOCKS[depth]):
        width = STAGE_WIDTHS[stage] * widen
        out_channels = width * BOTTLENECK_EXPANSION
        for block in range(num_blocks):
            before = len(builder.graph.nodes)
            stride = 2 if (block == 0 and stage > 0) else 1
            prefix = f"s{stage}b{block}"
            identity = out

            branch = conv_bn_relu(
                builder, out, in_channels, width, kernel=1, prefix=f"{prefix}_c1", weights=weights
            )
            branch = conv_bn_relu(
                builder, branch, width, width, kernel=3, stride=stride,
                prefix=f"{prefix}_c2", weights=weights,
            )
            branch = conv_bn_relu(
                builder, branch, width, out_channels, kernel=1, relu=False,
                prefix=f"{prefix}_c3", weights=weights,
            )
            if stride != 1 or in_channels != out_channels:
                identity = conv_bn_relu(
                    builder, out, in_channels, out_channels, kernel=1, stride=stride,
                    relu=False, prefix=f"{prefix}_proj", weights=weights,
                )
            out = builder.add(branch, identity, name=f"{prefix}_add")
            out = builder.relu(out, name=f"{prefix}_out")
            in_channels = out_channels
            track(before)

    before = len(builder.graph.nodes)
    pooled = builder.apply("global_avg_pool", [out], name="gap")
    fc_weight = builder.weight("fc_w", (in_channels, num_classes))
    fc_bias = builder.weight("fc_b", (num_classes,))
    weights.extend([fc_weight, fc_bias])
    logits = builder.matmul(pooled, fc_weight, name="fc")
    logits = builder.apply("bias_add", [logits, fc_bias], name="fc_bias")
    loss_vec = builder.apply("softmax_cross_entropy", [logits, labels], name="ce_loss")
    loss = builder.apply("reduce_mean_all", [loss_vec], name="loss")
    builder.mark_output(loss)
    track(before)

    if training:
        build_backward(builder, loss, weights)
        build_optimizer(builder, weights, algorithm=optimizer)
    graph = builder.finish()
    graph.metadata["layer_of_node"] = layer_of_node

    return ModelBundle(
        graph=graph,
        weights=weights,
        loss=loss,
        batch_size=batch_size,
        name=f"WResNet-{depth}-{widen}",
        layer_of_node=layer_of_node,
        hyperparams={
            "depth": depth,
            "widen": widen,
            "batch_size": batch_size,
            "image_size": image_size,
            "num_classes": num_classes,
        },
    )


def wresnet_weight_gib(depth: int, widen: int) -> float:
    """Analytic weight-memory footprint in GiB (weight + grad + history).

    Used by the Table 2 benchmark without having to build the (large) graph.
    """
    params = 0
    # Stem.
    stem_channels = 64 * widen
    params += 3 * stem_channels * 7 * 7 + 2 * stem_channels
    in_channels = stem_channels
    for stage, num_blocks in enumerate(WRESNET_BLOCKS[depth]):
        width = STAGE_WIDTHS[stage] * widen
        out_channels = width * BOTTLENECK_EXPANSION
        for block in range(num_blocks):
            stride = 2 if (block == 0 and stage > 0) else 1
            params += in_channels * width * 1 * 1 + 2 * width
            params += width * width * 3 * 3 + 2 * width
            params += width * out_channels * 1 * 1 + 2 * out_channels
            if stride != 1 or in_channels != out_channels:
                params += in_channels * out_channels + 2 * out_channels
            in_channels = out_channels
    params += in_channels * 1000 + 1000
    return PERSISTENT_FACTOR * params * 4 / (1 << 30)
