"""Command-line interface, built on ``repro.compile`` and the
:class:`repro.planner.Planner` / :class:`repro.runtime.Executor` facades.

``compile`` is the strategy-first entry point: ``--strategy`` takes any
expression of the combinator mini-language (``tofu``, ``single``,
``placement``, ``swap``, ``dp:<groups>``,
``pipeline:<stages>[:<schedule>[:<microbatches>]]``, composed with ``/``) or
``auto`` for the autotuner's sweep (the default 16-candidate budget, the
same as ``repro.compile(graph, "auto")``); ``--dry-run`` shows the lowering
(or the auto candidates) without planning or simulating, ``--save``
persists the compiled model as JSON, and ``--profile`` prints the stage
table (``tuner.screen`` / ``tuner.search`` / ``tuner.rank`` under ``auto``).

``compile`` and ``partition`` share a ``--cache-dir`` for the
persistent plan store.  ``partition`` takes a ``--backend`` (any registered
search backend — see ``tofu-repro backends``); ``compile`` names the search
in its strategy (``--strategy tofu:spartan``).

Examples::

    tofu-repro describe conv2d
    tofu-repro backends
    tofu-repro executors
    tofu-repro compile --model rnn --strategy dp:2/pipeline:2:1f1b:4/tofu \\
        --workers 8
    tofu-repro compile --model mlp --strategy auto --workers 8
    tofu-repro compile --model rnn --preset p2_8xlarge_x4 --strategy auto \\
        --profile
    tofu-repro compile --model mlp --strategy dp:2/tofu --dry-run
    tofu-repro partition --model wresnet --depth 50 --widen 4 --batch 32 --workers 8
    tofu-repro partition --model mlp --backend spartan --workers 8
    tofu-repro compile --model rnn --layers 6 --hidden 4096 --batch 256 \\
        --workers 8 --cache-dir ~/.cache/tofu-plans
    tofu-repro compile --model mlp --strategy swap --workers 8
    tofu-repro compile --model rnn --machines 2 --workers 4 \\
        --strategy machines:2/pipeline:2:1f1b:4/tofu
    tofu-repro coverage
    tofu-repro compile --model rnn --strategy pipeline:2:1f1b:4 --workers 4 \\
        --save model.json
    tofu-repro verify model.json

``verify`` statically checks a saved compiled model with the
``repro.analysis`` checkers and exits non-zero on findings; every finding
and error carries a stable code (``ANA003_CYCLIC_SCHEDULE`` style — see
``docs/verifier.md``).

Every model-building command accepts ``--machines N`` (a cluster of N
identical K80 boxes over a 10 Gb/s network) or ``--preset <name>`` (a named
topology such as ``p2_8xlarge_x4``); ``--workers`` is the GPU count per
machine.  To move the on-disk plan store between machines, copy the
``--cache-dir`` directory (content addresses are host-independent); to see
what it holds, list the directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import compiler, perf
from repro.errors import ReproError
from repro.interval.strategies import describe_operator
from repro.models.mlp import build_mlp
from repro.models.resnet import WRESNET_BLOCKS, build_wide_resnet
from repro.models.rnn import build_rnn
from repro.ops.catalog import mxnet_catalog_counts
from repro.planner import Planner, PlannerConfig, available_backends, get_backend
from repro.runtime import available_execution_backends, get_execution_backend
from repro.sim.device import (
    TOPOLOGY_PRESETS,
    cluster_of,
    k80_8gpu_machine,
    topology_preset,
)
from repro.strategy import (
    combinator_descriptions,
    lower_strategy,
    parse_strategy,
)
from repro.tdl.registry import GLOBAL_REGISTRY
from repro.tuner import tuner_candidates


def _build_model(args) -> "ModelBundle":
    if args.model == "mlp":
        return build_mlp(
            batch_size=args.batch, hidden_dim=args.hidden, num_layers=args.layers
        )
    if args.model == "rnn":
        return build_rnn(
            batch_size=args.batch, hidden_size=args.hidden, num_layers=args.layers
        )
    if args.model == "wresnet":
        return build_wide_resnet(
            depth=args.depth, widen=args.widen, batch_size=args.batch
        )
    raise SystemExit(f"unknown model {args.model!r}")


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=["mlp", "rnn", "wresnet"], default="mlp")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--hidden", type=int, default=1024)
    parser.add_argument("--layers", type=int, default=3)
    parser.add_argument(
        "--depth", type=int, choices=sorted(WRESNET_BLOCKS), default=50
    )
    parser.add_argument("--widen", type=int, default=4)
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="GPUs per machine (total devices = workers x machines)",
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=1,
        help="machines in the modelled cluster (>1 builds a ClusterSpec of "
        "identical K80 boxes over a 10 Gb/s network)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(TOPOLOGY_PRESETS),
        default=None,
        help="named cluster topology (overrides --workers/--machines)",
    )


def _build_topology(args):
    if getattr(args, "preset", None):
        return topology_preset(args.preset)
    return cluster_of(k80_8gpu_machine(args.workers), args.machines)


def _add_planner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the persistent plan cache (default: in-memory only)",
    )


def _make_planner(args) -> Planner:
    return Planner(PlannerConfig(cache_dir=args.cache_dir))


def cmd_describe(args) -> int:
    strategies = describe_operator(args.operator)
    print(f"{args.operator}: {len(strategies)} partition-n-reduce strategies")
    for strategy in strategies:
        print(" ", strategy.describe())
    return 0


def _print_combinators() -> None:
    print("strategy combinators (compose with '/', see `compile --strategy`):")
    for name, description in combinator_descriptions().items():
        print(f"  {name:<44} {description}")


def cmd_backends(args) -> int:
    print("registered search backends:")
    for name in available_backends():
        spec = get_backend(name)
        extra = " [factor-order search]" if spec.supports_factor_orders else ""
        print(f"  {name:<14} {spec.description}{extra}")
    _print_combinators()
    return 0


def cmd_executors(args) -> int:
    print("registered execution backends:")
    for name in available_execution_backends():
        spec = get_execution_backend(name)
        extra = " [needs partition plan]" if spec.requires_plan else ""
        print(f"  {name:<17} {spec.description}{extra}")
    _print_combinators()
    return 0


def cmd_partition(args) -> int:
    bundle = _build_model(args)
    planner = _make_planner(args)
    machine = _build_topology(args)
    # The plan is keyed by the modelled machine (--machines/--preset).
    plan = planner.plan(
        bundle.graph, machine.num_devices, machine=machine, backend=args.backend
    )
    print(f"model: {bundle.name} ({bundle.graph.num_nodes()} operators)")
    print(f"backend: {args.backend}")
    print(plan.summary())
    for weight in bundle.weights[:10]:
        ndim = len(bundle.graph.tensor(weight).shape)
        print(f"  {weight}: {plan.describe_tensor(weight, ndim)}")
    info = planner.cache_info()
    print(f"plan cache: {info['hits']} hits, {info['misses']} misses")
    return 0


def cmd_compile(args) -> int:
    if args.dry_run and args.save:
        print(
            "error: --save needs a compiled model; drop --dry-run to "
            "compile and save",
            file=sys.stderr,
        )
        return 1
    bundle = _build_model(args)
    machine = _build_topology(args)
    if machine.num_machines > 1:
        print(
            f"topology: {machine.num_machines} machines x "
            f"{machine.num_devices // machine.num_machines} GPUs"
        )
    print(f"model: {bundle.name} ({bundle.graph.num_nodes()} operators)")
    text = args.strategy.strip()
    strategy = text
    if text.lower() == "auto":
        if args.dry_run:
            # The candidates the default autotuner budget admits.
            print("strategy: auto — candidate sweep:")
            for candidate in tuner_candidates(machine)[: compiler.AUTO_MAX_CANDIDATES]:
                print(f"  {candidate}")
            return 0
    else:
        strategy = parse_strategy(text)
        if args.dry_run:
            print(f"strategy: {strategy}")
            lowering = lower_strategy(strategy, machine)
            print(lowering.describe())
            return 0
    timer = perf.StageTimer() if args.profile else None
    with perf.activation(timer):
        model = compiler.compile(
            bundle.graph, strategy, machine, planner=_make_planner(args)
        )
    print(model.summary())
    print(f"throughput: {model.throughput(bundle.batch_size):.1f} samples/s")
    if "tuner" in model.metadata:
        print("auto sweep:")
        for outcome in model.metadata["tuner"]["outcomes"]:
            if outcome["status"] == "skipped":
                continue
            if outcome["status"] != "evaluated":
                verdict = f"{outcome['status']}: {outcome['reason']}"
            elif outcome["oom"]:
                verdict = "oom"
            else:
                verdict = f"{outcome['iteration_time'] * 1e3:.2f} ms"
            print(f"  {outcome['strategy']:<32} {verdict}")
    if args.save:
        model.save(args.save)
        print(f"saved: {args.save}")
    if timer is not None:
        print(timer.summary())
    return 0


def cmd_verify(args) -> int:
    from repro.analysis import verify_model
    from repro.compiler import CompiledModel
    from repro.errors import AnalysisError

    artifact = args.artifact
    if not os.path.exists(artifact):
        raise AnalysisError(
            f"{artifact!r} is not a saved-model file",
            code="ANA014_UNKNOWN_ARTIFACT",
        )
    report = verify_model(CompiledModel.load(artifact))
    print(
        f"saved model {artifact}: {len(report.checks_run)} check(s), "
        f"{len(report.findings)} finding(s)"
    )
    for finding in report.findings:
        print(f"  {finding}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_coverage(args) -> int:
    own = GLOBAL_REGISTRY.coverage_report()
    mxnet = mxnet_catalog_counts()
    print("TDL coverage (this repository's operator library):")
    for key, value in own.items():
        print(f"  {key}: {value}")
    print("TDL coverage (reconstructed MXNet v0.11 catalogue, Sec 4.1):")
    for key, value in mxnet.items():
        print(f"  {key}: {value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tofu-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_describe = sub.add_parser("describe", help="show an operator's strategies")
    p_describe.add_argument("operator")
    p_describe.set_defaults(func=cmd_describe)

    p_backends = sub.add_parser("backends", help="list registered search backends")
    p_backends.set_defaults(func=cmd_backends)

    p_executors = sub.add_parser(
        "executors", help="list registered execution backends"
    )
    p_executors.set_defaults(func=cmd_executors)

    p_compile = sub.add_parser(
        "compile", help="compile a model under a strategy expression"
    )
    _add_model_args(p_compile)
    _add_planner_args(p_compile)
    p_compile.add_argument(
        "--strategy",
        default="tofu",
        help="strategy expression (e.g. dp:2/pipeline:2:1f1b:4/tofu) or 'auto'",
    )
    p_compile.add_argument(
        "--dry-run",
        action="store_true",
        help="show the strategy lowering (or auto candidates) without "
        "planning or simulating",
    )
    p_compile.add_argument(
        "--save",
        default=None,
        help="write the compiled model (plan + program metadata) to this path",
    )
    p_compile.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage timings and cache counters of the compile",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_partition = sub.add_parser("partition", help="search a partition plan")
    _add_model_args(p_partition)
    _add_planner_args(p_partition)
    p_partition.add_argument(
        "--backend",
        choices=available_backends(),
        default="tofu",
        help="partition-search backend (see the `backends` command)",
    )
    p_partition.set_defaults(func=cmd_partition)

    p_coverage = sub.add_parser("coverage", help="TDL operator coverage statistics")
    p_coverage.set_defaults(func=cmd_coverage)

    p_verify = sub.add_parser("verify", help="statically verify a saved model file")
    p_verify.add_argument("artifact", help="path of a --save'd compiled model")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        code = getattr(exc, "code", None)
        prefix = f"[{code}] " if code else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
