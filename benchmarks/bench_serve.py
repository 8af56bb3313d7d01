"""Compile-service trajectory: latency tiers, dedup collapse, throughput.

Drives an in-process :class:`repro.serve.CompileService` through the three
tiers the server exists for and records, per tier:

* **latency** — median cold-compile latency (fresh graph, real search)
  against median warm-hit latency (plan + program caches hot); the
  ``warm_speedup`` ratio is the acceptance criterion (≥ 5x).
* **dedup** — N identical concurrent requests against a gated worker must
  collapse to exactly one planner search (``dedup_collapse`` = N per
  search executed).
* **throughput** — sustained requests/sec and p50/p99 latency over a mixed
  hot/cold workload issued by concurrent client threads.

Besides the printed table, the run writes a JSON trajectory whose ratios
are machine-independent; ``benchmarks/check_serve.py`` gates CI on them
against the committed ``BENCH_serve.json`` baseline.  Refresh the baseline
with::

    REPRO_BENCH_OUTPUT=BENCH_serve.json \
        python -m pytest benchmarks/bench_serve.py --benchmark-only

Smoke mode (the default) uses reduced request counts; set
``REPRO_BENCH_FULL=1`` for the full workload.
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from common import FULL, once, print_header

from repro.models.mlp import build_mlp
from repro.serve import CompileRequest, CompileService

BENCH_FORMAT = "tofu-bench-serve"
BENCH_VERSION = 1

# Acceptance: a warm-hit request must beat a cold compile by at least this.
WARM_MIN_SPEEDUP = 5.0

COLD_GRAPHS = 8 if FULL else 4
WARM_REPEATS = 40 if FULL else 15
DEDUP_CLIENTS = 32 if FULL else 16
MIXED_REQUESTS = 160 if FULL else 48
CLIENT_THREADS = 8


def _mlp_graph(hidden_dim, num_layers=3):
    return build_mlp(
        batch_size=8,
        input_dim=64,
        hidden_dim=hidden_dim,
        num_layers=num_layers,
        num_classes=32,
    ).graph


def _cold_graphs(count, base=48):
    """``count`` structurally distinct graphs — each compiles cold.

    Deep enough (5 layers) that the planner search dominates the cold
    latency; the warm path's cost is response serialisation, which grows
    much slower, keeping the cold/warm ratio robustly machine-independent.
    """
    return [_mlp_graph(base + 16 * i, num_layers=5) for i in range(count)]


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _median(values):
    ordered = sorted(values)
    return _percentile(ordered, 0.5)


# ---------------------------------------------------------------------------
# Tiers
# ---------------------------------------------------------------------------
def _measure_latency_tiers():
    """Median cold vs warm request latency on a single-worker service."""
    with CompileService(workers=1) as service:
        cold_latencies = []
        for graph in _cold_graphs(COLD_GRAPHS):
            request = CompileRequest(graph=graph, strategy="tofu", num_workers=4)
            start = time.perf_counter()
            response = service.compile(request)
            cold_latencies.append(time.perf_counter() - start)
            assert response.ok and response.stats["searches"] == 1

        warm_request = CompileRequest(
            graph=_cold_graphs(1)[0], strategy="tofu", num_workers=4
        )
        warm_latencies = []
        for _ in range(WARM_REPEATS):
            start = time.perf_counter()
            response = service.compile(warm_request)
            warm_latencies.append(time.perf_counter() - start)
            assert response.ok and response.stats["searches"] == 0

    cold = _median(cold_latencies)
    warm = _median(warm_latencies)
    return {
        "cold_median_seconds": cold,
        "warm_median_seconds": warm,
        "warm_speedup": cold / warm if warm > 0 else 0.0,
    }


def _measure_dedup():
    """N identical concurrent requests must cost exactly one search."""
    graph = _mlp_graph(hidden_dim=96, num_layers=4)
    request = CompileRequest(graph=graph, strategy="tofu", num_workers=4)
    with CompileService(workers=1) as service:
        # Gate the single worker so every client registers while the leader
        # is still pending — the worst-case thundering herd, made exact.
        gate = threading.Event()
        service._pool.submit(gate.wait)
        start = time.perf_counter()
        pendings = [service.submit(request) for _ in range(DEDUP_CLIENTS)]
        gate.set()
        responses = [p.result() for p in pendings]
        wall = time.perf_counter() - start
        stats = service.stats()
    assert all(r.ok for r in responses)
    searches = stats["searches"]
    return {
        "clients": DEDUP_CLIENTS,
        "searches": searches,
        "deduped": stats["deduped"],
        "dedup_collapse": DEDUP_CLIENTS / max(1, searches),
        "wall_seconds": wall,
    }


def _measure_mixed_throughput():
    """Sustained req/s and latency percentiles over a hot/cold mix.

    The workload interleaves three hot requests (already-cached model) with
    one cold request (fresh graph) — the shape of a fleet mostly asking for
    models the service has seen, with new configurations trickling in.
    """
    hot_graph = _mlp_graph(hidden_dim=80)
    hot = CompileRequest(graph=hot_graph, strategy="tofu", num_workers=4)
    cold_pool = _cold_graphs(MIXED_REQUESTS // 4 + 1, base=200)

    with CompileService(workers=4) as service:
        assert service.compile(hot).ok  # prime the hot tier

        requests = []
        cold_iter = iter(cold_pool)
        for i in range(MIXED_REQUESTS):
            if i % 4 == 3:
                requests.append(
                    ("cold", CompileRequest(graph=next(cold_iter),
                                            strategy="tofu", num_workers=4))
                )
            else:
                requests.append(("hot", hot))

        latencies = {"hot": [], "cold": []}
        lock = threading.Lock()

        def issue(item):
            kind, request = item
            start = time.perf_counter()
            response = service.compile(request)
            elapsed = time.perf_counter() - start
            assert response.ok
            with lock:
                latencies[kind].append(elapsed)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as clients:
            list(clients.map(issue, requests))
        wall = time.perf_counter() - start
        stats = service.stats()

    every = sorted(latencies["hot"] + latencies["cold"])
    return {
        "requests": MIXED_REQUESTS,
        "client_threads": CLIENT_THREADS,
        "requests_per_sec": MIXED_REQUESTS / wall,
        "p50_seconds": _percentile(every, 0.50),
        "p99_seconds": _percentile(every, 0.99),
        "hot_p50_seconds": _median(latencies["hot"]),
        "cold_p50_seconds": _median(latencies["cold"]),
        "searches": stats["searches"],
        "plan_cache_hits": stats["plan_cache_hits"],
        "program_cache_hits": stats["program_cache_hits"],
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def bench_serve(benchmark):
    def run():
        return {
            "latency": _measure_latency_tiers(),
            "dedup": _measure_dedup(),
            "throughput": _measure_mixed_throughput(),
        }

    tiers = once(benchmark, run)

    latency = tiers["latency"]
    dedup = tiers["dedup"]
    throughput = tiers["throughput"]

    print_header("Compile service: latency tiers, dedup collapse, throughput")
    print(
        f"latency      cold {latency['cold_median_seconds'] * 1e3:8.2f} ms   "
        f"warm {latency['warm_median_seconds'] * 1e3:8.2f} ms   "
        f"speedup {latency['warm_speedup']:6.1f}x"
    )
    print(
        f"dedup        {dedup['clients']} identical concurrent -> "
        f"{dedup['searches']} search(es) "
        f"({dedup['dedup_collapse']:.0f}x collapse, "
        f"{dedup['deduped']} deduped)"
    )
    print(
        f"throughput   {throughput['requests_per_sec']:8.1f} req/s over "
        f"{throughput['requests']} mixed requests "
        f"(p50 {throughput['p50_seconds'] * 1e3:.2f} ms, "
        f"p99 {throughput['p99_seconds'] * 1e3:.2f} ms, "
        f"{throughput['searches']} search(es))"
    )

    output = os.environ.get("REPRO_BENCH_OUTPUT", "bench_serve.json")
    payload = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "mode": "full" if FULL else "smoke",
        "latency": latency,
        "dedup": dedup,
        "throughput": throughput,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {output}")

    # Acceptance criteria.
    assert latency["warm_speedup"] >= WARM_MIN_SPEEDUP, (
        f"acceptance: warm-hit requests must be ≥{WARM_MIN_SPEEDUP}x faster "
        f"than cold compiles, got {latency['warm_speedup']:.1f}x"
    )
    assert dedup["searches"] == 1, (
        f"acceptance: {dedup['clients']} identical concurrent requests must "
        f"collapse to one search, ran {dedup['searches']}"
    )
    # The mixed workload's searches equal its cold requests: hot requests
    # never trigger a search.
    assert throughput["searches"] <= MIXED_REQUESTS // 4 + 1
