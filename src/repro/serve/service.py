"""The in-process compile service: a concurrent, deduplicating planner pool.

:class:`CompileService` is the long-lived heart of ``tofu-repro serve`` —
and a plain Python object, so tests and benchmarks drive it without a
socket.  It wraps one shared (thread-safe) :class:`repro.planner.Planner`
and one shared :class:`repro.runtime.cache.ProgramCache` behind a
``ThreadPoolExecutor`` of compile workers, and collapses identical
concurrent requests with **singleflight** deduplication: the first request
for a content address becomes the *leader* and runs the real compile;
every request with the same address that arrives while the leader is in
flight becomes a *follower* and simply awaits the leader's future.  N
identical concurrent requests therefore cost exactly one search — the
cold-compile amplification a fleet of trainers asking for the same model
would otherwise inflict.

Three tiers absorb repeated work, cheapest first:

1. **In-flight dedup** — same request while one is running: share the
   future (no cache lookup, no planner call).
2. **Plan/program caches** — same plan or lowered program seen before:
   the shared planner and program cache answer without searching or
   re-running lowering passes.
3. **Cold compile** — a real planner search plus lowering on the worker
   thread that took the request.

Every request runs under its own profiling executor (the perf sink is
thread-local), so responses carry isolated per-request stage timings even
under full concurrency.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional

from repro import compiler, perf
from repro.errors import ReproError
from repro.planner.core import Planner, PlannerConfig
from repro.runtime.cache import ProgramCache
from repro.runtime.core import Executor, ExecutorConfig
from repro.serve.protocol import CompileRequest, CompileResponse

__all__ = ["CompileService", "PendingCompile"]


@dataclass
class PendingCompile:
    """Handle on a submitted request.

    ``leader`` tells whether this submission started the compile or joined
    an identical in-flight one; :meth:`result` blocks for the response,
    marking follower copies ``deduped``.
    """

    key: str
    future: "Future[CompileResponse]"
    leader: bool
    request_id: Optional[str] = None

    def result(self, timeout: Optional[float] = None) -> CompileResponse:
        """Block until the compile finishes and return its response."""
        response = self.future.result(timeout)
        if self.leader:
            return response
        return response.as_dedup_follower(self.request_id)


class CompileService:
    """A pool of compile workers with singleflight request deduplication.

    Args:
        workers: Compile worker threads (concurrent requests in progress).
        planner: Shared planner; defaults to a fresh one owning its plan
            cache (optionally rooted at ``plan_cache_dir``).
        plan_cache_dir / program_cache_dir: Optional persistent stores, so
            a restarted server comes back warm.
        verify: Static-verification mode for every compile this service
            runs (``ExecutorConfig.verify``).  Defaults to ``"strict"`` —
            a served program is verified *before* it is cached or returned,
            and a failing one becomes a structured error response instead
            of poisoning the shared caches.  Program-cache hits skip the
            pass, so the warm tier is unaffected.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        planner: Optional[Planner] = None,
        plan_cache_dir: Optional[str] = None,
        program_cache_dir: Optional[str] = None,
        verify: str = "strict",
    ):
        from repro.analysis.verify import validate_verify_mode

        self.verify = validate_verify_mode(verify)
        self.planner = planner or Planner(PlannerConfig(cache_dir=plan_cache_dir))
        # One program cache shared by every request's executor — the whole
        # point of a long-lived service is that tier stays warm.  TwoTierCache
        # is thread-safe, so workers share it without ceremony.
        self.program_cache = ProgramCache(cache_dir=program_cache_dir)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="tofu-compile"
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._closed = False
        # Aggregate counters (under _lock): lifetime service statistics.
        self._requests = 0
        self._deduped = 0
        self._completed = 0
        self._errors = 0
        self._searches = 0
        self._plan_cache_hits = 0
        self._program_cache_hits = 0
        self._busy_seconds = 0.0

    # ------------------------------------------------------------- lifecycle
    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- submit
    def submit(self, request: CompileRequest) -> PendingCompile:
        """Enqueue ``request``; return a handle immediately.

        Requests are singleflighted by :meth:`CompileRequest.key`: if an
        identical request is already in flight, the returned handle shares
        its future (``leader=False``) and no new work is scheduled.  A
        request whose options defeat content addressing (non-JSON values)
        runs unshared.
        """
        try:
            key = request.key()
        except (TypeError, ReproError):
            # Unkeyable request (non-JSON options, unparseable strategy):
            # run it unshared — the compile itself will report the error.
            key = ""
        with self._lock:
            if self._closed:
                raise RuntimeError("CompileService is closed")
            self._requests += 1
            if key:
                existing = self._inflight.get(key)
                if existing is not None:
                    self._deduped += 1
                    return PendingCompile(
                        key=key,
                        future=existing,
                        leader=False,
                        request_id=request.request_id,
                    )
            future = self._pool.submit(self._compile, request, key)
            if key:
                self._inflight[key] = future
                future.add_done_callback(lambda _done, _key=key: self._retire(_key))
        return PendingCompile(
            key=key, future=future, leader=True, request_id=request.request_id
        )

    def compile(self, request: CompileRequest) -> CompileResponse:
        """Submit and block for the response (the synchronous entry point)."""
        return self.submit(request).result()

    def _retire(self, key: str) -> None:
        with self._lock:
            self._inflight.pop(key, None)

    @staticmethod
    def _build_tuner(request: CompileRequest):
        """The :class:`repro.tuner.Tuner` a request's ``tuner`` options ask
        for (``None`` when unset); the options are a
        :class:`repro.tuner.TunerBudget` payload.  A tuner on a non-auto
        strategy is handed through to ``compile`` unfiltered, so the caller
        gets its structured error back."""
        if request.tuner is None:
            return None
        from repro.tuner import Tuner, TunerBudget

        return Tuner(budget=TunerBudget.from_dict(request.tuner))

    # --------------------------------------------------------------- compile
    def _compile(self, request: CompileRequest, key: str) -> CompileResponse:
        start = time.perf_counter()
        executor = Executor(ExecutorConfig(profile=True, verify=self.verify))
        # Swap the fresh executor's private cache for the service-wide one;
        # profiling stays per-request, the warm tier stays shared.
        executor.program_cache = self.program_cache
        try:
            model = compiler.compile(
                request.graph,
                request.strategy,
                request.machine,
                num_workers=request.num_workers,
                planner=self.planner,
                executor=executor,
                plan_options=request.plan_options,
                backend_options=request.backend_options,
                simulate=request.simulate,
                tuner=self._build_tuner(request),
            )
            payload = model.to_dict()
            status, error = "ok", None
        except ReproError as exc:
            payload, status, error = None, "error", f"{type(exc).__name__}: {exc}"
        except TypeError as exc:
            payload, status, error = None, "error", f"TypeError: {exc}"
        elapsed = time.perf_counter() - start

        timer = executor.profile_timer
        assert timer is not None  # profile=True above
        searches = sum(timer.stages_matching("planner.search.").values())
        plan_hits = int(timer.counter("plan_cache.hit"))
        program_hits = int(timer.counter("program_cache.hit"))
        stats = {
            "searches": searches,
            "plan_cache_hits": plan_hits,
            "program_cache_hits": program_hits,
        }
        with self._lock:
            self._completed += 1
            self._busy_seconds += elapsed
            self._searches += searches
            self._plan_cache_hits += plan_hits
            self._program_cache_hits += program_hits
            if status != "ok":
                self._errors += 1
        return CompileResponse(
            status=status,
            model=payload,
            error=error,
            request_key=key,
            request_id=request.request_id,
            elapsed_seconds=elapsed,
            stats=stats,
            timings=timer.snapshot(),
        )

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        """Lifetime service statistics plus the shared caches' counters.

        ``searches`` counts planner searches actually executed — the number
        the dedup/warm tiers exist to keep far below ``requests``.
        """
        with self._lock:
            inflight = len(self._inflight)
            out: Dict[str, object] = {
                "requests": self._requests,
                "deduped": self._deduped,
                "completed": self._completed,
                "errors": self._errors,
                "in_flight": inflight,
                "searches": self._searches,
                "plan_cache_hits": self._plan_cache_hits,
                "program_cache_hits": self._program_cache_hits,
                "busy_seconds": self._busy_seconds,
            }
        out["plan_cache"] = self.planner.cache.info()
        out["program_cache"] = self.program_cache.info()
        return out
