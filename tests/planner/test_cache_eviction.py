"""Tests for the two-tier cache's bookkeeping: hit rate, on-disk size
accounting, LRU eviction, and disk entries shared between instances."""

from __future__ import annotations

import os
import time

from repro.caching import TwoTierCache
from repro.partition.plan import PartitionPlan, StepAssignment
from repro.planner import PlanCache, Planner, PlannerConfig


def _plan(tag: int) -> PartitionPlan:
    """A plan whose serialised size is a few hundred bytes."""
    plan = PartitionPlan(num_workers=2, algorithm=f"test-{tag}")
    plan.steps.append(
        StepAssignment(
            parts=2,
            tensor_dims={f"tensor-{tag}-{i}": 0 for i in range(8)},
            op_strategies={f"op-{tag}-{i}": "dim0" for i in range(8)},
            comm_bytes=float(tag),
            weighted_bytes=float(tag),
        )
    )
    return plan


def _touch_older(path, seconds):
    """Backdate a cache file's mtime (the LRU recency signal)."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestTwoTierCache:
    def test_hit_rate_reporting(self):
        cache = TwoTierCache(capacity=4)
        assert cache.hit_rate() == 0.0
        cache.put_entry("a", {"x": 1})
        assert cache.get_entry("a") == {"x": 1}
        assert cache.get_entry("b") is None
        assert cache.hit_rate() == 0.5
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5

    def test_fresh_reader_hits_every_spilled_entry(self, tmp_path):
        """A writer's memory tier holds 2 of its 6 entries; all 6 reach the
        disk, so a fresh instance on the same directory hits every one."""
        writer = TwoTierCache(capacity=2, cache_dir=str(tmp_path))
        for i in range(6):
            writer.put_entry(f"k{i}", {"i": i})
        assert len(writer) == 2
        reader = TwoTierCache(capacity=2, cache_dir=str(tmp_path))
        assert [reader.get_entry(f"k{i}") for i in range(6)] == [
            {"i": i} for i in range(6)
        ]
        assert reader.info()["hits"] == 6 and reader.info()["misses"] == 0


class TestDiskBudget:
    def test_size_accounting(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        assert cache.disk_bytes() == 0
        cache.put("a", _plan(1))
        first = cache.disk_bytes()
        assert first > 0
        cache.put("b", _plan(2))
        assert cache.disk_bytes() > first
        info = cache.info()
        assert info["disk_entries"] == 2
        assert info["disk_bytes"] == cache.disk_bytes()

    def test_unbounded_by_default(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        for i in range(20):
            cache.put(f"k{i}", _plan(i))
        assert cache.info()["disk_entries"] == 20
        assert cache.disk_evictions == 0

    def test_lru_eviction_under_budget(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        cache.put("old", _plan(1))
        entry_bytes = cache.disk_bytes()

        budget = int(entry_bytes * 2.5)  # room for two entries, not three
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path), max_bytes=budget)
        _touch_older(tmp_path / "old.json", 60)
        cache.put("mid", _plan(2))
        _touch_older(tmp_path / "mid.json", 30)
        cache.put("new", _plan(3))

        assert cache.disk_bytes() <= budget
        assert cache.get("old") is None, "least-recently-used entry evicted"
        assert cache.get("new") is not None
        assert cache.disk_evictions >= 1

    def test_get_refreshes_recency(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        cache.put("a", _plan(1))
        entry_bytes = cache.disk_bytes()

        budget = int(entry_bytes * 2.5)
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path), max_bytes=budget)
        cache.put("b", _plan(2))
        _touch_older(tmp_path / "a.json", 60)
        _touch_older(tmp_path / "b.json", 30)
        assert cache.get("a") is not None  # refreshes a's mtime to now
        cache.put("c", _plan(3))

        assert cache.get("a") is not None, "recently-hit entry must survive"
        assert cache.get("b") is None, "stale entry evicted instead"

    def test_just_written_entry_survives_tiny_budget(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path), max_bytes=1)
        cache.put("only", _plan(1))
        # A hit must still be possible straight after a put, even when the
        # entry alone exceeds the budget.
        assert cache.get("only") is not None

    def test_planner_config_plumbs_budget(self, tmp_path, mlp_bundle):
        planner = Planner(
            PlannerConfig(
                cache_dir=str(tmp_path), cache_capacity=0, cache_max_bytes=10,
            )
        )
        assert planner.cache.max_bytes == 10
        planner.plan(mlp_bundle.graph, 2)
        # The planner's own plan survives (protected write), budget holds
        # against everything else.
        assert planner.cache.info()["disk_entries"] == 1

    def test_eviction_counter_resets_on_clear(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path), max_bytes=1)
        cache.put("a", _plan(1))
        _touch_older(tmp_path / "a.json", 60)
        cache.put("b", _plan(2))
        assert cache.disk_evictions >= 1
        cache.clear()
        assert cache.disk_evictions == 0
        assert cache.info()["disk_entries"] == 0
