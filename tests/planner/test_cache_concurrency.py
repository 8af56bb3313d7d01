"""TwoTierCache under threads: consistent counters, no corruption.

The compile service shares one plan cache and one program cache across all
worker threads, so :class:`repro.caching.TwoTierCache` must tolerate
concurrent gets/puts — including disk-tier eviction accounting — without
losing counter updates or corrupting the LRU.
"""

from __future__ import annotations

import threading

from repro.caching import TwoTierCache


def hammer(threads, worker):
    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


class TestConcurrentMemoryTier:
    def test_counters_stay_consistent_under_contention(self):
        cache = TwoTierCache(capacity=64)
        rounds, threads = 200, 8
        errors = []

        def worker(tid):
            try:
                for i in range(rounds):
                    key = f"k{(tid * rounds + i) % 32}"
                    if cache.get_entry(key) is None:
                        cache.put_entry(key, {"tid": tid, "i": i})
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        hammer(threads, worker)
        assert not errors
        info = cache.info()
        assert info["hits"] + info["misses"] == cache.hits + cache.misses
        assert cache.hits + cache.misses == threads * rounds
        assert 0.0 <= info["hit_rate"] <= 1.0
        assert len(cache) <= 32

    def test_capacity_respected_under_concurrent_puts(self):
        cache = TwoTierCache(capacity=8)

        def worker(tid):
            for i in range(100):
                cache.put_entry(f"t{tid}-{i}", {"value": i})

        hammer(8, worker)
        assert len(cache) <= 8

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


class TestConcurrentDiskTier:
    def test_eviction_accounting_under_threads(self, tmp_path):
        # A tight byte budget forces evictions while threads write.
        cache = TwoTierCache(
            capacity=4, cache_dir=str(tmp_path), max_bytes=2048
        )
        errors = []

        def worker(tid):
            try:
                for i in range(50):
                    key = f"t{tid}-{i % 10}"
                    cache.put_entry(key, {"tid": tid, "payload": "x" * 64})
                    cache.get_entry(key)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        hammer(6, worker)
        assert not errors
        info = cache.info()
        assert info["disk_bytes"] <= 2048
        assert info["disk_entries"] >= 0
        assert info["hits"] + info["misses"] > 0

    def test_concurrent_readers_share_disk_entries(self, tmp_path):
        writer = TwoTierCache(capacity=2, cache_dir=str(tmp_path))
        for i in range(6):
            writer.put_entry(f"k{i}", {"i": i})
        reader = TwoTierCache(capacity=2, cache_dir=str(tmp_path))
        seen = []
        lock = threading.Lock()

        def worker(tid):
            value = reader.get_entry(f"k{tid % 6}")
            with lock:
                seen.append(value)

        hammer(6, worker)
        assert all(value is not None for value in seen)
