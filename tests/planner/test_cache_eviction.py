"""Tests for the plan cache's bookkeeping: hit rate, on-disk size
accounting, disk entries shared between instances, and the two on-disk
layouts (entry files and export bundles) a store must keep reading."""

from __future__ import annotations

import json

from repro.partition.plan import PartitionPlan, StepAssignment, plan_to_dict
from repro.planner import PlanCache


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


def _key(tag: int) -> str:
    """A content key (64 hex digits), the only name a store file may have."""
    return f"{tag:064x}"


class TestTwoTierCache:
    def test_hit_rate_reporting(self):
        cache = PlanCache(capacity=4)
        assert cache.hit_rate() == 0.0
        plan = _plan(1)
        cache.put("a", plan)
        assert cache.get("a") is plan
        assert cache.get("b") is None
        assert cache.hit_rate() == 0.5
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5

    def test_fresh_reader_hits_every_spilled_entry(self, tmp_path):
        """A writer's memory tier holds 2 of its 6 entries; all 6 reach the
        disk, so a fresh instance on the same directory hits every one."""
        writer = PlanCache(capacity=2, cache_dir=str(tmp_path))
        for i in range(6):
            writer.put(_key(i), _plan(i))
        assert len(writer) == 2
        reader = PlanCache(capacity=2, cache_dir=str(tmp_path))
        assert [reader.get(_key(i)).algorithm for i in range(6)] == [
            f"test-{i}" for i in range(6)
        ]
        assert reader.info()["hits"] == 6 and reader.info()["misses"] == 0


class TestDiskStore:
    def test_size_accounting(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        assert cache.disk_bytes() == 0
        cache.put(_key(1), _plan(1))
        first = cache.disk_bytes()
        assert first > 0
        cache.put(_key(2), _plan(2))
        assert cache.disk_bytes() > first
        info = cache.info()
        assert info["disk_entries"] == 2
        assert info["disk_bytes"] == cache.disk_bytes()

    def test_unbounded_by_default(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        for i in range(20):
            cache.put(_key(i), _plan(i))
        assert cache.info()["disk_entries"] == 20
        assert all(cache.get(_key(i)) is not None for i in range(20))

    def test_clear_resets_counters_and_empties_the_store(self, tmp_path):
        cache = PlanCache(capacity=4, cache_dir=str(tmp_path))
        cache.put(_key(1), _plan(1))
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(2)) is None
        cache.clear()
        assert cache.info() == {
            "hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0,
            "disk_bytes": 0, "disk_entries": 0,
        }
        assert cache.get(_key(1)) is None

    def test_files_not_named_by_a_content_key_are_not_the_stores(self, tmp_path):
        """A model saved next to the plans is neither counted, exported nor
        cleared."""
        store = tmp_path / "store"
        store.mkdir()
        model = store / "model.json"
        model.write_text(json.dumps({"key": _key(9), "plan": plan_to_dict(_plan(9))}))
        (store / "notes.txt").write_text("kept")
        cache = PlanCache(capacity=0, cache_dir=str(store))
        cache.put(_key(1), _plan(1))
        info = cache.info()
        assert info["disk_entries"] == 1
        assert info["disk_bytes"] == (store / f"{_key(1)}.json").stat().st_size

        bundle = tmp_path / "bundle.json"
        assert cache.export_to(str(bundle)) == 1
        assert list(json.loads(bundle.read_text())["entries"]) == [_key(1)]

        cache.clear()
        assert sorted(p.name for p in store.iterdir()) == ["model.json", "notes.txt"]


class TestStoreLayout:
    """The on-disk layouts stay readable: a hand-written file hits."""

    def test_hand_written_entry_file_hits(self, tmp_path):
        plan = _plan(3)
        (tmp_path / f"{_key(3)}.json").write_text(
            json.dumps({"key": _key(3), "plan": plan_to_dict(plan)})
        )
        cache = PlanCache(cache_dir=str(tmp_path))
        hit = cache.get(_key(3))
        assert hit is not None and plan_to_dict(hit) == plan_to_dict(plan)
        assert (cache.hits, cache.misses) == (1, 0)

    def test_hand_written_bundle_imports_and_hits(self, tmp_path):
        plans = {_key(i): _plan(i) for i in (4, 5)}
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({
            "format": "tofu-plan-cache",
            "version": 1,
            "entries": {key: plan_to_dict(p) for key, p in plans.items()},
        }))
        cache = PlanCache(cache_dir=str(tmp_path / "store"))
        assert cache.import_from(str(bundle)) == {"imported": 2, "skipped": 0}
        fresh = PlanCache(cache_dir=str(tmp_path / "store"))
        for key, plan in plans.items():
            assert plan_to_dict(fresh.get(key)) == plan_to_dict(plan)
        assert (fresh.hits, fresh.misses) == (2, 0)
        stored = json.loads((tmp_path / "store" / f"{_key(4)}.json").read_text())
        assert stored == {"key": _key(4), "plan": plan_to_dict(plans[_key(4)])}
