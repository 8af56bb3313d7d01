"""Tests for the plan cache's bookkeeping: hit rate, one file per stored
plan, disk entries shared between instances, and the entry-file layout a
store must keep reading."""

from __future__ import annotations

import json

from repro.caching import is_content_key
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


def _entry_files(directory) -> list:
    """The names of the store's files (``<content key>.json``) in
    ``directory``, sorted."""
    return sorted(p.name for p in directory.glob("*.json")
                  if is_content_key(p.stem))


class TestDiskStore:
    def test_size_accounting(self, tmp_path):
        """Every put writes one non-empty entry file."""
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        assert _entry_files(tmp_path) == []
        cache.put(_key(1), _plan(1))
        cache.put(_key(2), _plan(2))
        assert _entry_files(tmp_path) == [f"{_key(i)}.json" for i in (1, 2)]
        assert all((tmp_path / name).stat().st_size > 0
                   for name in _entry_files(tmp_path))

    def test_unbounded_by_default(self, tmp_path):
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        for i in range(20):
            cache.put(_key(i), _plan(i))
        assert len(_entry_files(tmp_path)) == 20
        assert all(cache.get(_key(i)) is not None for i in range(20))

    def test_clear_resets_counters_and_empties_the_store(self, tmp_path):
        cache = PlanCache(capacity=4, cache_dir=str(tmp_path))
        cache.put(_key(1), _plan(1))
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(2)) is None
        cache.clear()
        assert cache.info() == {
            "hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0,
        }
        assert _entry_files(tmp_path) == []
        assert cache.get(_key(1)) is None

    def test_files_not_named_by_a_content_key_are_not_the_stores(self, tmp_path):
        """A model saved next to the plans is not cleared."""
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"key": _key(9), "plan": plan_to_dict(_plan(9))}))
        (tmp_path / "notes.txt").write_text("kept")
        cache = PlanCache(capacity=0, cache_dir=str(tmp_path))
        cache.put(_key(1), _plan(1))
        assert _entry_files(tmp_path) == [f"{_key(1)}.json"]

        cache.clear()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.json", "notes.txt"
        ]


class TestStoreLayout:
    """The on-disk layout stays readable: a hand-written file hits."""

    def test_hand_written_entry_file_hits(self, tmp_path):
        plan = _plan(3)
        (tmp_path / f"{_key(3)}.json").write_text(
            json.dumps({"key": _key(3), "plan": plan_to_dict(plan)})
        )
        cache = PlanCache(cache_dir=str(tmp_path))
        hit = cache.get(_key(3))
        assert hit is not None and plan_to_dict(hit) == plan_to_dict(plan)
        assert (cache.hits, cache.misses) == (1, 0)
