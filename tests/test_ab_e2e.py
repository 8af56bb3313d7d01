"""The end-to-end A/B tool's pairing and summary logic, on synthetic
records (no checkout and no benchmark run)."""

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import ab_e2e  # noqa: E402

BETTER = {"compile_cold_s": "lower", "sim_throughput": "higher"}


def _side(cold, sim, failed=0):
    return {
        "compile_cold_s": cold, "sim_throughput": sim,
        "correct": not failed, "attempted": 4, "failed": failed,
    }


def _sample(seed, base_cold, head_cold, base_sim=30.0, head_sim=30.0):
    return {
        "seed": seed,
        "order": ["base", "head"],
        "base": _side(base_cold, base_sim),
        "head": _side(head_cold, head_sim),
    }


def test_pairs_alternate_which_side_runs_first():
    plan = ab_e2e.pair_plan(4, 101)
    assert [seed for seed, _ in plan] == [101, 102, 103, 104]
    assert [order for _, order in plan] == [
        ("base", "head"), ("head", "base"), ("base", "head"), ("head", "base"),
    ]


def test_summary_counts_wins_and_pairs_the_ratios():
    base = [1.70, 1.64, 1.80, 1.66, 1.72]
    head = [1.40, 1.42, 1.85, 1.38, 1.36]
    samples = [_sample(i, b, h) for i, (b, h) in enumerate(zip(base, head))]
    cold = ab_e2e.summarize(samples, BETTER)["metrics"]["compile_cold_s"]
    assert cold["pairs"] == 5
    assert cold["wins"] == 4  # the third pair is a loss
    ratios = [h / b for b, h in zip(base, head)]
    r1, r2, r3 = statistics.quantiles(ratios, n=4)
    assert (cold["paired_ratio_median"], cold["paired_ratio_iqr"]) == (r2, r3 - r1)
    q1, median, q3 = statistics.quantiles(base, n=4)
    assert cold["base"] == {"median": median, "iqr": q3 - q1}
    assert cold["head"]["median"] == statistics.median(head)
    assert cold["median_shift_exceeds_base_iqr"]


def test_a_higher_is_better_metric_wins_upwards_and_ties_do_not_win():
    samples = [_sample(0, 1.0, 1.0, 30.0, 31.0), _sample(1, 1.0, 1.0, 30.0, 30.0)]
    metrics = ab_e2e.summarize(samples, BETTER)["metrics"]
    assert metrics["sim_throughput"]["wins"] == 1
    assert metrics["compile_cold_s"]["wins"] == 0
    assert not metrics["compile_cold_s"]["median_shift_exceeds_base_iqr"]


def test_any_moved_simulated_metric_is_flagged():
    still = [_sample(0, 1.7, 1.4), _sample(1, 1.6, 1.5)]
    assert ab_e2e.summarize(still, BETTER)["moved"] == []
    moved = still + [_sample(2, 1.7, 1.4, 30.0, 30.000001)]
    assert ab_e2e.summarize(moved, BETTER)["moved"] == ["sim_throughput"]


def test_a_pair_with_a_failed_config_is_flagged():
    """``run.py`` exits 0 when a config fails, so a pair is clean only when
    both sides are correct and the head failed no more than the base."""
    clean = [_sample(0, 1.7, 1.4), _sample(1, 1.6, 1.5)]
    assert ab_e2e.summarize(clean, BETTER)["broken"] == []
    head_broke = _sample(2, 1.7, 1.4)
    head_broke["head"] = _side(1.4, 30.0, failed=1)
    both_broke = _sample(3, 1.7, 1.4)
    both_broke["base"] = _side(1.7, 30.0, failed=2)
    both_broke["head"] = _side(1.4, 30.0, failed=1)
    summary = ab_e2e.summarize(clean + [head_broke, both_broke], BETTER)
    assert summary["broken"] == [2, 3]
    # The failures leave the timing statistics alone.
    assert summary["metrics"]["compile_cold_s"]["pairs"] == 4


def test_a_result_replaces_its_label_and_keeps_the_others(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    ab_e2e.record_result(out, "null", {"pairs": 4})
    ab_e2e.record_result(out, "change", {"pairs": 10})
    ab_e2e.record_result(out, "null", {"pairs": 6})
    assert json.loads(out.read_text()) == {
        "experiments": {"change": {"pairs": 10}, "null": {"pairs": 6}}
    }


def test_directions_come_from_the_benchmark_declaration():
    better = ab_e2e.declared_directions()
    assert better["compile_cold_s"] == "lower"
    assert better["sim_throughput"] == "higher"
    assert set(ab_e2e.SIMULATED) <= set(better)
