"""The end-to-end A/B tool's pairing and summary logic, on synthetic
records (no checkout and no benchmark run)."""

import contextlib
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import ab_e2e  # noqa: E402

BETTER = {"compile_cold_s": "lower", "sim_throughput": "higher"}
BOUNDS = {"compile_cold_s": 0.25, "sim_throughput": 1e-06}


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
    cold = ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]["compile_cold_s"]
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
    metrics = ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]
    assert metrics["sim_throughput"]["wins"] == 1
    assert metrics["compile_cold_s"]["wins"] == 0
    assert not metrics["compile_cold_s"]["median_shift_exceeds_base_iqr"]


def test_any_moved_simulated_metric_is_flagged():
    still = [_sample(0, 1.7, 1.4), _sample(1, 1.6, 1.5)]
    assert ab_e2e.summarize(still, BETTER, BOUNDS)["moved"] == []
    moved = still + [_sample(2, 1.7, 1.4, 30.0, 30.000001)]
    assert ab_e2e.summarize(moved, BETTER, BOUNDS)["moved"] == ["sim_throughput"]


def test_a_pair_with_a_failed_config_is_flagged():
    """``run.py`` exits 0 when a config fails, so a pair is clean only when
    both sides are correct and the head failed no more than the base."""
    clean = [_sample(0, 1.7, 1.4), _sample(1, 1.6, 1.5)]
    assert ab_e2e.summarize(clean, BETTER, BOUNDS)["broken"] == []
    head_broke = _sample(2, 1.7, 1.4)
    head_broke["head"] = _side(1.4, 30.0, failed=1)
    both_broke = _sample(3, 1.7, 1.4)
    both_broke["base"] = _side(1.7, 30.0, failed=2)
    both_broke["head"] = _side(1.4, 30.0, failed=1)
    summary = ab_e2e.summarize(clean + [head_broke, both_broke], BETTER, BOUNDS)
    assert summary["broken"] == [2, 3]
    # The failures leave the timing statistics alone.
    assert summary["metrics"]["compile_cold_s"]["pairs"] == 4


def test_only_pairs_where_both_sides_report_a_metric_are_paired():
    """A metric missing from one side of one pair and from the other side of
    another leaves equally long base and head lists: they must not be zipped
    into pairs of unrelated runs."""
    samples = [_sample(0, 1.0, 0.5), _sample(1, 2.0, 2.5), _sample(2, 4.0, 3.0)]
    del samples[1]["head"]["compile_cold_s"]
    del samples[2]["base"]["compile_cold_s"]
    cold = ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]["compile_cold_s"]
    assert cold["pairs"] == 1
    assert cold["wins"] == 1
    assert cold["paired_ratio_median"] == 0.5
    assert (cold["base"]["median"], cold["head"]["median"]) == (1.0, 0.5)


def test_a_gain_needs_nine_wins_in_ten_and_a_shift_past_the_base_iqr():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def cold(head):
        samples = [_sample(i, b, h) for i, (b, h) in enumerate(zip(base, head))]
        return ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]["compile_cold_s"]

    faster = [b - 0.2 for b in base]
    assert cold(faster)["wins"] == 10 and cold(faster)["gain"]
    # Nine wins in ten still count; eight do not.
    assert cold(faster[:9] + [1.5])["gain"]
    assert not cold(faster[:8] + [1.5, 1.5])["gain"]
    # Every pair won, but by less than the base's own spread.
    barely = [b - 0.001 for b in base]
    assert cold(barely)["wins"] == 10 and not cold(barely)["gain"]
    # A shift past the spread in the worse direction is no gain.
    assert not cold([b + 0.2 for b in base])["gain"]


def test_a_higher_is_better_metric_gains_upwards():
    samples = [_sample(i, 1.0, 1.0, 30.0 + i % 2, 32.0 + i % 2) for i in range(10)]
    sim = ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]["sim_throughput"]
    assert sim["gain"] and not sim["regressed"]


def test_regressed_when_the_head_median_is_worse_by_more_than_the_bound():
    def verdicts(head_cold, head_sim):
        samples = [_sample(i, 1.0, head_cold, 30.0, head_sim) for i in range(3)]
        metrics = ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]
        return tuple(metrics[name]["regressed"] for name in BETTER)

    assert verdicts(1.2, 30.0) == (False, False)
    assert verdicts(1.3, 30.0) == (True, False)
    assert verdicts(0.5, 30.0 * (1 - 2e-6)) == (False, True)
    assert verdicts(0.5, 31.0) == (False, False)


def test_unresolved_when_the_base_spreads_wider_than_the_bound():
    """A base interquartile range wider than the bound, relative to the base
    median, cannot tell a move within the bound from none, unless every head
    run beats every base run."""
    wide = [1.0, 1.6, 0.7, 1.5, 0.8, 1.4, 0.9, 1.3, 0.6, 1.2]  # IQR 0.65
    narrow = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def unresolved(base, head):
        samples = [_sample(i, b, h) for i, (b, h) in enumerate(zip(base, head))]
        metrics = ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]
        return metrics["compile_cold_s"]["unresolved"]

    assert unresolved(wide, wide)
    assert not unresolved(narrow, narrow)
    # Every head run below the fastest base run settles it.
    assert not unresolved(wide, [0.55] * 10)
    # One head run that does not beat every base run leaves it open.
    assert unresolved(wide, [0.55] * 9 + [0.65])
    # Higher-is-better metrics beat upwards.
    samples = [_sample(i, 1.0, 1.0, 30.0 + i, 50.0) for i in range(10)]
    sim = ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]["sim_throughput"]
    assert not sim["unresolved"]
    samples = [_sample(i, 1.0, 1.0, 30.0 + i, 35.0) for i in range(10)]
    assert ab_e2e.summarize(samples, BETTER, BOUNDS)["metrics"]["sim_throughput"][
        "unresolved"
    ]


def test_a_regressed_metric_fails_the_run(tmp_path, monkeypatch, capsys):
    """``main`` prints each verdict and exits 1 when a metric regressed, even
    with nothing moved or broken."""
    @contextlib.contextmanager
    def worktree(revision, directory):
        yield revision

    def run_once(checkout, workload, seed, seconds):
        return _side(1.0 if checkout == "base" else 1.5, 30.0)

    monkeypatch.setattr(ab_e2e, "resolve", lambda revision: revision)
    monkeypatch.setattr(ab_e2e, "worktree", worktree)
    monkeypatch.setattr(ab_e2e, "run_once", run_once)
    argv = ["base", "head", "--workload", "w", "--pairs", "2", "--label", "x"]
    assert ab_e2e.main(argv + ["--out", str(tmp_path / "out.json")]) == 1
    out = capsys.readouterr()
    assert "compile_cold_s" in out.out and "gain False regressed True" in out.out
    assert "metrics past their bound: {'w': ['compile_cold_s']}" in out.err
    recorded = json.loads((tmp_path / "out.json").read_text())
    cold = recorded["experiments"]["x"]["workloads"]["w"]["metrics"]["compile_cold_s"]
    assert cold["regressed"] and not cold["gain"]


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
