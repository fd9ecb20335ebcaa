"""The summary step of scripts/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(solve_rel, setup=1.0, rss=100.0, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "solve_rel": {"value": solve_rel, "unit": "ref"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def pairs_of(parent, change, **change_kw):
    return [{"seed": s, "parent": result(p), "change": result(c, **change_kw)}
            for s, (p, c) in enumerate(zip(parent, change))]


def test_wins_gap_and_quartiles():
    parent = [30, 31, 29, 32, 30, 28, 31, 30, 33, 29]
    change = [19, 20, 18, 21, 19, 31, 20, 19, 22, 18]  # one lost pair
    summary = bench_pairs.summarize(pairs_of(parent, change), END_TO_END)
    assert summary["pairs"] == 10
    assert set(summary["metrics"]) == {"setup_s", "solve_rel", "peak_rss_mib"}
    solve = summary["metrics"]["solve_rel"]
    assert (solve["wins"], solve["bound"], solve["better"]) == (9, 0.25, "lower")
    side = solve["sides"]["parent"]
    assert side["median"] == 30.0
    assert (side["q1"], side["q3"]) == (29.25, 31.0)
    assert side["iqr"] == pytest.approx(1.75)
    assert solve["median_gap"] == 30.0 - 19.5
    assert solve["relative_change"] == pytest.approx(19.5 / 30 - 1)
    assert solve["verdict"] == "gain"
    # equal runs on both sides: no pair won, no spread, inside the bound
    setup = summary["metrics"]["setup_s"]
    assert (setup["wins"], setup["median_gap"], setup["widest_spread"]) == (0, 0, 0)
    assert setup["verdict"] == "within bound"
    assert summary["operations"]["change"] == {
        "attempted": 100, "failed": 0, "incorrect_runs": 0}


def test_small_gap_within_the_parent_spread_is_not_a_claim():
    parent = [30, 36, 24, 33, 27]
    change = [29, 35, 23, 32, 26]
    solve = bench_pairs.summarize(pairs_of(parent, change), END_TO_END)["metrics"]["solve_rel"]
    assert solve["wins"] == 5
    assert solve["median_gap"] < solve["parent_iqr"]
    assert solve["verdict"] == "within bound"


def test_worse_beyond_the_bound():
    # +6% peak memory against a bound of 5%; solve_rel 30 -> 36 is +20%,
    # inside its 25%
    pairs = [{"seed": s, "parent": result(30, rss=100.0), "change": result(36, rss=106.0)}
             for s in range(4)]
    metrics = bench_pairs.summarize(pairs, END_TO_END)["metrics"]
    assert metrics["peak_rss_mib"]["verdict"] == "worse beyond bound"
    assert metrics["peak_rss_mib"]["relative_change"] == pytest.approx(0.06)
    assert metrics["solve_rel"]["verdict"] == "within bound"


def test_spread_wider_than_the_bound_is_unresolved():
    # setup_s spreads 0.5 of its median on each side; the sides overlap
    parent = [0.5, 1.0, 1.5, 1.0, 0.6, 1.4]
    change = [1.4, 0.6, 1.0, 1.5, 0.5, 1.0]
    pairs = [{"seed": s, "parent": result(30, setup=a), "change": result(30, setup=b)}
             for s, (a, b) in enumerate(zip(parent, change))]
    setup = bench_pairs.summarize(pairs, END_TO_END)["metrics"]["setup_s"]
    assert setup["widest_spread"] > setup["bound"]
    assert setup["verdict"] == "unresolved"
    # every change run below every parent run settles it despite the spread,
    # though the gap is too small for a gain
    pairs = [{"seed": s, "parent": result(30, setup=a), "change": result(30, setup=9)}
             for s, a in enumerate([10, 11, 20, 21])]
    setup = bench_pairs.summarize(pairs, END_TO_END)["metrics"]["setup_s"]
    assert setup["widest_spread"] > setup["bound"]
    assert setup["median_gap"] < setup["parent_iqr"]
    assert setup["verdict"] == "within bound"


def test_failed_operations_are_counted():
    summary = bench_pairs.summarize(pairs_of([1, 2, 3], [2, 3, 1], failed=1), END_TO_END)
    assert summary["operations"]["parent"]["failed"] == 0
    assert summary["operations"]["change"] == {
        "attempted": 30, "failed": 3, "incorrect_runs": 0}


def test_single_pair():
    solve = bench_pairs.summarize(pairs_of([2.0], [1.0]), END_TO_END)["metrics"]["solve_rel"]
    assert solve["sides"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}
    assert solve["wins"] == 1 and solve["verdict"] == "gain"
