"""The summary step of tools/bench_pair.py, on canned run outputs.  Imports
the script and starts no process."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


@pytest.fixture
def bench_pair(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pair", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_process(*args, **kwargs):
        raise AssertionError("the summary step starts no process")

    monkeypatch.setattr(module.subprocess, "run", no_process)
    return module


def summary(wall_s, rss_mb, correct=True, failed=0):
    """The last line run.py prints, cut to two metrics."""
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def runs_of(workload, parent, change):
    """Runs of seeds 1.. from per-seed (wall_s, rss_mb) pairs of each side,
    the change first on odd seeds as the script alternates them."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        sides = [("change", c), ("parent", p)] if seed % 2 else [("parent", p), ("change", c)]
        for side, values in sides:
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "summary": summary(*values)})
    return runs


def test_summary_gives_medians_quartiles_and_pairs_won(bench_pair):
    parent = [(0.20, 18.0), (0.22, 18.0), (0.18, 18.5), (0.21, 17.0), (0.19, 18.0)]
    change = [(0.15, 18.0), (0.16, 18.1), (0.19, 18.2), (0.14, 17.5), (0.15, 18.0)]
    runs = runs_of("census", parent, change)
    runs += runs_of("requests", [(0.3, 20.0)] * 3, [(0.3, 20.0), (0.29, 19.0), (0.31, 21.0)])
    result = bench_pair.summarize(runs, {"wall_s": "lower", "peak_rss_mb": "lower"})
    assert list(result) == ["census", "requests"]
    wall = result["census"]["metrics"]["wall_s"]
    assert wall["parent_median"] == 0.20 and wall["change_median"] == 0.15
    assert wall["pairs_won"] == 4 and wall["pairs"] == 5
    assert wall["parent_quartiles"] == pytest.approx([0.19, 0.21])
    assert wall["change_pct"] == pytest.approx(-25.0)
    assert wall["unit"] == "s" and wall["better"] == "lower"
    # ties count for neither side
    rss = result["census"]["metrics"]["peak_rss_mb"]
    assert rss["pairs_won"] == 1 and rss["change_median"] == 18.0
    requests = result["requests"]["metrics"]["wall_s"]
    assert (requests["pairs_won"], requests["pairs"]) == (1, 3)
    assert result["census"]["parent"] == {"correct": True, "attempted": 500, "failed": 0}


def test_summary_reads_the_direction_and_keeps_wrong_outputs(bench_pair):
    parent = [(1.0, 10.0), (1.0, 10.0)]
    change = [(2.0, 9.0), (0.5, 11.0)]
    runs = runs_of("census", parent, change)
    runs[-1]["summary"].update(correct=False, failed=3)
    result = bench_pair.summarize(runs, {"wall_s": "higher"})
    assert result["census"]["metrics"]["wall_s"]["pairs_won"] == 1
    assert result["census"]["metrics"]["wall_s"]["better"] == "higher"
    # a metric BENCHMARK.json does not name counts as lower-is-better
    assert result["census"]["metrics"]["peak_rss_mb"]["pairs_won"] == 1
    last_side = runs[-1]["side"]
    assert result["census"][last_side] == {"correct": False, "attempted": 200, "failed": 3}
