"""tools/bench_pair.py: the summary step, on canned run outputs, imports
the script and starts no process; a signal sent to the script in a
stub repository ends its run and removes its copies."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
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


STUB_RUN = """\
import os, subprocess, sys, time
worker = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
with open({pids!r}, "w") as out:
    out.write(f"{{os.getpid()}} {{worker.pid}}")
time.sleep(120)
"""


def alive(pid):
    """Whether a process runs: not gone and no zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    status = Path(f"/proc/{pid}/stat")
    try:
        return status.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def wait_until(condition, seconds=30):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_a_signal_ends_the_run_and_its_worker_and_removes_the_copies(tmp_path, signum):
    # a repository of its own whose perfbench/run.py starts a worker and
    # sleeps; the script is stopped while that run is going
    repo, scratch, pids = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pids"
    (repo / "tools").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    scratch.mkdir()
    shutil.copy(PATH, repo / "tools" / "bench_pair.py")
    (repo / "perfbench" / "run.py").write_text(STUB_RUN.format(pids=str(pids)))
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "census"}], "end_to_end": [{"name": "wall_s", "better": "lower"}]}
    ))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    script = subprocess.Popen(
        [sys.executable, "tools/bench_pair.py", "--seeds", "1", "--out", str(tmp_path / "out.json")],
        cwd=repo, env={**os.environ, "TMPDIR": str(scratch)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    run_pid = worker_pid = None
    try:
        assert wait_until(lambda: pids.exists() and pids.read_text())
        run_pid, worker_pid = map(int, pids.read_text().split())
        assert list(scratch.glob("bench_pair-*"))
        script.send_signal(signum)
        _, err = script.communicate(timeout=30)
        assert script.returncode == 128 + signum
        assert signal.Signals(signum).name in err
        assert wait_until(lambda: not alive(run_pid) and not alive(worker_pid))
        assert list(scratch.iterdir()) == []
    finally:
        if script.poll() is None:
            script.kill()
            script.wait()
        for pid in (run_pid, worker_pid):
            if pid is not None and alive(pid):
                os.kill(pid, signal.SIGKILL)
