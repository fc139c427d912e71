"""Paired benchmark runs of a parent revision and a change.

    python tools/bench_pair.py --parent HEAD --seeds 10 --seconds 6 --out BENCH_tag.json

Exports two copies with `git archive`: the parent revision, and the
change, which is the working tree (its tracked and staged files, through
`git stash create`) unless --change names a revision.  For each seed
1..k and each workload of BENCHMARK.json it runs `perfbench/run.py` once
in each copy, alternating which side goes first from one pair to the
next.  Each run has PYTHONDONTWRITEBYTECODE=1 in its environment, so it
writes no bytecode and compiles the package from source in every
process, as a fresh checkout under that setting does: no run reads what
an earlier one wrote, and `setup_s` counts compile time on both sides.

The JSON written to --out holds, per workload and end-to-end metric, the
parent's and the change's medians and quartiles and the pairs the change
won (ties count for neither side), plus every run's summary, the seeds,
the bytecode state, the interpreter and both commits.  Standard library
only; the copies go to a temporary directory that is removed at the end.

SIGTERM or SIGINT ends the script cleanly: the running `perfbench/run.py`
and its worker, which run in a session of their own, are killed as one
process group, the copies are removed, and the exit status is 128 plus
the signal number.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(commit: str, where: Path) -> None:
    """The tracked files of a commit, unpacked into a fresh directory."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    where.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter, where this Python has it, refuses odd members
        archive.extractall(where, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in a copy: its last stdout line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as run:
        try:
            stdout, stderr = run.communicate()
        except BaseException:
            # the run leads its own process group, which holds its worker too
            try:
                os.killpg(run.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            raise
    if run.returncode not in (0, 1):  # 1 still prints a summary: a wrong output
        raise SystemExit(f"{copy.name} {workload} seed {seed}: {stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def interrupted(signum, frame):
    """Unwind on SIGTERM or SIGINT, so the running copy is killed and the
    temporary directory removed on the way out."""
    print(f"{signal.Signals(signum).name}: ending the run and removing the copies",
          file=sys.stderr)
    raise SystemExit(128 + signum)


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs, better) -> dict:
    """Per workload and metric: each side's median and quartiles, and the
    pairs (runs of one seed) the change won.  `runs` holds dicts with
    `workload`, `seed`, `side` and the run's `summary`; `better` maps a
    metric to "lower" or "higher"."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_side = {side: {} for side in SIDES}
        for run in runs:
            if run["workload"] == workload:
                by_side[run["side"]][run["seed"]] = run["summary"]
        seeds = sorted(by_side["parent"].keys() & by_side["change"].keys())
        report = {
            side: {
                "correct": all(by_side[side][s]["correct"] for s in seeds),
                "attempted": sum(by_side[side][s]["attempted"] for s in seeds),
                "failed": sum(by_side[side][s]["failed"] for s in seeds),
            }
            for side in SIDES
        }
        metrics = {}
        for name, spec in by_side["parent"][seeds[0]]["metrics"].items():
            values = {
                side: [by_side[side][s]["metrics"][name]["value"] for s in seeds]
                for side in SIDES
            }
            sign = 1 if better.get(name, "lower") == "lower" else -1
            won = sum(
                sign * (change - parent) < 0
                for parent, change in zip(values["parent"], values["change"])
            )
            parent_median = statistics.median(values["parent"])
            change_median = statistics.median(values["change"])
            metrics[name] = {
                "unit": spec["unit"],
                "better": better.get(name, "lower"),
                "parent_median": parent_median,
                "change_median": change_median,
                "change_pct": 100 * (change_median - parent_median) / parent_median
                if parent_median else None,
                "parent_quartiles": quartiles(values["parent"]),
                "change_quartiles": quartiles(values["change"]),
                "pairs_won": won,
                "pairs": len(seeds),
            }
        report["metrics"] = metrics
        out[workload] = report
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--change", help="change revision (default: the working tree)")
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..k (default 10)")
    parser.add_argument("--seconds", type=float, default=6, help="run.py --seconds")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<tag>.json to write")
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, interrupted)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    commits = {"parent": git("rev-parse", args.parent)}
    working_tree = args.change is None
    commits["change"] = git("rev-parse", args.change) if args.change else (
        git("stash", "create") or git("rev-parse", "HEAD")
    )
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as scratch:
        copies = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], copies[side])
        pair = 0
        for seed in range(1, args.seeds + 1):
            for workload in workloads:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                pair += 1
                for side in order:
                    summary = run_once(copies[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "summary": summary})
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{summary['metrics']['wall_s']['value']:.4f}", file=sys.stderr)

    report = {
        "parent": {"rev": args.parent, "commit": commits["parent"]},
        "change": {"rev": args.change or "working tree", "commit": commits["change"],
                   "working_tree": working_tree},
        "seeds": list(range(1, args.seeds + 1)),
        "seconds": args.seconds,
        "bytecode": "none written; compiled from source in every process",
        "interpreter": {"implementation": platform.python_implementation(),
                        "version": platform.python_version()},
        "machine": {"system": platform.system(), "arch": platform.machine(),
                    "cpus": os.cpu_count()},
        "workloads": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in report["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload:11} {name:12} {m['parent_median']:.4f} -> {m['change_median']:.4f} "
                  f"{m['unit']:3} won {m['pairs_won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
