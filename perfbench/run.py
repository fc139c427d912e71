"""forestinv benchmark: seeded job streams with checked outputs.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs rounds of one workload for --seconds seconds.  A round is the
whole seeded job list, run in a fresh process so that every round starts
from cold caches (see worker.py); extra set-up-only processes give
set-up time more samples.  With --trace 1, traced rounds alternate with
untraced ones and the per-layer metrics are reported instead.  Every
output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`, and the full figures go
to perfbench/results/.  The exit code is 1 if any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402

SETUP_PROBES = 12  # set-up-only processes per run, besides one per round
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 90  # a round takes about 10 s; keeps a stuck run under 180 s

# per-layer metrics measured by the worker rather than by a tracer span
TRACE_EXTRAS = {"render.output_bytes": "bytes", "trace.overhead_s": "s"}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def child(workload, seed, *flags):
    """Run one worker process and return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"worker timed out after {CHILD_TIMEOUT_S} s") from err
    if done.returncode != 0:
        raise ChildFailed(done.stderr.strip() or f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _round_s(result):
    return sum(ms for ms in result["job_ms"] if ms is not None) / 1000


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload, seed, seconds, trace):
    child(workload, seed, "--setup-only")  # compiles bytecode; not measured
    probes = 0 if trace else SETUP_PROBES
    setups = [child(workload, seed, "--setup-only")["setup_s"] for _ in range(probes)]
    plain, traced = [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(plain) < MIN_ROUNDS:
        plain.append(child(workload, seed))
        if trace:
            traced.append(child(workload, seed, "--trace"))
    rounds = plain + traced
    summary = {
        "correct": not any(r["wrong_count"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(_round_s(r) for r in traced) - statistics.median(_round_s(r) for r in plain)
        )
        units = {name: spec[0] for name, spec in tracer.METRICS.items()} | TRACE_EXTRAS
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        absent = sorted({name for r in traced for name in r["absent"]})
    else:
        # every round runs the same jobs in the same order: a job's time is
        # its median over the rounds; the list's time is the sum of these
        job_ms = [
            statistics.median(times)
            for times in zip(*(r["job_ms"] for r in plain))
            if None not in times
        ]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "wall_s": sum(job_ms) / 1000,
            "job_p50_ms": statistics.median(job_ms),
            "job_p90_ms": percentile(job_ms, 90),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        absent = []
    summary["metrics"] = metrics
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "reference_kernel_s": clock.REFERENCE_KERNEL_S, "setup_samples": setups,
        "absent_layers": absent, "rounds": rounds, "summary": summary,
    }
    return summary, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")
    for r in detail["rounds"]:
        for line in r["failures"] + r["wrong"]:
            print(line, file=sys.stderr)
    if detail["absent_layers"]:
        print("absent layers: " + ", ".join(detail["absent_layers"]), file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
