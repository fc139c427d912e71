"""One round of a workload in a fresh process.

It imports the package from the checkout's `src` and builds the seeded
job list; the process's CPU time at that point is its set-up time.  Then
it runs every job in order with a calibration kernel before and after
each (see clock.py), checks each output outside the timed span, and
prints one JSON line with the round's figures.  With --setup-only it
stops at the first job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    """Import forestinv from the checkout's src and nowhere else."""
    if not (SRC / "forestinv" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import forestinv
    import forestinv.cli

    if Path(forestinv.__file__).resolve().parent != SRC / "forestinv":
        raise SystemExit(f"imported forestinv from {forestinv.__file__}, not {SRC}")
    return forestinv


def new_spec(fi, op, n):
    if op == "delta-inv":
        return fi.strict_order_spec()
    if op == "nabla-inv":
        return fi.weak_order_spec()
    if op == "lambda-bar":
        return fi.qsym_strict_spec(n)
    return fi.qsym_weak_spec(n)


class Runner:
    """Turns jobs into public API calls, renders their outputs and checks
    them.  Sequences built by one job are kept for the residual job that
    follows it."""

    def __init__(self, fi, checks):
        self.fi = fi
        self.checks = checks
        self.built = {}
        self.output_bytes = 0

    def call(self, job):
        """A zero-argument callable doing exactly the job's library call."""
        fi, kind, args = self.fi, job.kind, job.args
        if kind == "enumerate_trees":
            return lambda: fi.enumerate_trees(args[0])
        if kind == "cayley_check":
            return lambda: fi.cayley_check(args[0])
        if kind == "u_by_enumeration":
            return lambda: fi.u_by_enumeration(new_spec(fi, *args), args[1])
        if kind == "collision_report":
            return lambda: fi.collision_report(args[1], new_spec(fi, *args))
        if kind == "u_by_recurrence":
            return lambda: fi.u_by_recurrence(new_spec(fi, *args), args[1])
        if kind == "verify_functional_equation":
            sequence = self.built[("u_by_recurrence",) + args]
            return lambda: fi.verify_functional_equation(new_spec(fi, *args), args[1], sequence)
        if kind == "u_planar_by_recurrence":
            return lambda: fi.u_planar_by_recurrence(fi.free_word_family(args[0]), args[1])
        if kind == "planar_equation_residual":
            labels, n, label = args
            sequence = self.built[("u_planar_by_recurrence", labels, n)]
            return lambda: fi.planar_equation_residual(
                fi.free_word_family(labels), n, sequence, label
            )
        if kind == "cli":
            return lambda: self._cli(args)
        raise ValueError(f"unknown job kind {kind}")

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.fi.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, job, output):
        """None if the output is right, else the reason."""
        kind, args, checks = job.kind, job.args, self.checks
        render = self.fi.render_value
        if kind in ("u_by_recurrence", "u_planar_by_recurrence"):
            self.built[(kind,) + args] = output
        if kind == "enumerate_trees":
            return checks.check_tree_list(args[0], [t.key for t in output])
        if kind == "cayley_check":
            return checks.check_cayley_report(args[0], output.to_jsonable())
        if kind in ("u_by_enumeration", "u_by_recurrence"):
            return checks.check_u_terms(args[0], args[1], [render(t) for t in output.terms])
        if kind == "collision_report":
            return checks.check_collisions(args[0], args[1], [p.to_jsonable() for p in output])
        if kind == "verify_functional_equation":
            return checks.check_zero_series(args[1], render(output))
        if kind == "u_planar_by_recurrence":
            per_label = {k: [render(t) for t in v] for k, v in output.per_label.items()}
            return checks.check_planar_terms(args[0], args[1], per_label)
        if kind == "planar_equation_residual":
            return checks.check_zero_series(args[1], render(output))
        code, stdout, stderr = output
        self.output_bytes += len(stdout.encode())
        return checks.check_cli(args, code, stdout, stderr)


def failed_reason(job, output):
    """A CLI request that exits non-zero is a failed operation."""
    if job.kind == "cli" and output[0] != 0:
        return f"exit {output[0]}: {output[2].strip()[:200]}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    fi = import_package()
    import checks
    import clock
    import jobs

    job_list = jobs.build(args.workload, args.seed)
    ready = clock.now()  # CPU time since the process started
    kernel = clock.kernel_seconds()
    setup_s = clock.scale(ready, kernel, kernel)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(fi, checks)
    job_ms, failures, wrong, kernels = [], [], [], []
    raw_s = 0.0
    for job in job_list:
        job_ms.append(None)
        try:
            call = runner.call(job)
        except KeyError:
            failures.append(f"{job}: the sequence it checks was not built")
            continue
        before = clock.kernel_seconds()
        kernels.append(before)
        if tracer is not None:
            tracer.active = True
        start = clock.now()
        try:
            output = call()
        except Exception as err:  # a failed operation, reported and counted
            output, error = None, f"{type(err).__name__}: {err}"
        else:
            error = None
        elapsed = clock.now() - start
        if tracer is not None:
            tracer.active = False
        factor = clock.scale(1.0, before, clock.kernel_seconds())
        if tracer is not None:
            tracer.end_job(factor)
        error = error or failed_reason(job, output)
        if error:
            failures.append(f"{job}: {error}")
            continue
        job_ms[-1] = elapsed * factor * 1000
        raw_s += elapsed
        reason = runner.check(job, output)
        if reason:
            wrong.append(f"{job}: {reason}")
        del output  # not held while the next job runs, so it adds nothing to peak RSS

    result = {
        "setup_s": setup_s,
        "raw_job_s": raw_s,
        "kernel_median_ms": statistics.median(kernels) * 1000 if kernels else None,
        "job_ms": job_ms,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(job_list),
        "failed": len(failures),
        "failures": failures[:5],
        "wrong": wrong[:5],
        "wrong_count": len(wrong),
    }
    if tracer is not None:
        layers, absent = tracer.report()
        layers["render.output_bytes"] = runner.output_bytes
        result["layers"] = layers
        result["absent"] = absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
