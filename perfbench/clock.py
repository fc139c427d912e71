"""Drift-corrected timing.

The benchmark's host is a shared 2-vCPU VM whose speed swings by up to
2x on a scale of tenths of a second, so raw times of the same work do
not repeat.  Two things steady them:

- Spans are timed on the process's CPU clock, not the wall clock.  Jobs
  do no I/O (CLI output goes to a string buffer), so CPU time is the
  time the job works, without the time it waits while other tenants
  hold the CPU.
- Every timed span is bracketed by a short calibration kernel: stdlib
  Fraction and dict work, the same kind of work the package does.  A
  span's time is scaled by REFERENCE_KERNEL_S over the mean kernel time
  around it, which gives the time the span takes when the host runs the
  kernel in REFERENCE_KERNEL_S.  The kernel runs twice at each bracket
  and the faster run counts, so one interruption does not skew a span.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's typical time on the reference host (2-vCPU VM, Python
# 3.11.7); scaled times read as times on that host at its usual speed.
REFERENCE_KERNEL_S = 0.0016

now = time.process_time


def _kernel():
    acc = {}
    total = Fraction(0)
    for i in range(1, 160):
        f = Fraction(i % 97 + 1, i % 13 + 2)
        total += f * f
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + f
    return total


def _timed_kernel():
    start = now()
    _kernel()
    return now() - start


def kernel_seconds():
    """Faster of two kernel runs, in seconds."""
    return min(_timed_kernel(), _timed_kernel())


def scale(raw_seconds, kernel_before, kernel_after):
    """Raw span time converted to reference speed."""
    return raw_seconds * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)
