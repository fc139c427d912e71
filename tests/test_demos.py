"""The demo scripts run as a user runs them: each exits 0, prints its
walk-through to stdout and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import forestinv

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [demo.stem for demo in DEMOS] == [
        "census", "generating_functions", "order_polynomials", "planar", "quasisymmetric",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_as_a_script(demo):
    src = Path(forestinv.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.strip()
