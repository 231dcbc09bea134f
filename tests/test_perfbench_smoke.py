"""The benchmark's smoke run drives every workload through the CLI on tiny
inputs, so a program change that breaks the benchmark fails here, not in a
benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_passes():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert run.stdout.splitlines()[-1] == "smoke: ok"
