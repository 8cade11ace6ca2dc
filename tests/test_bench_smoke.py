"""The benchmark's own self-check (``nrbench/smoke.py``): every workload runs
untraced and traced on tiny strips, every metric is reported, and the traced
layer times partition the wall time. A change to the program that breaks the
benchmark's tracing fails here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "nrbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: all checks passed" in proc.stdout
