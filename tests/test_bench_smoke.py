"""The benchmark's smoke pass runs end to end on tiny workloads.

It checks every workload's exit status, its correctness checks and the
metric names and units against BENCHMARK.json; it asserts no timings.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_tiny_passes():
    proc = subprocess.run([sys.executable, "benchmarks/suite.py", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all workloads passed" in proc.stdout
