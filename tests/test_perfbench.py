"""The benchmark's own self-test passes against the current sources, so a
change to an API the benchmark calls fails the suite rather than the next
benchmark run. It runs in a subprocess because the benchmark tunes the
allocator and freezes the garbage collector for its whole process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
