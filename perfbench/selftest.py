#!/usr/bin/env python3
"""Self-test of the benchmark at tiny geometry; run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that a wrong expected output (changed here, not in
gdfkit) makes the command fail; and that without gdfkit's sources the command
exits non-zero without printing a result. Exit code 0 means all passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark command, run in-process)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[int, str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace)], tiny=True)
    text = out.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


def test_every_metric_on_every_workload():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in SPEC["workloads"]:
            code, text, result = run_tiny(workload["name"], trace)
            where = f"{workload['name']} --trace {trace}"
            assert code == 0 and result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{where}: metrics differ: {set(got) ^ set(want)}"
            lines = text.splitlines()
            for name, unit in want.items():
                assert any(line.split()[:1] == [name] and f" {unit} " in line
                           for line in lines), f"{where}: {name} not printed with {unit}"


def test_wrong_expected_output_fails():
    original = workloads._invalid_counts
    workloads._invalid_counts = lambda model: [n + 1 for n in original(model)]
    try:
        code, _, result = run_tiny("bulk", 0)
    finally:
        workloads._invalid_counts = original
    assert code == 1, code
    assert result["correct"] is False and result["failed"] > 0, result


def test_without_sources_no_result():
    bare = HERE / "out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done.returncode
    assert not done.stdout.strip(), done.stdout


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
