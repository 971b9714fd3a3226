"""Fast self-test of the benchmark at tiny scale (about a minute)::

    python3 perfbench/selftest.py

It runs every workload untraced and traced on tiny inputs and checks
that the last output line has exactly the contracted keys and every
metric name with its unit; that a planted wrong ratio (one sweep record,
one served response) fails the run; and that the benchmark refuses to
run, without printing a result, in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, Tuple

import benchenv
import layers
import run

SEED = 3
SECONDS = 1.0


def _check_line(result: Dict, names: Tuple[Tuple[str, str], ...], label: str) -> None:
    line = json.loads(run.final_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, label
    assert line["correct"] is True and line["failed"] == 0, (label, line)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1, label
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == dict(names), (label, sorted(set(got) ^ set(dict(names))))
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], float), (label, name)


def _check_planted(workload: str) -> None:
    result = run.run_workload(workload, SEED, SECONDS, 0, tiny=True, plant=True)
    line = json.loads(run.final_line(result))
    assert line["correct"] is False and line["failed"] >= 1, (workload, line)
    print(f"ok  {workload}: planted wrong ratio caught ({line['failed']} failed)")


def _check_refuses_without_program() -> None:
    bare = os.path.join(benchenv.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(benchenv.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            benchenv.BENCH_DIR, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-small-n",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without a program"
    assert '"metrics"' not in proc.stdout, "printed a result without a program"
    print("ok  refuses to run without the program")


def main() -> int:
    benchenv.prepare_process()
    for workload in run.WORKLOADS:
        result = run.run_workload(workload, SEED, SECONDS, 0, tiny=True)
        _check_line(result, run.END_TO_END, f"{workload} untraced")
        traced = run.run_workload(workload, SEED, SECONDS, 1, tiny=True)
        _check_line(traced, layers.PER_LAYER, f"{workload} traced")
        print(f"ok  {workload}: every metric printed with its unit, outputs correct")
    _check_planted("sweep-small-n")
    _check_planted("serve-zipf-open")
    _check_refuses_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
