"""Sweep workloads: repeated ``run_sweep`` calls in a fresh child process.

``run.py`` starts this file as a child so that the measured process's
peak RSS, CPU time and (in a traced run) installed wrappers belong to
the sweep alone::

    python perfbench/sweeps.py --workload sweep-small-n --seed 1 \
        --seconds 25 --trace 0 --out result.json

The child makes one warm-up call, then calls ``run_sweep`` on the same
configuration for ``--seconds`` (no call starts that would end more than
half a call past them), and writes every call's
wall time, CPU time, records and accounting to ``--out``.  The serial
reference check runs in the parent, outside this process and outside
the timed window.
"""

from __future__ import annotations

import argparse
import os
import shutil
import time
from typing import Any, Dict, List

import benchenv

#: The sweep workloads: processor counts and trials per cell.
SWEEPS: Dict[str, Dict[str, Any]] = {
    "sweep-large-n": {"n_values": (2**14, 2**16), "n_trials": 256},
    "sweep-small-n": {"n_values": tuple(2**k for k in range(5, 11)), "n_trials": 4096},
}

#: Tiny shapes for the self-test (same code paths, seconds not minutes).
TINY: Dict[str, Dict[str, Any]] = {
    "sweep-large-n": {"n_values": (2**9, 2**10), "n_trials": 8},
    "sweep-small-n": {"n_values": (32, 64), "n_trials": 64, "chunk_size": 16},
}

#: Workloads that pass ``journal_path`` (one fsynced record per chunk).
JOURNALED = ("sweep-small-n",)

ALGORITHMS = ("hf", "ba", "bahf")
N_JOBS = 2
BACKEND = "processes"


def sweep_config(workload: str, seed: int, tiny: bool = False) -> Any:
    """The ``StochasticConfig`` of one workload; the seed is the run's."""
    from repro.experiments.config import StochasticConfig
    from repro.problems.samplers import UniformAlpha

    shape = (TINY if tiny else SWEEPS)[workload]
    return StochasticConfig(
        sampler=UniformAlpha(0.1, 0.5),
        n_values=shape["n_values"],
        algorithms=ALGORITHMS,
        n_trials=shape["n_trials"],
        seed=seed,
        n_jobs=N_JOBS,
        chunk_size=shape.get("chunk_size"),
    )


def _record_dict(rec: Any) -> Dict[str, Any]:
    return {"algorithm": rec.algorithm, "n": rec.n_processors, **rec.sample.as_dict()}


def _one_call(config: Any, journal_path: Any) -> Dict[str, Any]:
    from repro.chaos import RunReport
    from repro.experiments import runner

    report = RunReport()
    cpu0 = benchenv.rusage_cpu_s()
    t0 = time.perf_counter()
    result = runner.run_sweep(
        config, backend=BACKEND, journal_path=journal_path,
        report=report, strict=False,
    )
    t1 = time.perf_counter()
    cpu1 = benchenv.rusage_cpu_s()
    journal_bytes = 0
    if journal_path is not None:
        journal_bytes = os.path.getsize(journal_path)
        os.unlink(journal_path)
    return {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "records": [_record_dict(rec) for rec in result.records],
        "chunks": report.n_chunks,
        "in_pool": report.in_pool,
        "retries": report.retries,
        "quarantined": len(report.quarantined),
        "journal_bytes": journal_bytes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(SWEEPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    benchenv.prepare_process()
    work = os.path.join(benchenv.WORK, f"sweep-{os.getpid()}")
    span_dir = os.path.join(work, "spans")
    os.makedirs(span_dir, exist_ok=True)
    try:
        if args.trace:
            import spans

            spans.install_sweep(span_dir)
        config = sweep_config(args.workload, args.seed, args.tiny)
        journal = os.path.join(work, "journal.jsonl") if args.workload in JOURNALED else None

        _one_call(config, journal)  # warm-up: caches, imports, first pool
        if args.trace:
            spans.RECORDER.clear()
            for name in os.listdir(span_dir):
                os.unlink(os.path.join(span_dir, name))

        calls: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + args.seconds
        while not calls or time.perf_counter() + calls[-1]["wall_s"] / 2 < deadline:
            calls.append(_one_call(config, journal))

        out: Dict[str, Any] = {
            "calls": calls,
            "peak_rss_mb": benchenv.rusage_peak_rss_mb(),
            "config": {
                "workload": args.workload,
                "n_values": list(config.n_values),
                "algorithms": list(config.algorithms),
                "n_trials": config.n_trials,
                "chunk_size": config.effective_chunk_size,
                "sampler": config.sampler.describe(),
                "seed": config.seed,
                "n_jobs": config.n_jobs,
                "backend": BACKEND,
                "journal": journal is not None,
                **benchenv.machine_config(),
            },
        }
        if args.trace:
            events = spans.RECORDER.events() + spans.load_dir(span_dir)
            out["events"] = events
        benchenv.write_json(args.out, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
