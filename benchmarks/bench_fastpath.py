"""Throughput of the closed-form machine-model fastpath vs the DES.

The acceptance target for the fastpath rewrite: >= 10x trial throughput
over the discrete-event simulator at figure5 scale (N = 2^16, >= 100
trials) for each of HF, PHF, BA and BA-HF -- using the same per-trial
draws, so both do identical arithmetic (tests/test_fastpath.py holds
the bit-identity property; this bench re-checks it on the timed sample).
The DES is timed by hiding the fastpath from the study
(``fastpath_supported`` patched to return False), so no event tracing
inflates its cost.

Machine-readable results land in two places:

* ``benchmarks/results/BENCH_fastpath.json`` -- written by this module,
  one entry per algorithm with trials/s for the DES and the fastpath
  plus the speedup, under machine/config metadata (this is the artifact
  the acceptance criterion points at);
* the pytest-benchmark JSON, when invoked as::

      PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py \
          --benchmark-only \
          --benchmark-json=benchmarks/results/bench_fastpath_pytest.json

  where each benchmark's ``extra_info`` carries the same numbers.

The DES baseline is timed on a small subsample of trials (at N = 2^16 a
single DES trial replays ~2*(N-1) machine events in pure Python; timing
all 100+ would only re-measure the same event loop).
"""

import dataclasses
import json
import time
from unittest import mock

import pytest

from _common import (
    BENCH_SCHEMA_VERSION,
    RESULTS_DIR,
    full_scale,
    machine_meta,
    run_once,
    write_artifact,
)
from repro.experiments import runtime_study
from repro.experiments.runtime_study import study_trial_metrics
from repro.problems import UniformAlpha
from repro.simulator import MachineConfig

N_PROCESSORS = 2**16
N_TRIALS = 300 if full_scale() else 100
#: DES trials actually timed per algorithm (the baseline subsample).
DES_SAMPLE = {"hf": 3, "ba": 3, "bahf": 3, "phf": 2}
SEED = 20260806
SAMPLER = UniformAlpha(0.1, 0.5)
CONFIG = MachineConfig()

_RESULTS = {}


def _write_artifacts():
    """Dump BENCH_fastpath.json + a readable table after every algorithm.

    Written incrementally (not from a final test) so the artifacts exist
    even under ``--benchmark-only``, which deselects plain tests.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "n_processors": N_PROCESSORS,
        "n_trials": N_TRIALS,
        "seed": SEED,
        "sampler": SAMPLER.describe(),
        "full_scale": full_scale(),
        "machine": machine_meta(),
        "machine_config": dataclasses.asdict(CONFIG),
        "algorithms": _RESULTS,
    }
    (RESULTS_DIR / "BENCH_fastpath.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )
    lines = [
        "fastpath kernels vs discrete-event simulator "
        f"(N={N_PROCESSORS}, {N_TRIALS}-trial batch)",
        "",
        f"{'algo':<6} {'des trials/s':>13} {'fastpath trials/s':>18} {'speedup':>8}",
    ]
    for algo in ("hf", "ba", "bahf", "phf"):
        if algo not in _RESULTS:
            continue
        e = _RESULTS[algo]
        lines.append(
            f"{algo:<6} {e['des_trials_per_s']:>13.3f} "
            f"{e['fastpath_trials_per_s']:>18.1f} {e['speedup']:>7.0f}x"
        )
    write_artifact("fastpath_speedup", "\n".join(lines))


def _run_engine(algorithm, engine, n_trials):
    """Study metrics on the fastpath, or with ``engine="des"`` on the DES."""

    def run():
        return study_trial_metrics(
            algorithm,
            N_PROCESSORS,
            SAMPLER,
            n_trials=n_trials,
            seed=SEED,
            config=CONFIG,
        )

    if engine == "fastpath":
        return run()
    with mock.patch.object(runtime_study, "fastpath_supported", return_value=False):
        return run()


def _bench_algorithm(benchmark, algorithm):
    _run_engine(algorithm, "fastpath", 2)  # warm numpy dispatch
    start = time.perf_counter()
    fast = run_once(
        benchmark, lambda: _run_engine(algorithm, "fastpath", N_TRIALS)
    )
    fast_seconds = time.perf_counter() - start

    des_n = DES_SAMPLE[algorithm]
    start = time.perf_counter()
    des = _run_engine(algorithm, "des", des_n)
    des_seconds = time.perf_counter() - start

    # Cross-validation on the timed sample: both engines must agree bit
    # for bit (the full property lives in tests/test_fastpath.py).
    assert des.tobytes() == fast[:des_n].tobytes(), algorithm

    des_rate = des_n / des_seconds
    fast_rate = N_TRIALS / fast_seconds
    entry = {
        "algorithm": algorithm,
        "n_processors": N_PROCESSORS,
        "n_trials": N_TRIALS,
        "des_sample_trials": des_n,
        "des_trials_per_s": des_rate,
        "fastpath_trials_per_s": fast_rate,
        "speedup": fast_rate / des_rate,
        "bit_identical_on_sample": True,
    }
    _RESULTS[algorithm] = entry
    benchmark.extra_info.update(entry)
    _write_artifacts()
    assert fast.shape == (N_TRIALS, 9)
    assert entry["speedup"] >= 10.0, entry
    return entry


class TestFastpathThroughput:
    def test_hf_speedup(self, benchmark):
        entry = _bench_algorithm(benchmark, "hf")
        # HF's makespan is exactly 2(N-1) on the default machine.
        assert entry["speedup"] >= 10.0

    def test_ba_speedup(self, benchmark):
        _bench_algorithm(benchmark, "ba")

    def test_bahf_speedup(self, benchmark):
        _bench_algorithm(benchmark, "bahf")

    def test_phf_speedup(self, benchmark):
        _bench_algorithm(benchmark, "phf")
