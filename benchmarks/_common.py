"""Shared helpers for the benchmark harness.

Every bench regenerates one evaluation artifact of the paper (see
DESIGN.md §3) at a *reduced default scale* -- the paper's full grid
(N = 2^5..2^20, 1000 trials) takes hours in pure Python.  Set
``REPRO_FULL=1`` to run paper scale.

Each bench

* runs the experiment once under ``benchmark.pedantic`` (wall-clock of the
  harness itself is the benchmark metric),
* asserts the paper's qualitative claims (who wins, roughly by how much),
* writes the rendered table/series to ``benchmarks/results/<name>.txt`` so
  EXPERIMENTS.md can reference concrete regenerated numbers.
"""

from __future__ import annotations

import os
import pathlib
import platform

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Version of the ``BENCH_*.json`` artifact layout.  Bump when the
#: top-level shape changes (``tools/bench_compare.py`` warns when two
#: artifacts disagree on this).  Version 1: group keys (``kernels`` /
#: ``algorithms`` / ``entries``) of flat metric dicts, plus
#: ``schema_version`` and a ``machine`` block from :func:`machine_meta`.
BENCH_SCHEMA_VERSION = 1


def _cpu_model() -> str:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_meta() -> dict:
    """Machine metadata embedded in every ``BENCH_*.json`` artifact.

    ``tools/bench_compare.py`` uses this block to warn when a baseline
    and a candidate were measured on different machines (cross-machine
    throughput diffs are not apples to apples).
    """
    import numpy as np

    from repro.core._native import (
        native_available,
        native_threading_mode,
        resolve_n_threads,
    )

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernels": native_available(),
        # Threading context of the measurement: the compiled-in threading
        # backend ("pthread"/"serial", None without native
        # kernels) and the effective in-kernel thread count
        # (REPRO_NATIVE_THREADS or auto-detected cores).  bench_compare
        # warns -- rather than reporting a regression -- when these
        # differ between baseline and candidate.
        "native_threading": native_threading_mode(),
        "n_threads": resolve_n_threads(),
    }


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false", "no")


def grid():
    """(n_values, n_trials) for the current scale."""
    if full_scale():
        return tuple(2**k for k in range(5, 21)), 1000
    return tuple(2**k for k in range(5, 13)), 200


def small_grid():
    """A lighter grid for the more expensive per-trial experiments."""
    if full_scale():
        return tuple(2**k for k in range(5, 21)), 1000
    return tuple(2**k for k in range(5, 11)), 100


def write_artifact(name: str, content: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    return path


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The experiments are deterministic and heavy; repeated rounds would
    only re-measure the same computation.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
