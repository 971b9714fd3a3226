"""Paths, child-process environment, statistics and /proc helpers.

Every process the benchmark starts gets :func:`child_env`: ``src`` on
``PYTHONPATH`` and ``TMPDIR`` pointed at the benchmark's work directory,
so the native kernels' artifact cache (keyed under the temp directory)
and every temporary file stay inside the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
TMP = os.path.join(WORK, "tmp")

#: How many fresh start-ups one run times for ``setup_s`` (median).
SETUP_REPEATS = 9

#: The interpreter probe timed by ``setup_s`` on the sweep workloads:
#: repro imported and the native library loaded from its artifact cache.
SETUP_PROBE = (
    "import repro.experiments.runner\n"
    "from repro.core import _native\n"
    "assert _native.native_available(), 'native kernels unavailable'\n"
)


def have_program() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = TMP
    return env


def prepare_process() -> None:
    """Make the current process import ``src`` and use the work dir."""
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR


def run_checked(argv: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion; raise with its stderr if it fails."""
    proc = subprocess.run(
        list(argv), env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[:3])} ... exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    return proc


def time_interpreter_setup(repeats: int = SETUP_REPEATS) -> List[float]:
    """Seconds from spawning a fresh interpreter to native kernels loaded.

    One untimed start first, so the artifact cache and the bytecode cache
    are warm (a fresh checkout compiles both).
    """
    argv = [sys.executable, "-c", SETUP_PROBE]
    run_checked(argv, timeout=600)
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_checked(argv, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# /proc and rusage
# ----------------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, in seconds (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def rusage_cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def rusage_peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# configuration record
# ----------------------------------------------------------------------


def artifact_cache_state() -> str:
    """``warm`` when a compiled kernel library already sits in the cache."""
    if not os.path.isdir(TMP):
        return "cold"
    for name in os.listdir(TMP):
        if name.startswith("repro-kernels-") and os.path.exists(
            os.path.join(TMP, name, "libreprokernels.so")
        ):
            return "warm"
    return "cold"


def machine_config() -> Dict[str, Any]:
    """What was measured on: the machine, toolchain and native kernels."""
    import numpy as np

    from repro.core import _native

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernels": _native.native_available(),
        "native_threading": _native.native_threading_mode(),
        "native_threads": _native.resolve_n_threads(),
    }


def write_json(path: str, payload: Any) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}
