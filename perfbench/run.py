"""The repository's benchmark: the sweep and the partition service, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-small-n --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the measurement untraced, then runs again with the
benchmark's span wrappers installed and prints the per-layer metrics
(plus ``trace.overhead_share``, the traced run's cost over the untraced
one).  Every pass checks the program's outputs outside its timed window.
Lines before the last describe the run (configuration and every figure
by name, with its unit); the last line is one JSON object::

    {"correct": true, "attempted": 864, "failed": 0, "metrics": {...}}

Workloads, metrics and the layer mapping are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List, Tuple

import benchenv

WORKLOADS = ("sweep-large-n", "sweep-small-n", "serve-zipf-open")

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_trial", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Units of the other figures printed by name (ladder, error rate, ...).
UNITS = {
    "error_rate": "ratio",
    "cpu_ms_per_req": "ms",
    "max_rps_under_slo": "req/s",
    "requests_per_rung": "count",
    "sweep_calls": "count",
    "trials_per_call": "count",
    "client.lateness_ms.p99": "ms",
    "client.conn_wait_ms.p99": "ms",
}

#: Relative tolerance for a sweep record's mean and variance against the
#: serial reference (the chunked runner merges per-chunk accumulators,
#: the reference sums one array: same values, other summation order).
#: Counts, minima and maxima must match exactly.
RECORD_RTOL = 1e-12

CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def _sweep_child(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> Dict[str, Any]:
    os.makedirs(benchenv.WORK, exist_ok=True)
    out = os.path.join(benchenv.WORK, f"sweep-out-{os.getpid()}-{trace}.json")
    argv = [
        sys.executable, os.path.join(benchenv.BENCH_DIR, "sweeps.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out,
    ] + (["--tiny"] if tiny else [])
    benchenv.run_checked(argv, timeout=CHILD_TIMEOUT_S)
    try:
        return benchenv.read_json(out)
    finally:
        os.unlink(out)


def sweep_reference(config: Any) -> Dict[Tuple[str, int], Dict[str, Any]]:
    """Each cell computed serially: no executor, no shm, no journal."""
    from repro.core.metrics import summarize_ratios
    from repro.experiments.stochastic import trial_ratios

    ref = {}
    for algorithm in config.algorithms:
        for n in config.n_values:
            ratios = trial_ratios(
                algorithm, n, config.sampler, n_trials=config.n_trials,
                seed=config.seed, lam=config.lam,
            )
            ref[(algorithm, n)] = summarize_ratios(ratios).as_dict()
    return ref


def _same_record(rec: Dict[str, Any], ref: Dict[str, Any]) -> bool:
    if any(rec[k] != ref[k] for k in ("n_trials", "min", "max")):
        return False
    return all(
        math.isclose(rec[k], ref[k], rel_tol=RECORD_RTOL, abs_tol=1e-300)
        for k in ("avg", "var")
    )


def check_sweep(calls: List[Dict[str, Any]], ref: Dict[Tuple[str, int], Dict[str, Any]]) -> Tuple[int, int]:
    """``(attempted, failed)`` in chunks: a quarantined chunk fails, and a
    record that differs from the reference fails all of its cell's chunks."""
    attempted = failed = 0
    for call in calls:
        per_cell = call["chunks"] // max(1, len(call["records"]))
        attempted += call["chunks"]
        failed += call["quarantined"]
        for rec in call["records"]:
            key = (rec["algorithm"], rec["n"])
            if key not in ref or not _same_record(rec, ref[key]):
                failed += per_cell
    return attempted, min(failed, attempted)


def plant_wrong_record(calls: List[Dict[str, Any]]) -> None:
    """Self-test hook: corrupt one record's mean by one part in 1e9."""
    calls[0]["records"][0]["avg"] *= 1.0 + 1e-9


def sweep_figures(data: Dict[str, Any], setup: List[float]) -> Dict[str, Any]:
    calls = data["calls"]
    trials = sum(r["n_trials"] for r in calls[0]["records"])
    wall = sum(c["wall_s"] for c in calls)
    return {
        "setup_s": benchenv.median(setup),
        "trials_per_s": trials * len(calls) / wall,
        "p50_ms": benchenv.median([c["wall_s"] * 1e3 for c in calls]),
        "cpu_ms_per_trial": sum(c["cpu_s"] for c in calls) * 1e3 / (trials * len(calls)),
        "peak_rss_mb": data["peak_rss_mb"],
        "sweep_calls": len(calls),
        "trials_per_call": trials,
    }


def run_sweep_workload(workload: str, seed: int, seconds: float, trace: int,
                       tiny: bool = False, plant: bool = False) -> Dict[str, Any]:
    import layers
    import sweeps

    setup = benchenv.time_interpreter_setup()
    config = sweeps.sweep_config(workload, seed, tiny)
    plain = _sweep_child(workload, seed, seconds, 0, tiny)
    ref = sweep_reference(config)
    if plant:
        plant_wrong_record(plain["calls"])
    attempted, failed = check_sweep(plain["calls"], ref)
    figures = sweep_figures(plain, setup)
    figures["error_rate"] = failed / attempted
    result = {
        "attempted": attempted,
        "failed": failed,
        "figures": figures,
        "config": plain["config"],
        "metrics": {name: benchenv.metric(figures[name], unit) for name, unit in END_TO_END},
    }
    if trace:
        traced = _sweep_child(workload, seed, seconds, 1, tiny)
        t_attempted, t_failed = check_sweep(traced["calls"], ref)
        result["attempted"] += t_attempted
        result["failed"] += t_failed
        traced_figures = sweep_figures(traced, setup)
        overhead = figures["trials_per_s"] / traced_figures["trials_per_s"] - 1.0
        per_layer = layers.sweep_layers(
            traced["events"], traced["calls"], config.n_jobs, overhead
        )
        result["trace_path"] = _write_trace(workload, seed, traced["events"], plain["config"])
        result["metrics"] = {
            name: benchenv.metric(per_layer[name], unit) for name, unit in layers.PER_LAYER
        }
    return result


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------


def run_serve_workload(seed: int, seconds: float, trace: int,
                       plant: bool = False) -> Dict[str, Any]:
    import layers
    import openloop
    import serving

    setup = serving.setup_times()
    plain = serving.run_pass(seed, seconds)
    if plant:
        serving.plant_wrong_ratio(plain)
    attempted, failed = serving.check_pass(plain)
    figures = serving.pass_figures(plain, attempted, failed)
    figures["setup_s"] = benchenv.median(setup)
    figures["p50_ms"] = figures["p50_ms.r200"]
    config = {
        "workload": "serve-zipf-open",
        "server_command": ["python", "-m", "repro.serve", *serving.SERVER_ARGS],
        "server_config": serving.server_config(),
        "connections": serving.connections(),
        "rates_rps": list(openloop.RATES),
        "requests_per_rung": plain["count"],
        "trials_per_request": openloop.TRIALS_PER_REQUEST,
        "zipf_s": openloop.ZIPF_S,
        "slo_p99_ms": serving.SLO_P99_MS,
        **benchenv.machine_config(),
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "figures": {k: v for k, v in figures.items() if k != "rungs"},
        "config": config,
        "metrics": {name: benchenv.metric(figures[name], unit) for name, unit in END_TO_END},
    }
    if trace:
        span_path = os.path.join(benchenv.WORK, f"server-spans-{os.getpid()}.json")
        traced = serving.run_pass(seed, seconds, span_path)
        try:
            events = benchenv.read_json(span_path)
        finally:
            os.unlink(span_path)
        t_attempted, t_failed = serving.check_pass(traced)
        result["attempted"] += t_attempted
        result["failed"] += t_failed
        traced_figures = serving.pass_figures(traced, t_attempted, t_failed)
        overhead = traced_figures["cpu_ms_per_req"] / figures["cpu_ms_per_req"] - 1.0
        client = {
            "client.lateness_ms.p99": figures["client.lateness_ms.p99"],
            "client.conn_wait_ms.p99": figures["client.conn_wait_ms.p99"],
        }
        per_layer = layers.serve_layers(
            events, serving.sent_done(traced), serving.ladder_window_us(traced),
            client, float(traced["stats"].get("exec_retries", 0)), overhead,
        )
        result["trace_path"] = _write_trace("serve-zipf-open", seed, events, config)
        result["metrics"] = {
            name: benchenv.metric(per_layer[name], unit) for name, unit in layers.PER_LAYER
        }
    return result


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _write_trace(workload: str, seed: int, events: List[Dict[str, Any]], config: Dict[str, Any]) -> str:
    import spans

    path = os.path.join(benchenv.WORK, f"trace-{workload}-seed{seed}.json")
    spans.write_chrome_trace(path, events, config)
    return os.path.relpath(path, benchenv.ROOT)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False, plant: bool = False) -> Dict[str, Any]:
    benchenv.prepare_process()
    cache = benchenv.artifact_cache_state()
    if workload == "serve-zipf-open":
        result = run_serve_workload(seed, seconds, trace, plant)
    else:
        result = run_sweep_workload(workload, seed, seconds, trace, tiny, plant)
    result["config"]["artifact_cache_at_start"] = cache
    return result


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith(("p50_ms", "p99_ms")):
        return "ms"
    return dict(END_TO_END)[name]


def describe(result: Dict[str, Any]) -> List[str]:
    lines = ["config " + json.dumps(result["config"], sort_keys=True)]
    for name, value in result["figures"].items():
        lines.append(f"  {name} = {value:.6g} {_unit(name)}")
    if "trace_path" in result:
        lines.append(f"trace written to {result['trace_path']}")
    return lines


def final_line(result: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not benchenv.have_program():
        print(f"no program to measure: {benchenv.SRC}/repro is missing", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(benchenv.WORK, exist_ok=True)
    benchenv.write_json(
        os.path.join(benchenv.WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        result,
    )
    for line in describe(result):
        print(line)
    print(final_line(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
