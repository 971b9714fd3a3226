"""Per-layer metrics, computed from the spans of a traced run.

Every name here is printed by every traced run, whatever the workload:
a layer that the workload does not cross reports 0.  Counts and byte
totals are per ``run_sweep`` call on the sweep workloads and per rate
ladder on the serving workload; ``*_us_per_trial`` figures are per trial
everywhere.  The layer -> end-to-end mapping is in ``README.md``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from benchenv import median, quantile

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("rng.generators", "count"),
    ("rng.us_per_trial", "us"),
    ("samplers.us_per_trial", "us"),
    ("samplers.bytes", "bytes"),
    ("batch.calls", "count"),
    ("batch.us_per_trial.hf", "us"),
    ("batch.us_per_trial.ba", "us"),
    ("batch.us_per_trial.bahf", "us"),
    ("batch.bytes_read", "bytes"),
    ("batch.share", "ratio"),
    ("shm.publish_ms", "ms"),
    ("shm.bytes", "bytes"),
    ("checkpoint.chunks", "count"),
    ("checkpoint.in_pool", "count"),
    ("checkpoint.retries", "count"),
    ("checkpoint.first_result_ms", "ms"),
    ("checkpoint.chunk_ms.p50", "ms"),
    ("checkpoint.chunk_ms.p99", "ms"),
    ("checkpoint.worker_busy_share", "ratio"),
    ("checkpoint.journal_records", "count"),
    ("checkpoint.journal_record_ms.p50", "ms"),
    ("checkpoint.journal_record_ms.p99", "ms"),
    ("checkpoint.journal_bytes", "bytes"),
    ("metrics.reduce_ms", "ms"),
    ("runner.wall_s", "s"),
    ("runner.unattributed_share", "ratio"),
    ("protocol.parse_us", "us"),
    ("protocol.response_us", "us"),
    ("admission.admitted", "count"),
    ("admission.shed", "count"),
    ("batcher.batches", "count"),
    ("batcher.requests_per_batch", "count"),
    ("batcher.window_wait_ms.p50", "ms"),
    ("batcher.build_ms.p50", "ms"),
    ("batcher.dispatch_ms.p50", "ms"),
    ("batcher.dispatch_ms.p99", "ms"),
    ("server.other_ms.p50", "ms"),
    ("server.other_ms.p99", "ms"),
    ("client.lateness_ms.p99", "ms"),
    ("client.conn_wait_ms.p99", "ms"),
    ("trace.overhead_share", "ratio"),
)

#: Spans that do a layer's work (as opposed to orchestrating other
#: layers); the runner time no such span covers is "unattributed".
LEAF_PREFIXES = ("rng.", "samplers.", "batch.", "shm.", "metrics.", "checkpoint.journal")

ALGORITHMS = ("hf", "ba", "bahf")


def _by_name(events: Iterable[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for ev in events:
        out[ev["name"]].append(ev)
    return out


def _durs_ms(events: Sequence[Dict[str, Any]]) -> List[float]:
    return [ev["dur"] / 1000.0 for ev in events]


def _sum_us(events: Sequence[Dict[str, Any]]) -> float:
    return sum(ev["dur"] for ev in events)


def _mean_us(events: Sequence[Dict[str, Any]]) -> float:
    return _sum_us(events) / len(events) if events else 0.0


def _kernels(named: Dict[str, List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    return [ev for algo in ALGORITHMS for ev in named.get(f"batch.{algo}", [])]


def _per_trial_us(events: Sequence[Dict[str, Any]]) -> float:
    rows = sum(ev["args"].get("rows", 1) for ev in events)
    return _sum_us(events) / rows if rows else 0.0


def _covered_us(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _first_result_ms(parents: Sequence[Dict[str, Any]], chunks: Sequence[Dict[str, Any]]) -> float:
    """Median over orchestration spans of entry -> first chunk finished."""
    ordered = sorted(chunks, key=lambda c: c["ts"])
    starts = [c["ts"] for c in ordered]
    waits = []
    for p in parents:
        lo, hi = p["ts"], p["ts"] + p["dur"]
        inside = ordered[bisect_left(starts, lo):bisect_right(starts, hi)]
        if inside:
            waits.append((min(c["ts"] + c["dur"] for c in inside) - lo) / 1000.0)
    return median(waits)


def _common(named: Dict[str, List[Dict[str, Any]]], per: float) -> Dict[str, float]:
    """rng / samplers / batch / metrics figures, counts divided by ``per``."""
    kernels = _kernels(named)
    samples = named.get("samplers.sample_trial_matrix", [])
    reduce_spans = [ev for name, evs in named.items() if name.startswith("metrics.") for ev in evs]
    out = {
        "rng.generators": sum(e["args"]["rows"] for e in named.get("rng.generator_for", [])) / per,
        "rng.us_per_trial": _per_trial_us(named.get("rng.generator_for", [])),
        "samplers.us_per_trial": _per_trial_us(samples),
        "samplers.bytes": sum(e["args"]["rows"] * e["args"]["cols"] * 8 for e in samples) / per,
        "batch.calls": len(kernels) / per,
        "batch.bytes_read": sum(
            e["args"]["rows"] * max(0, e["args"]["n"] - 1) * 8 for e in kernels
        ) / per,
        "metrics.reduce_ms": _sum_us(reduce_spans) / 1000.0 / per,
    }
    for algo in ALGORITHMS:
        out[f"batch.us_per_trial.{algo}"] = _per_trial_us(named.get(f"batch.{algo}", []))
    return out


def _zeros() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def sweep_layers(
    events: Sequence[Dict[str, Any]],
    calls: Sequence[Dict[str, Any]],
    n_jobs: int,
    overhead_share: float,
) -> Dict[str, float]:
    named = _by_name(events)
    per = float(len(calls))
    out = _zeros()
    out.update(_common(named, per))
    wall_us = sum(c["wall_s"] for c in calls) * 1e6
    out["batch.share"] = _sum_us(_kernels(named)) / (wall_us * n_jobs)

    publish = named.get("shm.publish_draws", [])
    out["shm.publish_ms"] = _sum_us(publish) / 1000.0 / per
    out["shm.bytes"] = sum(e["args"]["bytes"] for e in publish) / per

    chunks = named.get("checkpoint.chunk", [])
    execs = named.get("checkpoint.execute_chunks", [])
    chunk_ms = _durs_ms(chunks)
    out["checkpoint.chunks"] = len(chunks) / per
    out["checkpoint.in_pool"] = sum(c["in_pool"] for c in calls) / per
    out["checkpoint.retries"] = sum(c["retries"] for c in calls) / per
    out["checkpoint.first_result_ms"] = _first_result_ms(execs, chunks)
    out["checkpoint.chunk_ms.p50"] = quantile(chunk_ms, 0.5)
    out["checkpoint.chunk_ms.p99"] = quantile(chunk_ms, 0.99)
    exec_us = _sum_us(execs)
    out["checkpoint.worker_busy_share"] = (
        _sum_us(chunks) / (exec_us * n_jobs) if exec_us else 0.0
    )
    records = _durs_ms(named.get("checkpoint.journal_record", []))
    out["checkpoint.journal_records"] = len(records) / per
    out["checkpoint.journal_record_ms.p50"] = quantile(records, 0.5)
    out["checkpoint.journal_record_ms.p99"] = quantile(records, 0.99)
    out["checkpoint.journal_bytes"] = sum(c["journal_bytes"] for c in calls) / per

    sweeps = named.get("runner.run_sweep", [])
    leaves = [
        (ev["ts"], ev["ts"] + ev["dur"])
        for ev in events
        if ev["name"].startswith(LEAF_PREFIXES)
    ]
    run_us = _sum_us(sweeps)
    covered = sum(_covered_us(leaves, s["ts"], s["ts"] + s["dur"]) for s in sweeps)
    out["runner.wall_s"] = run_us / 1e6 / len(sweeps) if sweeps else 0.0
    out["runner.unattributed_share"] = 1.0 - covered / run_us if run_us else 0.0
    out["trace.overhead_share"] = overhead_share
    return out


def serve_layers(
    events: Sequence[Dict[str, Any]],
    sent_done: Dict[int, Tuple[float, float]],
    window_us: Tuple[float, float],
    client: Dict[str, float],
    retries: float,
    overhead_share: float,
) -> Dict[str, float]:
    """``sent_done`` maps a request seed to the client's send and receive
    times (perf_counter seconds); only spans inside ``window_us`` (the
    traced ladder) count."""
    lo, hi = window_us
    events = [ev for ev in events if lo <= ev["ts"] <= hi]
    named = _by_name(events)
    out = _zeros()
    out.update(_common(named, 1.0))
    out["batch.share"] = _sum_us(_kernels(named)) / (hi - lo)

    chunks = named.get("checkpoint.chunk", [])
    dispatches = named.get("batcher.dispatch", [])
    chunk_ms = _durs_ms(chunks)
    out["checkpoint.chunks"] = float(len(chunks))
    out["checkpoint.retries"] = float(retries)
    out["checkpoint.first_result_ms"] = _first_result_ms(dispatches, chunks)
    out["checkpoint.chunk_ms.p50"] = quantile(chunk_ms, 0.5)
    out["checkpoint.chunk_ms.p99"] = quantile(chunk_ms, 0.99)
    dispatch_us = _sum_us(dispatches)
    out["checkpoint.worker_busy_share"] = _sum_us(chunks) / dispatch_us if dispatch_us else 0.0

    parses = named.get("protocol.parse", [])
    out["protocol.parse_us"] = _mean_us(parses)
    out["protocol.response_us"] = _mean_us(named.get("protocol.response_payload", []))
    admits = named.get("admission.try_admit", [])
    out["admission.admitted"] = float(sum(1 for e in admits if e["args"]["admitted"]))
    out["admission.shed"] = float(sum(1 for e in admits if not e["args"]["admitted"]))

    batches = named.get("batcher.run_batch", [])
    out["batcher.batches"] = float(len(batches))
    out["batcher.requests_per_batch"] = (
        sum(len(b["args"]["rids"]) for b in batches) / len(batches) if batches else 0.0
    )
    submitted = {e["args"]["rid"]: e["ts"] for e in named.get("batcher.submit", [])}
    parse_us = {e["args"]["rid"]: e["dur"] for e in parses if "rid" in e["args"]}
    waits, others = [], []
    for b in batches:
        end = b["ts"] + b["dur"]
        for rid in b["args"]["rids"]:
            if rid not in submitted:
                continue
            waits.append((b["ts"] - submitted[rid]) / 1000.0)
            if rid in sent_done and rid in parse_us:
                sent, done = sent_done[rid]
                server_us = parse_us[rid] + (end - submitted[rid])
                others.append(((done - sent) * 1e6 - server_us) / 1000.0)
    out["batcher.window_wait_ms.p50"] = quantile(waits, 0.5)
    out["batcher.build_ms.p50"] = quantile(_durs_ms(named.get("batcher.request_draws", [])), 0.5)
    dispatch_ms = _durs_ms(dispatches)
    out["batcher.dispatch_ms.p50"] = quantile(dispatch_ms, 0.5)
    out["batcher.dispatch_ms.p99"] = quantile(dispatch_ms, 0.99)
    out["server.other_ms.p50"] = quantile(others, 0.5)
    out["server.other_ms.p99"] = quantile(others, 0.99)
    out.update(client)
    out["trace.overhead_share"] = overhead_share
    return out
