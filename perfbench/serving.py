"""The ``serve-zipf-open`` workload: ``repro.serve`` under an open-loop ladder.

Each pass starts a fresh server with its default flags (``python -m
repro.serve --port 0``; a traced pass uses ``serve_traced.py``), warms
it up closed-loop, then runs the rate ladder of :mod:`openloop` over at
most ``nproc`` connections and reads the server's CPU time and peak RSS
from ``/proc``.  Every 200 body is checked afterwards against the
direct computation for its ``(algorithm, n, alpha, trials, seed)``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import benchenv
import openloop

#: The server's command line: its defaults, on an ephemeral port.
SERVER_ARGS = ("--port", "0")

#: Latency objective of ``max_rps_under_slo``.
SLO_P99_MS = 20.0

#: Untimed closed-loop requests before the ladder (imports, native load).
WARMUP_REQUESTS = 200

#: Request seeds: each run takes its own block so runs never share draws.
SEED_BLOCK = 1 << 24
WARMUP_SEED_BASE = 1 << 60


def server_config() -> Dict[str, Any]:
    """Every setting the server runs with under :data:`SERVER_ARGS`."""
    import dataclasses

    from repro.serve import server

    config = server.config_from_args(server.build_parser().parse_args(list(SERVER_ARGS)))
    return {k: v for k, v in dataclasses.asdict(config).items() if k != "chaos"} | {
        "chaos": config.chaos is not None
    }


def connections() -> int:
    return min(2, os.cpu_count() or 1)


def rung_count(seconds: float) -> int:
    """Requests per rung so that the whole ladder is due within ``seconds``."""
    return max(20, round(seconds / sum(1.0 / r for r in openloop.RATES)))


class Server:
    """One server process, from spawn to drained exit."""

    def __init__(self, span_path: Optional[str] = None) -> None:
        os.makedirs(benchenv.WORK, exist_ok=True)
        if span_path is None:
            argv = [sys.executable, "-m", "repro.serve", *SERVER_ARGS]
        else:
            argv = [
                sys.executable, os.path.join(benchenv.BENCH_DIR, "serve_traced.py"),
                "--spans", span_path, *SERVER_ARGS,
            ]
        self.log_path = os.path.join(benchenv.WORK, f"server-{time.monotonic_ns()}.log")
        self._log = open(self.log_path, "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=benchenv.child_env(), cwd=benchenv.ROOT,
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        try:
            self.host, self.port = self._listening()
            status = asyncio.run(openloop.get_status(self.host, self.port, "/readyz"))
            if status != 200:
                raise RuntimeError(f"/readyz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _listening(self) -> Tuple[str, int]:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r}; log {self.log_path}")
        host, _, port = line.split()[-1].rpartition(":")
        return host, int(port)

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, and return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        if code == 0:
            os.unlink(self.log_path)  # kept only when the server failed
        return code


def setup_times(repeats: int = benchenv.SETUP_REPEATS) -> List[float]:
    """Seconds from spawning the server to its first ``/readyz`` 200.

    The native artifact cache and the bytecode cache are warmed first,
    by one untimed interpreter probe and one untimed server start.
    """
    benchenv.run_checked([sys.executable, "-c", benchenv.SETUP_PROBE], timeout=600)
    Server().stop()
    out = []
    for _ in range(repeats):
        server = Server()
        out.append(server.setup_s)
        server.stop()
    return out


def run_pass(seed: int, seconds: float, span_path: Optional[str] = None) -> Dict[str, Any]:
    """One server lifetime: warm-up, the ladder, CPU/RSS, drain."""
    count = rung_count(seconds)
    base = (seed % (1 << 30)) * SEED_BLOCK
    plans = [
        (rate, openloop.schedule(seed, rate, count, base + i * count))
        for i, rate in enumerate(openloop.RATES)
    ]
    warm = [
        item.body
        for item in openloop.schedule(seed, 100, WARMUP_REQUESTS, WARMUP_SEED_BASE)
    ]
    server = Server(span_path)
    try:
        warm_statuses = asyncio.run(
            openloop.closed_loop(server.host, server.port, warm, connections())
        )
        cpu0 = benchenv.proc_cpu_s(server.proc.pid)
        rungs = asyncio.run(
            openloop.run_ladder(server.host, server.port, plans, connections())
        )
        cpu1 = benchenv.proc_cpu_s(server.proc.pid)
        peak_rss_mb = benchenv.proc_peak_rss_mb(server.proc.pid)
        stats = asyncio.run(_stats(server.host, server.port))
    finally:
        exit_code = server.stop()
    return {
        "rungs": rungs,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "warm_failed": sum(1 for s in warm_statuses if s != 200),
        "exit_code": exit_code,
        "stats": stats,
        "count": count,
    }


async def _stats(host: str, port: int) -> Dict[str, Any]:
    conn = await openloop.Connection(host, port).open()
    try:
        status, body = await conn.call("GET", "/stats")
        return json.loads(body) if status == 200 else {}
    finally:
        await conn.close()


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------


def reference_ratios(body: Dict[str, Any]) -> Dict[str, Any]:
    """The direct computation a 200 for ``body`` must equal, bit for bit."""
    from repro.core.metrics import summarize_ratios
    from repro.experiments.stochastic import trial_ratios
    from repro.problems.samplers import FixedAlpha

    ratios = trial_ratios(
        body["algorithm"], body["n"], FixedAlpha(float(body["alpha"])),
        n_trials=body["trials"], seed=body["seed"],
    )
    return summarize_ratios(ratios).as_dict()


def check_pass(result: Dict[str, Any]) -> Tuple[int, int]:
    """``(attempted, failed)``: a request fails without a 200 or when its
    ratios differ from :func:`reference_ratios`.  A server that does not
    drain cleanly (non-zero exit) fails the whole pass."""
    attempted = failed = 0
    for rung in result["rungs"]:
        for out in rung.outcomes:
            attempted += 1
            if out.status != 200 or out.payload is None:
                failed += 1
                continue
            body = out.body
            echoed = (out.payload.get("algorithm"), out.payload.get("n"), out.payload.get("seed"))
            if echoed != (body["algorithm"], body["n"], body["seed"]) or (
                out.payload.get("ratios") != reference_ratios(body)
            ):
                failed += 1
    failed += result["warm_failed"]
    if result["exit_code"] != 0:
        failed = attempted
    return attempted, failed


def plant_wrong_ratio(result: Dict[str, Any]) -> None:
    """Self-test hook: corrupt the first 200 body's mean by one part in 1e9."""
    for rung in result["rungs"]:
        for out in rung.outcomes:
            if out.payload is not None:
                out.payload["ratios"]["avg"] *= 1.0 + 1e-9
                return


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


def rung_figures(rung: openloop.RungResult) -> Dict[str, Any]:
    latency = [(o.done - o.due) * 1e3 for o in rung.outcomes]
    answered = [o for o in rung.outcomes if o.status == 200]
    return {
        "rate": rung.rate,
        "requests": len(rung.outcomes),
        "answered": len(answered),
        "p50_ms": benchenv.quantile(latency, 0.5),
        "p99_ms": benchenv.quantile(latency, 0.99),
        "achieved_rps": len(answered) / (rung.ended - rung.started),
        "backlog_growing": openloop.backlog_growing(rung.outcomes),
        "wall_s": rung.ended - rung.started,
    }


def pass_figures(result: Dict[str, Any], attempted: int, failed: int) -> Dict[str, Any]:
    """Every end-to-end figure of one pass, by the names in README.md."""
    rungs = [rung_figures(r) for r in result["rungs"]]
    outcomes = [o for r in result["rungs"] for o in r.outcomes]
    answered = sum(r["answered"] for r in rungs)
    trials = answered * openloop.TRIALS_PER_REQUEST
    figures: Dict[str, Any] = {
        "rungs": rungs,
        "requests_per_rung": result["count"],
        "error_rate": failed / attempted if attempted else 1.0,
        "cpu_ms_per_req": result["cpu_s"] * 1e3 / max(1, answered),
        "cpu_ms_per_trial": result["cpu_s"] * 1e3 / max(1, trials),
        "trials_per_s": trials / sum(r["wall_s"] for r in rungs),
        "peak_rss_mb": result["peak_rss_mb"],
        "client.lateness_ms.p99": benchenv.quantile(
            [(o.woke - o.due) * 1e3 for o in outcomes], 0.99),
        "client.conn_wait_ms.p99": benchenv.quantile(
            [(o.sent - o.woke) * 1e3 for o in outcomes], 0.99),
    }
    max_rps = 0.0
    for r in rungs:
        figures[f"p50_ms.r{r['rate']}"] = r["p50_ms"]
        figures[f"p99_ms.r{r['rate']}"] = r["p99_ms"]
        errors = r["requests"] - r["answered"]
        if r["p99_ms"] <= SLO_P99_MS and errors == 0 and not r["backlog_growing"]:
            max_rps = max(max_rps, float(r["rate"]))
    figures["max_rps_under_slo"] = max_rps
    return figures


def sent_done(result: Dict[str, Any]) -> Dict[int, Tuple[float, float]]:
    return {
        o.body["seed"]: (o.sent, o.done)
        for r in result["rungs"] for o in r.outcomes if o.status == 200
    }


def ladder_window_us(result: Dict[str, Any]) -> Tuple[float, float]:
    rungs = result["rungs"]
    return rungs[0].started * 1e6, rungs[-1].ended * 1e6
