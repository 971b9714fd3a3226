"""The benchmark's open-loop HTTP load generator for ``repro.serve``.

Requests go out on a seeded Poisson schedule whatever the server does
(open loop), over at most ``nproc`` keep-alive connections.  A request
that is due while every connection is busy waits for one on the client
side, and that wait counts: latency runs from the request's *scheduled*
send time to the last byte of its response.  The generator also reports
how late it woke against the schedule (``lateness``) and how long due
requests waited for a connection (``conn_wait``), so a generator that
falls behind is visible instead of silently lowering the load.

The request mix is a frozen copy of the Zipf grid of the repository's
load generator, so later edits to that tool do not move this workload.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Frozen request grid (hot head first) and Zipf exponent.
ALPHAS = (0.3, 0.25, 0.4, 0.15)
N_VALUES = (32, 64, 128, 256)
ALGORITHMS = ("hf", "ba", "bahf")
ZIPF_S = 1.2
TRIALS_PER_REQUEST = 8

#: Offered rates of the ladder, run back to back (requests per second).
RATES = (100, 200, 400)


def request_grid() -> List[Dict[str, Any]]:
    return [
        {"alpha": alpha, "n": n, "algorithm": algo}
        for alpha in ALPHAS for n in N_VALUES for algo in ALGORITHMS
    ]


@dataclass(frozen=True)
class Scheduled:
    """One request of the schedule: when it is due and what it asks."""

    at_s: float  # offset from the rung's start
    body: Dict[str, Any]


def schedule(seed: int, rate: float, count: int, first_seed: int) -> List[Scheduled]:
    """``count`` Zipf-mix requests with Poisson(``rate``) arrivals.

    Request seeds are ``first_seed, first_seed + 1, ...`` -- distinct per
    request, so no two requests share draws.
    """
    rng = np.random.default_rng([seed, int(rate), count])
    gaps = rng.exponential(1.0 / rate, size=count)
    times = np.cumsum(gaps) - gaps[0]
    grid = request_grid()
    probs = np.arange(1, len(grid) + 1, dtype=np.float64) ** -ZIPF_S
    probs /= probs.sum()
    picks = rng.choice(len(grid), size=count, p=probs)
    out = []
    for i, (at, pick) in enumerate(zip(times, picks)):
        cell = grid[int(pick)]
        out.append(
            Scheduled(
                at_s=float(at),
                body={
                    "algorithm": cell["algorithm"],
                    "n": cell["n"],
                    "alpha": cell["alpha"],
                    "trials": TRIALS_PER_REQUEST,
                    "seed": first_seed + i,
                },
            )
        )
    return out


@dataclass
class Outcome:
    """What happened to one scheduled request (times in seconds,
    ``time.perf_counter`` clock)."""

    body: Dict[str, Any]
    due: float
    woke: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0 = no response
    payload: Optional[Dict[str, Any]] = None
    backlog: int = 0  # due but unfinished requests when this one was due


@dataclass
class RungResult:
    rate: float
    outcomes: List[Outcome] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


def _request_bytes(host: str, method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive HTTP/1.1 connection (one request at a time)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def call(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        assert self.reader is not None and self.writer is not None
        self.writer.write(_request_bytes(self.host, method, path, body))
        await self.writer.drain()
        return await _read_response(self.reader)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _run_rung(
    pool: "asyncio.Queue[Connection]",
    rate: float,
    plan: Sequence[Scheduled],
) -> RungResult:
    result = RungResult(rate=rate)
    loop_start = time.perf_counter() + 0.01
    result.started = loop_start
    unfinished = 0
    tasks: List["asyncio.Task[None]"] = []

    async def send(out: Outcome) -> None:
        nonlocal unfinished
        conn = await pool.get()  # FIFO: due requests queue for a connection
        out.sent = time.perf_counter()
        try:
            status, raw = await conn.call(
                "POST", "/v1/partition", json.dumps(out.body).encode()
            )
            out.done = time.perf_counter()
            out.status = status
            if status == 200:
                out.payload = json.loads(raw)
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
            out.status = 0  # no response: replace the connection if possible
            await conn.close()
            try:
                conn = await Connection(conn.host, conn.port).open()
            except OSError:
                pass  # later calls on the dead one fail fast, never hang
        finally:
            pool.put_nowait(conn)
            out.done = out.done or time.perf_counter()
            unfinished -= 1

    for item in plan:
        due = loop_start + item.at_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        out = Outcome(body=item.body, due=due, woke=time.perf_counter())
        unfinished += 1
        out.backlog = unfinished
        tasks.append(asyncio.ensure_future(send(out)))
        result.outcomes.append(out)
    await asyncio.gather(*tasks)
    result.ended = time.perf_counter()
    return result


async def run_ladder(
    host: str,
    port: int,
    plans: Sequence[Tuple[float, Sequence[Scheduled]]],
    connections: int,
) -> List[RungResult]:
    """Run every ``(rate, schedule)`` rung back to back on shared connections."""
    conns = [await Connection(host, port).open() for _ in range(connections)]
    pool: "asyncio.Queue[Connection]" = asyncio.Queue()
    for conn in conns:
        pool.put_nowait(conn)
    try:
        return [await _run_rung(pool, rate, plan) for rate, plan in plans]
    finally:
        for conn in conns:
            await conn.close()


async def closed_loop(host: str, port: int, bodies: Sequence[Dict[str, Any]],
                      connections: int) -> List[int]:
    """Send ``bodies`` as fast as the connections allow; return statuses."""
    statuses: List[int] = []
    queue = list(bodies)

    async def drive() -> None:
        conn = await Connection(host, port).open()
        try:
            while queue:
                status, _ = await conn.call(
                    "POST", "/v1/partition", json.dumps(queue.pop()).encode()
                )
                statuses.append(status)
        finally:
            await conn.close()

    await asyncio.gather(*(drive() for _ in range(connections)))
    return statuses


async def get_status(host: str, port: int, path: str) -> int:
    conn = await Connection(host, port).open()
    try:
        status, _ = await conn.call("GET", path)
        return status
    finally:
        await conn.close()


# ----------------------------------------------------------------------
# rung statistics
# ----------------------------------------------------------------------


def backlog_growing(outcomes: Sequence[Outcome]) -> bool:
    """True when the client-side backlog ends a rung far above where it
    started: the mean over the last quarter of the schedule exceeds the
    first quarter's by more than its own size and by more than 10."""
    if len(outcomes) < 8:
        return False
    q = len(outcomes) // 4
    first = sum(o.backlog for o in outcomes[:q]) / q
    last = sum(o.backlog for o in outcomes[-q:]) / q
    return last - first > max(10.0, first)
