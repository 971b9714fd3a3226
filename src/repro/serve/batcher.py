"""Micro-batching: many concurrent requests, one kernel call.

Requests arriving within one batching window are grouped by
``(algorithm, n, sampler, lam)`` and each group is answered by a single
stacked ``(sum(trials), N-1)`` draw-matrix kernel call.  Row ``i`` of a
request's slice is drawn from the per-trial generator
``_trial_factory(algorithm, n, seed).generator_for(i)`` -- exactly what
:func:`repro.experiments.stochastic.trial_ratios` uses -- so a request's
ratios are bit-identical no matter which requests it shared a batch
with, which faults fired, or whether the degraded path served it.

Dispatch goes through the supervised executor
(:func:`repro.experiments.checkpoint.execute_chunks`): SIGKILLed kernel
workers rebuild the pool, failed attempts retry with backoff, hopeless
groups quarantine (``strict=False``) and only their requests fail.  The
engine wires two service-level behaviours on top:

* **circuit breaker** -- repeated dispatch failures trip the native
  kernel + worker-pool path; while open, batches are computed inline on
  the NumPy reference kernels (slower, identical results, nothing left
  to kill).  A half-open probe restores the native path.
* **deadline propagation** -- the tightest per-request deadline in a
  batch bounds the kernel attempt runtime inside ``execute_chunks``
  (the server's ``asyncio`` wait is the backstop that actually emits
  the 504).

The kernel worker (:func:`_compute_rows`) is module-level and its task
dicts hold only primitives, frozen samplers and arrays, so process
pools can pickle them.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.chaos import ChaosSpec, RunReport
from repro.core.batch import (
    HEAP_MIN_N,
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.experiments.checkpoint import execute_chunks
from repro.experiments.stochastic import _trial_factory
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import PartitionRequest, response_payload
from repro.serve.report import ServeReport

__all__ = [
    "BatchEngine",
    "BatchFailedError",
    "MicroBatcher",
]


class BatchFailedError(RuntimeError):
    """The batch carrying this request was quarantined; maps to HTTP 500."""


def _fallback_method(algorithm: str, n: int) -> str:
    """The NumPy reference kernel for the degraded path."""
    if algorithm in ("hf", "phf"):
        return "frontier" if n < HEAP_MIN_N else "heap"
    return "frontier"


def _compute_rows(task: Dict[str, Any]) -> np.ndarray:
    """Pool worker: ratios for one stacked draw matrix (pure function)."""
    algorithm = task["algorithm"]
    n = task["n"]
    draws = task["draws"]
    method = task["method"]
    if algorithm in ("hf", "phf"):
        weights = hf_final_weights_batch(1.0, n, draws, method=method)
    elif algorithm == "ba":
        weights = ba_final_weights_batch(1.0, n, draws, method=method)
    else:
        weights = bahf_final_weights_batch(
            1.0, n, draws,
            alpha=task["alpha"], lam=task["lam"], method=method,
        )
    return weights.max(axis=1) * n


def request_draws(request: PartitionRequest) -> np.ndarray:
    """The ``(n_trials, N-1)`` draw matrix for one request.

    Identical to what a direct :func:`trial_ratios` call for the same
    ``(algorithm, n, sampler, seed, n_trials)`` consumes -- the anchor of
    the service's determinism guarantee.
    """
    factory = _trial_factory(request.algorithm, request.n, request.seed)
    rngs = [factory.generator_for(t) for t in range(request.n_trials)]
    return request.sampler.sample_trial_matrix(rngs, max(0, request.n - 1))


@dataclass
class _Pending:
    """One admitted request waiting for (or riding in) a batch."""

    request: PartitionRequest
    future: "asyncio.Future[Dict[str, Any]]"
    deadline_at: Optional[float]  # monotonic, None = no deadline


@dataclass
class _Slice:
    """Where one request's rows live in the dispatched task list."""

    item: _Pending
    task_idx: List[Tuple[int, int, int]]  # (task index, row start, row stop)


class BatchEngine:
    """Builds, dispatches and settles micro-batches."""

    def __init__(
        self,
        *,
        report: ServeReport,
        breaker: Optional[CircuitBreaker] = None,
        workers: int = 1,
        backend: str = "processes",
        retries: int = 3,
        chaos: Optional[ChaosSpec] = None,
        chaos_batches: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if chaos_batches < 0:
            raise ValueError(f"chaos_batches must be >= 0, got {chaos_batches}")
        self.report = report
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.workers = workers
        self.backend = backend
        self.retries = retries
        self.chaos = chaos
        self.chaos_batches = chaos_batches
        self._batch_seq = 0

    # -- batch construction --------------------------------------------

    def _build(
        self, items: Sequence[_Pending], *, native: bool
    ) -> Tuple[List[Dict[str, Any]], List[_Slice]]:
        """Group items and stack their draw matrices into worker tasks.

        ``native`` is the batch's one breaker decision: native tasks use
        the ``"auto"`` kernels, and a lone multi-row native task is halved
        so the supervised executor's pool path (which needs >= 2 pending
        chunks) engages; the kernels are row-independent, so the split is
        invisible in the results.  Degraded tasks use the NumPy reference
        kernels and run inline, unsplit.
        """
        groups: Dict[Tuple[Any, ...], List[_Pending]] = {}
        for item in items:
            groups.setdefault(item.request.group_key, []).append(item)
        tasks: List[Dict[str, Any]] = []
        slices: List[_Slice] = []
        for key, members in groups.items():
            algorithm, n, _sampler, lam = key
            draws = np.concatenate(
                [request_draws(m.request) for m in members], axis=0
            )
            method = "auto" if native else _fallback_method(algorithm, n)
            task = {
                "algorithm": algorithm,
                "n": n,
                "alpha": members[0].request.sampler.alpha,
                "lam": lam,
                "draws": draws,
                "method": method,
            }
            task_idx = len(tasks)
            tasks.append(task)
            row = 0
            for member in members:
                stop = row + member.request.n_trials
                slices.append(
                    _Slice(item=member, task_idx=[(task_idx, row, stop)])
                )
                row = stop
        if (
            native
            and self.workers > 1
            and len(tasks) == 1
            and tasks[0]["draws"].shape[0] >= 2
        ):
            whole = tasks[0]
            rows = whole["draws"].shape[0]
            cut = rows // 2
            lo = dict(whole, draws=whole["draws"][:cut])
            hi = dict(whole, draws=whole["draws"][cut:])
            tasks = [lo, hi]
            for sl in slices:
                _, start, stop = sl.task_idx[0]
                pieces: List[Tuple[int, int, int]] = []
                if start < cut:
                    pieces.append((0, start, min(stop, cut)))
                if stop > cut:
                    pieces.append((1, max(start, cut) - cut, stop - cut))
                sl.task_idx = pieces
        return tasks, slices

    # -- dispatch -------------------------------------------------------

    def _dispatch_blocking(
        self,
        tasks: List[Dict[str, Any]],
        keys: List[str],
        *,
        native: bool,
        timeout: Optional[float],
        chaos: Optional[ChaosSpec],
    ) -> Tuple[List[Optional[np.ndarray]], RunReport]:
        """Runs in a thread: the supervised (or inline degraded) dispatch."""
        rep = RunReport()
        results = execute_chunks(
            tasks,
            _compute_rows,
            keys=keys,
            n_jobs=self.workers if native else 1,
            timeout=timeout,
            retries=self.retries,
            backend=self.backend,
            chaos=chaos,
            report=rep,
            strict=False,
        )
        return results, rep

    def _batch_timeout(self, items: Sequence[_Pending]) -> Optional[float]:
        """Tightest remaining per-request budget, as a kernel-attempt bound."""
        deadlines = [i.deadline_at for i in items if i.deadline_at is not None]
        if not deadlines:
            return None
        remaining = min(deadlines) - time.monotonic()
        # leave headroom for the response path; never pass a non-positive
        # timeout (the asyncio backstop already expired such requests)
        return max(0.05, remaining * 0.8)

    async def run_batch(self, items: Sequence[_Pending]) -> None:
        """Answer every item: one settled future each, success or not."""
        try:
            await self._run_batch(items)
        except Exception as exc:  # engine bug: fail loudly, drop nothing
            self.report.note_error(f"{type(exc).__name__}: {exc}")
            for item in items:
                if not item.future.done():
                    item.future.set_exception(
                        BatchFailedError(f"batch engine error: {exc}")
                    )

    async def _run_batch(self, items: Sequence[_Pending]) -> None:
        self._batch_seq += 1
        batch_id = self._batch_seq
        native = self.breaker.allow_native()
        tasks, slices = self._build(items, native=native)
        keys = [f"b{batch_id}:{i}" for i in range(len(tasks))]
        chaos = None
        if self.chaos is not None and batch_id <= self.chaos_batches:
            chaos = self.chaos
            self.report.chaos_batches += 1
        timeout = self._batch_timeout(items)

        self.report.batches += 1
        self.report.batch_requests += len(items)
        self.report.batch_rows += sum(t["draws"].shape[0] for t in tasks)
        self.report.max_batch_requests = max(
            self.report.max_batch_requests, len(items)
        )

        try:
            results, rep = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: self._dispatch_blocking(
                    tasks, keys, native=native, timeout=timeout, chaos=chaos
                ),
            )
        except Exception as exc:
            self.report.note_error(f"{type(exc).__name__}: {exc}")
            if native:
                self._record_breaker(failed=True)
            for item in items:
                if not item.future.done():
                    item.future.set_exception(
                        BatchFailedError(f"batch dispatch failed: {exc}")
                    )
            return

        if native:
            self._record_breaker(failed=self._rep_failed(rep))
        self._merge_exec_report(rep)

        for sl in slices:
            item = sl.item
            if item.future.done():
                continue
            parts: List[np.ndarray] = []
            lost = False
            for task_idx, start, stop in sl.task_idx:
                chunk = results[task_idx]
                if chunk is None:
                    lost = True
                    break
                parts.append(chunk[start:stop])
            if lost:
                item.future.set_exception(
                    BatchFailedError(
                        "batch quarantined after exhausting retries"
                    )
                )
                continue
            ratios = parts[0] if len(parts) == 1 else np.concatenate(parts)
            item.future.set_result(
                response_payload(
                    item.request,
                    ratios,
                    degraded=not native,
                    batch_size=len(items),
                )
            )

    # -- breaker + accounting ------------------------------------------

    @staticmethod
    def _rep_failed(rep: RunReport) -> bool:
        return bool(rep.pool_rebuilds or rep.quarantined or rep.timeouts)

    def _record_breaker(self, *, failed: bool) -> None:
        before = self.breaker.trips
        if failed:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        self.report.breaker_trips = self.breaker.trips
        self.report.breaker_recoveries = self.breaker.recoveries
        if self.breaker.trips > before:
            self.report.note_error(
                "circuit breaker opened: serving degraded (NumPy, inline)"
            )

    def _merge_exec_report(self, rep: RunReport) -> None:
        self.report.worker_deaths += rep.pool_rebuilds
        self.report.exec_retries += rep.retries
        self.report.exec_timeouts += rep.timeouts
        if rep.quarantined:
            self.report.quarantined_batches += 1


class MicroBatcher:
    """Collects admitted requests into window-bounded batches."""

    def __init__(
        self,
        engine: BatchEngine,
        *,
        window_s: float = 0.002,
        max_requests: int = 64,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.engine = engine
        self.window_s = window_s
        self.max_requests = max_requests
        self._queue: List[_Pending] = []
        self._flusher: Optional["asyncio.Task[None]"] = None
        self._inflight: Set["asyncio.Task[None]"] = set()

    def submit(self, request: PartitionRequest) -> "asyncio.Future[Dict[str, Any]]":
        """Enqueue one request; the returned future settles exactly once."""
        loop = asyncio.get_running_loop()
        deadline_at = (
            time.monotonic() + request.deadline_s
            if request.deadline_s is not None
            else None
        )
        item = _Pending(
            request=request, future=loop.create_future(), deadline_at=deadline_at
        )
        self._queue.append(item)
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_after_window())
        return item.future

    async def _flush_after_window(self) -> None:
        if self.window_s > 0:
            await asyncio.sleep(self.window_s)
        loop = asyncio.get_running_loop()
        while self._queue:
            batch = self._queue[: self.max_requests]
            del self._queue[: len(batch)]
            task = loop.create_task(self.engine.run_batch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def drain(self) -> None:
        """Flush the queue and wait for every batch to finish."""
        while self._queue or self._inflight or (
            self._flusher is not None and not self._flusher.done()
        ):
            if self._flusher is not None and not self._flusher.done():
                await self._flusher
            if self._queue:
                # drain must not wait out the window; flush immediately
                window, self.window_s = self.window_s, 0.0
                try:
                    await self._flush_after_window()
                finally:
                    self.window_s = window
            if self._inflight:
                await asyncio.gather(
                    *list(self._inflight), return_exceptions=True
                )
