"""Sweep runner: algorithms × processor counts → summary records.

A *sweep* evaluates a :class:`~repro.experiments.config.StochasticConfig`
and produces one :class:`SweepRecord` per (algorithm, N) cell: observed
min/avg/max/variance plus the worst-case upper bound computed from the
theorems at the sampler's guaranteed α -- exactly the rows of the paper's
Table 1.

Scheduling is *trial-chunked*: every cell's ``n_trials`` are split into
``config.effective_chunk_size``-sized chunks and each chunk is one work
unit for the ``concurrent.futures.ProcessPoolExecutor``.  Whole-cell
granularity (the previous design) let a single heavy N = 2^16 cell
straggle an entire sweep -- an ironic load imbalance for a load-balancing
repo; chunking bounds the largest work unit.  Because trial ``t`` derives
its generator from ``(seed, algorithm, N, t)``, a chunk computes exactly
the values the serial pass would, and because the chunk layout and the
merge order are functions of the config alone (never of ``n_jobs``), the
resulting records are bit-identical for any worker count.

Workers reduce their chunk to a :class:`~repro.core.metrics.RatioAccumulator`
(a few floats) instead of shipping per-trial ratio arrays, so paper-scale
sweeps never materialise every ratio array in the parent.  Every chunk
samples exactly its own rows, on every backend: nothing is sampled in
the parent.

``backend="threads"`` swaps the process pool for an in-process thread
pool: chunk workers call the native kernels through ctypes (which
releases the GIL), so no pickling is needed.  The chunk layout, seeds,
and merge order are identical, so the records are bit-identical to
``backend="processes"`` and to serial, and journals are interchangeable
between backends.

The chunk plumbing (layout, journal keys and lifecycle, the executor,
per-cell regrouping) is one private engine, :func:`_run_chunked`, shared
with the study and fault-study drivers; each driver keeps only its
fingerprint, payload codec and reduction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import bound_for
from repro.core.metrics import RatioAccumulator, RatioSample
from repro.experiments.checkpoint import ChunkJournal, execute_chunks
from repro.experiments.config import (
    DEFAULT_CHUNK_RETRIES,
    StochasticConfig,
    normalize_backend,
)
from repro.experiments.stochastic import trial_ratios
from repro.problems.samplers import AlphaSampler

__all__ = [
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "chunk_bounds",
    "sweep_fingerprint",
]


@dataclass(frozen=True)
class SweepRecord:
    """One (algorithm, N) cell of a sweep."""

    algorithm: str
    n_processors: int
    sampler_label: str
    lam: float
    sample: RatioSample
    upper_bound: float

    def as_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "n": self.n_processors,
            "sampler": self.sampler_label,
            "lambda": self.lam,
            "ub": self.upper_bound,
        }
        d.update(self.sample.as_dict())
        return d


@dataclass(frozen=True)
class SweepResult:
    """All records of a sweep plus the config that produced them."""

    config: StochasticConfig
    records: Tuple[SweepRecord, ...]

    def __post_init__(self) -> None:
        # O(1) cell lookup; built once (frozen dataclass, so via
        # object.__setattr__).  Not a field: equality/repr ignore it.
        index = {(rec.algorithm, rec.n_processors): rec for rec in self.records}
        object.__setattr__(self, "_index", index)

    def get(self, algorithm: str, n: int) -> SweepRecord:
        try:
            return self._index[(algorithm, n)]
        except KeyError:
            cells = ", ".join(
                f"({rec.algorithm}, {rec.n_processors})" for rec in self.records
            )
            raise KeyError(
                f"no record for ({algorithm!r}, {n}); available cells: {cells or 'none'}"
            ) from None

    def series(self, algorithm: str, field: str = "mean") -> List[Tuple[int, float]]:
        """``(N, value)`` pairs for one algorithm, ascending N.

        ``field`` is an attribute of :class:`RatioSample` ("mean",
        "minimum", "maximum", "variance", "std") or "upper_bound".
        """
        out = []
        for rec in sorted(self.records, key=lambda r: r.n_processors):
            if rec.algorithm != algorithm:
                continue
            if field == "upper_bound":
                out.append((rec.n_processors, rec.upper_bound))
            else:
                out.append((rec.n_processors, getattr(rec.sample, field)))
        return out

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for rec in self.records:
            if rec.algorithm not in seen:
                seen.append(rec.algorithm)
        return seen


def chunk_bounds(n_trials: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Half-open trial ranges covering ``range(n_trials)`` in order."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, n_trials))
        for start in range(0, n_trials, chunk_size)
    ]


def _run_chunked(
    cells: Sequence[Tuple[str, Any]],
    chunks: Sequence[Tuple[int, int]],
    make_task: Callable[[Any, int, int], Any],
    worker: Callable[[Any], Any],
    *,
    fingerprint: Dict[str, Any],
    journal_path: Optional["str | os.PathLike[str]"],
    resume: bool,
    chunk_retries: Optional[int],
    **execute: Any,
) -> List[List[Any]]:
    """The chunk engine behind every trial-chunked driver.

    Chunk ``[start, stop)`` of each ``(label, cell)`` runs
    ``worker(make_task(cell, start, stop))`` under the journal key
    ``"<label>:<start>"``; ``execute`` is forwarded to
    :func:`~repro.experiments.checkpoint.execute_chunks`.  Returns each
    cell's chunk results in chunk-start order (a function of the cells
    and chunks alone, so any reduction over it is bit-identical for
    every worker count), without quarantined chunks (``strict=False``).
    """
    keys = [f"{label}:{start}" for label, _ in cells for start, _ in chunks]
    tasks = [
        make_task(cell, start, stop)
        for _, cell in cells
        for start, stop in chunks
    ]
    journal = (
        ChunkJournal.open(journal_path, fingerprint=fingerprint, resume=resume)
        if journal_path is not None
        else None
    )
    try:
        raw = execute_chunks(
            tasks,
            worker,
            keys=keys,
            journal=journal,
            retries=DEFAULT_CHUNK_RETRIES if chunk_retries is None else chunk_retries,
            **execute,
        )
    finally:
        if journal is not None:
            journal.close()
    per = len(chunks)
    return [
        [result for result in raw[i * per : (i + 1) * per] if result is not None]
        for i in range(len(cells))
    ]


def _encode_matrix_chunk(result: Tuple[int, np.ndarray]) -> Dict[str, Any]:
    start, matrix = result
    # JSON float repr round-trips exactly, so the matrix payload is a
    # bit-exact serialisation.
    return {"start": start, "matrix": matrix.tolist()}


def _decode_matrix_chunk(payload: Dict[str, Any]) -> Tuple[int, np.ndarray]:
    return int(payload["start"]), np.asarray(payload["matrix"], dtype=np.float64)


def _run_matrix_cells(
    cells: Sequence[Tuple[str, Any]],
    chunks: Sequence[Tuple[int, int]],
    make_task: Callable[[Any, int, int], Any],
    worker: Callable[[Any], Tuple[int, np.ndarray]],
    **engine: Any,
) -> List[np.ndarray]:
    """:func:`_run_chunked` for workers returning ``(start, matrix)``:
    one shared journal codec, one concatenated matrix per cell."""
    per_cell = _run_chunked(
        cells,
        chunks,
        make_task,
        worker,
        encode=_encode_matrix_chunk,
        decode=_decode_matrix_chunk,
        **engine,
    )
    return [
        np.concatenate([matrix for _, matrix in parts], axis=0)
        for parts in per_cell
    ]


def _run_chunk(
    args: Tuple[str, int, AlphaSampler, int, int, int, float, Optional[int]]
) -> Tuple[str, int, int, RatioAccumulator]:
    """Worker: one trial chunk of one (algorithm, N) cell (picklable).

    ``n_threads`` caps the native kernels' in-kernel threading (pool
    runs pin it to 1 so worker-level and kernel-level parallelism don't
    multiply).  Returns the chunk's summary accumulator, not its ratio
    array, so the parent's memory stays O(cells x chunks) regardless of
    n_trials.
    """
    algorithm, n, sampler, start, stop, seed, lam, n_threads = args
    ratios = trial_ratios(
        algorithm,
        n,
        sampler,
        n_trials=stop - start,
        seed=seed,
        lam=lam,
        start=start,
        n_threads=n_threads,
    )
    return algorithm, n, start, RatioAccumulator().update(ratios)


def sweep_fingerprint(config: StochasticConfig) -> Dict[str, Any]:
    """Journal fingerprint: every config field that shapes chunk contents.

    ``n_jobs`` is deliberately absent -- the chunk layout and merge order
    never depend on it, so resuming a journal on a different worker
    count is legal and bit-exact.
    """
    return {
        "kind": "sweep",
        "sampler": config.sampler.describe(),
        "n_values": list(config.n_values),
        "algorithms": list(config.algorithms),
        "lam": config.lam,
        "n_trials": config.n_trials,
        "seed": config.seed,
        "chunk_size": config.effective_chunk_size,
    }


def _encode_sweep_chunk(result: Tuple[str, int, int, RatioAccumulator]) -> Dict[str, Any]:
    algorithm, n, start, acc = result
    return {
        "algorithm": algorithm,
        "n": n,
        "start": start,
        "count": acc.count,
        "mean": acc.mean,
        "m2": acc.m2,
        "minimum": acc.minimum,
        "maximum": acc.maximum,
    }


def _decode_sweep_chunk(payload: Dict[str, Any]) -> Tuple[str, int, int, RatioAccumulator]:
    acc = RatioAccumulator(
        count=int(payload["count"]),
        mean=float(payload["mean"]),
        m2=float(payload["m2"]),
        minimum=float(payload["minimum"]),
        maximum=float(payload["maximum"]),
    )
    return payload["algorithm"], int(payload["n"]), int(payload["start"]), acc


def run_sweep(
    config: StochasticConfig,
    *,
    backend: str = "processes",
    journal_path: Optional["str | os.PathLike[str]"] = None,
    resume: bool = False,
    chunk_timeout: Optional[float] = None,
    chunk_retries: Optional[int] = None,
    chaos: Optional[Any] = None,
    report: Optional[Any] = None,
    strict: bool = True,
    run_deadline: Optional[float] = None,
    cancel_on_sigterm: bool = False,
) -> SweepResult:
    """Evaluate every (algorithm, N) cell of ``config``.

    ``backend`` selects how parallel chunks execute when
    ``config.n_jobs > 1``: ``"processes"`` (the default process pool)
    or ``"threads"`` (a GIL-free thread pool over the native kernels --
    no pickling; see :data:`~repro.experiments.config.BACKENDS`).
    Records are bit-identical across backends and worker counts.

    ``journal_path`` enables crash-safe execution: each completed trial
    chunk is durably appended to a JSONL journal, and ``resume=True``
    replays completed chunks from an existing journal instead of
    recomputing them -- bit-identically, for any ``n_jobs`` *and either
    backend* (the fingerprint covers neither -- see
    :mod:`repro.experiments.checkpoint`).  ``chunk_timeout`` bounds one
    chunk's *runtime*, measured from the chunk's observed start; a
    timed-out, crashed, or raising chunk is retried -- with exponential
    backoff and a bounded pool-rebuild budget -- up to ``chunk_retries``
    times (default
    :data:`~repro.experiments.config.DEFAULT_CHUNK_RETRIES`), then
    quarantined.  With ``strict=True`` (default) quarantined chunks
    raise :class:`~repro.experiments.checkpoint.ChunkQuarantinedError`
    after everything else completed; with ``strict=False`` the sweep's
    records simply omit their trials.

    ``chaos`` (a :class:`~repro.chaos.ChaosSpec` or materialised
    :class:`~repro.chaos.ChaosPlan`) injects a deterministic fault
    schedule; ``report`` (a caller-supplied
    :class:`~repro.chaos.RunReport`) receives per-run accounting;
    ``run_deadline`` / ``cancel_on_sigterm`` cancel gracefully after
    flushing completed chunks to the journal (see
    :func:`~repro.experiments.checkpoint.execute_chunks`).
    """
    backend = normalize_backend(backend)
    cells = [
        (algo, n) for algo in config.algorithms for n in config.n_values
    ]
    # Pool runs pin the kernels to one thread per chunk worker (worker- and
    # kernel-level parallelism must not multiply); serial runs let the
    # kernels thread internally (REPRO_NATIVE_THREADS / auto).
    task_threads = 1 if config.n_jobs > 1 else None
    per_cell = _run_chunked(
        [(f"{algo}:{n}", (algo, n)) for algo, n in cells],
        chunk_bounds(config.n_trials, config.effective_chunk_size),
        lambda cell, start, stop: (
            *cell,
            config.sampler,
            start,
            stop,
            config.seed,
            config.lam,
            task_threads,
        ),
        _run_chunk,
        fingerprint=sweep_fingerprint(config),
        journal_path=journal_path,
        resume=resume,
        chunk_retries=chunk_retries,
        n_jobs=config.n_jobs,
        encode=_encode_sweep_chunk,
        decode=_decode_sweep_chunk,
        timeout=chunk_timeout,
        backend=backend,
        chaos=chaos,
        report=report,
        strict=strict,
        run_deadline=run_deadline,
        cancel_on_sigterm=cancel_on_sigterm,
    )

    alpha = config.sampler.alpha
    records = []
    for (algorithm, n), parts in zip(cells, per_cell):
        # Merge chunk accumulators in chunk-start order: the merge tree
        # is a function of the config alone, so statistics are
        # bit-identical no matter how many workers computed the chunks.
        acc = RatioAccumulator()
        for *_, chunk_acc in parts:
            acc.merge(chunk_acc)
        records.append(
            SweepRecord(
                algorithm=algorithm,
                n_processors=n,
                sampler_label=config.sampler.describe(),
                lam=config.lam,
                sample=acc.finalize(),
                upper_bound=bound_for(algorithm, alpha, n, config.lam),
            )
        )
    return SweepResult(config=config, records=tuple(records))
