"""The benchmark's own span recorder, wrapped around the program's layers.

Tracing happens entirely from the benchmark's files:
:func:`install_sweep` and :func:`install_serve` replace public functions
of the ``repro`` modules (module attributes and class attributes,
exactly where their callers look them up) with thin wrappers that record
one span per call.  Nothing under ``src`` changes, and an untraced run
never installs them.

A span is ``(name, start_ns, end_ns, span id, parent span id, attrs)``.
Times are ``time.perf_counter_ns`` -- ``CLOCK_MONOTONIC`` on Linux, one
clock for every process on the machine, so spans from pool workers and
the server line up with the benchmark's own.  On the serving path the
attrs carry the request id ``rid``, the request seed, which every span
of one request shares.  Spans stay in memory and are written when the
process ends, as Chrome trace-event JSON (``chrome://tracing``,
Perfetto).

Process pools fork after :func:`install`, so workers inherit the
wrappers; :meth:`Recorder.flush_forked_children` makes every forked
worker start with an empty span list and write its own
``spans-<pid>.json`` when it exits, which :func:`load_dir` merges.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

_perf_ns = time.perf_counter_ns

#: Parent span of whatever runs next in this thread / task.
_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=0
)

AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]

#: A call of a coalesced function that starts this soon after the previous
#: one ended (same name, same parent) extends that span instead of adding
#: one: per-trial generator setup runs tens of thousands of times per sweep.
COALESCE_GAP_NS = 10_000


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._out_dir: Optional[str] = None

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn: Callable, attrs: Optional[AttrFn] = None,
             coalesce: bool = False) -> Callable:
        """``fn`` with one span per call; ``attrs(args, kwargs, result)``
        returns the span's extra fields.  With ``coalesce``, back-to-back
        calls share one span whose ``rows`` field counts them."""
        spans = self.spans  # cleared in place, never rebound

        def close(token: "contextvars.Token[int]", sid: int, t0: int,
                  args: tuple, kwargs: dict, result: Any) -> None:
            t1 = _perf_ns()
            _CURRENT.reset(token)
            parent = _parent(token.old_value)
            if coalesce:
                last = spans[-1] if spans else None
                if (last is not None and last[0] == name and last[4] == parent
                        and t0 - last[2] < COALESCE_GAP_NS):
                    spans[-1] = (name, last[1], t1, last[3], parent,
                                 {"rows": last[5]["rows"] + 1})
                else:
                    spans.append((name, t0, t1, sid, parent, {"rows": 1}))
                return
            extra = attrs(args, kwargs, result) if attrs else None
            spans.append((name, t0, t1, sid, parent, extra))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                sid = next(self._ids)
                token = _CURRENT.set(sid)
                t0 = _perf_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    close(token, sid, t0, args, kwargs, result)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next(self._ids)
            token = _CURRENT.set(sid)
            t0 = _perf_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(token, sid, t0, args, kwargs, result)

        return traced

    def clear(self) -> None:
        self.spans.clear()

    # -- output -----------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """Chrome trace 'complete' events for this process's spans."""
        pid = os.getpid()
        tid = threading.get_ident() & 0xFFFF
        out = []
        for name, t0, t1, sid, parent, extra in list(self.spans):
            args: Dict[str, Any] = {"id": sid, "parent": parent}
            if extra:
                args.update(extra)
            out.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": t0 / 1000.0,
                    "dur": (t1 - t0) / 1000.0,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        return out

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.events(), fh)
        os.replace(tmp, path)

    def flush_forked_children(self, out_dir: str) -> None:
        """Every process forked from here records afresh and writes
        ``out_dir/spans-<pid>.json`` on a normal multiprocessing exit."""
        self._out_dir = out_dir
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        self.spans.clear()
        multiprocessing.util.Finalize(self, self._flush_child, exitpriority=100)

    def _flush_child(self) -> None:
        if self._out_dir is not None and self.spans:
            self.dump(os.path.join(self._out_dir, f"spans-{os.getpid()}.json"))


def _parent(value: Any) -> int:
    return value if isinstance(value, int) else 0


class TimedWorker:
    """Picklable chunk-worker wrapper: one ``checkpoint.chunk`` span per
    call, recorded in whichever process runs the chunk."""

    def __init__(self, recorder: Recorder, fn: Callable[[Any], Any]) -> None:
        self.recorder = recorder
        self.fn = fn

    def __reduce__(self) -> Any:
        # pool workers are forked after install(), so the module-level
        # recorder they inherit is the one to record into
        return (_timed_worker, (self.fn,))

    def __call__(self, task: Any) -> Any:
        t0 = _perf_ns()
        try:
            return self.fn(task)
        finally:
            self.recorder.spans.append(
                ("checkpoint.chunk", t0, _perf_ns(), 0, 0, {"worker": os.getpid()})
            )


def _timed_worker(fn: Callable[[Any], Any]) -> TimedWorker:
    return TimedWorker(RECORDER, fn)


#: The one recorder of this process (forked workers inherit it).
RECORDER = Recorder()


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------


def _patch(owner: Any, attr: str, name: str, attrs: Optional[AttrFn] = None,
           coalesce: bool = False) -> None:
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(RECORDER.wrap(name, raw.__func__, attrs)))
    else:
        setattr(owner, attr, RECORDER.wrap(name, raw, attrs, coalesce))


def _rows_cols(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
    rngs = args[1] if len(args) > 1 else kwargs["rngs"]
    cols = args[2] if len(args) > 2 else kwargs["n_draws"]
    return {"rows": len(rngs), "cols": int(cols)}


def _kernel(algorithm: str) -> AttrFn:
    def attrs(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
        draws = args[2] if len(args) > 2 else kwargs["alpha_draws"]
        n = args[1] if len(args) > 1 else kwargs["n_processors"]
        return {"algorithm": algorithm, "rows": int(draws.shape[0]), "n": int(n)}

    return attrs


def _nbytes(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
    draws = args[0] if args else kwargs["draws"]
    return {"bytes": int(draws.nbytes)}


def _install_common() -> None:
    from repro.core import metrics
    from repro.problems.samplers import AlphaSampler
    from repro.utils.rng import SeedSequenceFactory

    _patch(SeedSequenceFactory, "generator_for", "rng.generator_for", coalesce=True)
    _patch(AlphaSampler, "sample_trial_matrix", "samplers.sample_trial_matrix", _rows_cols)
    for attr in ("update", "merge", "finalize"):
        _patch(metrics.RatioAccumulator, attr, f"metrics.{attr}")


def _install_kernels(module: Any) -> None:
    for algorithm in ("hf", "ba", "bahf"):
        attr = f"{algorithm}_final_weights_batch"
        _patch(module, attr, f"batch.{algorithm}", _kernel(algorithm))


def _wrap_execute_chunks(module: Any, name: str) -> None:
    """Span around ``execute_chunks`` and around every chunk it runs."""
    inner = RECORDER.wrap(name, module.execute_chunks)

    def execute_chunks(tasks: Sequence[Any], worker: Callable, **kwargs: Any) -> Any:
        return inner(tasks, TimedWorker(RECORDER, worker), **kwargs)

    module.execute_chunks = execute_chunks


def install_sweep(span_dir: str) -> None:
    """Wrap every layer the sweep pipeline crosses."""
    from repro.experiments import checkpoint, runner, shm, stochastic

    _install_common()
    _install_kernels(stochastic)
    _patch(runner, "run_sweep", "runner.run_sweep")
    _patch(shm, "publish_draws", "shm.publish_draws", _nbytes)
    _patch(checkpoint.ChunkJournal, "record", "checkpoint.journal_record")
    _wrap_execute_chunks(runner, "checkpoint.execute_chunks")
    RECORDER.flush_forked_children(span_dir)


def install_serve() -> None:
    """Wrap every layer the serving pipeline crosses."""
    from repro.serve import admission, batcher, protocol

    def parsed(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, Any]:
        return {"rid": result.seed} if result is not None else {}

    def by_request(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
        request = args[0] if args else kwargs["request"]
        return {"rid": request.seed, "rows": request.n_trials}

    def submitted(args: tuple, _kwargs: dict, _result: Any) -> Dict[str, Any]:
        return {"rid": args[1].seed}

    def batch_members(args: tuple, _kwargs: dict, _result: Any) -> Dict[str, Any]:
        return {"rids": [item.request.seed for item in args[1]]}

    def decision(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, Any]:
        return {"admitted": bool(result is not None and result.admitted)}

    _install_common()
    _install_kernels(batcher)
    _patch(protocol, "summarize_ratios", "metrics.summarize_ratios")
    _patch(protocol.PartitionRequest, "parse", "protocol.parse", parsed)
    _patch(batcher, "response_payload", "protocol.response_payload", by_request)
    _patch(admission.AdmissionController, "try_admit", "admission.try_admit", decision)
    _patch(batcher.MicroBatcher, "submit", "batcher.submit", submitted)
    _patch(batcher.BatchEngine, "run_batch", "batcher.run_batch", batch_members)
    _patch(batcher, "request_draws", "batcher.request_draws", by_request)
    _wrap_execute_chunks(batcher, "batcher.dispatch")


# ----------------------------------------------------------------------
# reading traces back
# ----------------------------------------------------------------------


def load_dir(span_dir: str) -> List[Dict[str, Any]]:
    """Every event written by forked workers into ``span_dir``."""
    events: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(span_dir, name)) as fh:
                events.extend(json.load(fh))
    return events


def write_chrome_trace(path: str, events: List[Dict[str, Any]], meta: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"traceEvents": events, "otherData": meta}, fh)
    os.replace(tmp, path)
