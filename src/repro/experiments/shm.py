"""Shared-memory draw-matrix blocks (publish / attach / release).

Nothing in the package calls these helpers: every chunk of the chunked
runners samples its own rows, which measured faster and far smaller
than publishing each cell's draw matrix from the parent.  The module
stays, with lint rule R010 and its unit tests, because the benchmark's
tracer (``perfbench/spans.py``) still imports it; it is deleted once
that import is dropped.

This module is the **only** place in the repository allowed to touch
``multiprocessing.shared_memory`` (lint rule R010 enforces this): the
segment lifecycle -- create, attach, untrack, close, unlink -- is easy
to leak from call sites, so it stays centralized here.

* The *parent* pairs every :func:`publish_draws` with
  :func:`release_draws` (in a ``finally``); if the parent dies anyway,
  its ``resource_tracker`` unlinks the segment at interpreter exit.
* *Workers* attach via :func:`attached_draws`, which caches the mapping
  per process (one attach per cell, not per chunk); an ``atexit`` hook
  closes all cached mappings.  Pool workers share the parent's resource
  tracker, so their duplicate attach-registrations are set no-ops.
"""

from __future__ import annotations

import atexit
import itertools
import os
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "DrawSpec",
    "attached_draws",
    "publish_draws",
    "release_draws",
]

#: ``(segment name, rows, cols)`` -- everything a worker needs to map a
#: published float64 draw matrix.  Picklable.
DrawSpec = Tuple[str, int, int]

_counter = itertools.count()

#: Per-process cache of attached segments: name -> (array, block).  The
#: array is listed first so the mapping it borrows outlives any view
#: handed out; entries live until :func:`_detach_all` at exit.
_ATTACHED: Dict[str, Tuple[np.ndarray, shared_memory.SharedMemory]] = {}


def publish_draws(
    draws: np.ndarray,
) -> Optional[Tuple[shared_memory.SharedMemory, DrawSpec]]:
    """Copy a 2-D float64 draw matrix into a fresh shared-memory block.

    Returns ``(block, spec)``; the caller owns ``block`` and must pass
    it to :func:`release_draws` when the run is over.  Returns ``None``
    when publishing is impossible (zero-size matrix, or the platform
    refuses the allocation) -- callers then simply skip the shared path.
    """
    mat = np.ascontiguousarray(draws, dtype=np.float64)
    if mat.ndim != 2 or mat.nbytes == 0:
        return None
    block = None
    for _ in range(64):
        name = f"repro_draws_{os.getpid()}_{next(_counter)}"
        try:
            block = shared_memory.SharedMemory(
                name=name, create=True, size=mat.nbytes
            )
            break
        except FileExistsError:
            continue
        except OSError:
            return None
    if block is None:
        return None
    view = np.ndarray(mat.shape, dtype=np.float64, buffer=block.buf)
    view[:] = mat
    del view
    return block, (name, int(mat.shape[0]), int(mat.shape[1]))


def attached_draws(spec: DrawSpec) -> Optional[np.ndarray]:
    """Map a published draw matrix (worker side); ``None`` on failure.

    The returned array is a read-only zero-copy view; the mapping is
    cached per process and closed at interpreter exit, so repeated
    chunks of the same cell attach once.  Any :class:`OSError` (segment
    already unlinked, platform without shared memory) yields ``None``
    and the caller falls back to sampling its own rows.
    """
    name, rows, cols = spec
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[0]
    try:
        block = shared_memory.SharedMemory(name=name)
    except OSError:
        return None
    # Attaching re-registers the segment with the resource tracker on
    # POSIX.  Pool workers share the parent's tracker process, so the
    # duplicate registration is a set no-op -- and must NOT be
    # unregistered here, or the parent's own leak protection (and its
    # eventual unlink bookkeeping) would be silently removed.
    arr = np.ndarray((rows, cols), dtype=np.float64, buffer=block.buf)
    arr.flags.writeable = False
    # The attach cache is deliberately process-local mutable state: it
    # memoizes a read-only mapping keyed by the task's DrawSpec, so the
    # worker's result is still a pure function of its task tuple.
    _ATTACHED[name] = (arr, block)  # repro-lint: disable=R104
    return arr


def release_draws(block: shared_memory.SharedMemory) -> None:
    """Close and unlink a block returned by :func:`publish_draws`.

    Idempotent in practice: an already-unlinked segment (e.g. a crashed
    run's resource tracker beat us to it) is not an error.
    """
    try:
        block.close()
    except BufferError:  # pragma: no cover - exported views still alive
        pass
    try:
        block.unlink()
    except FileNotFoundError:
        pass


def _detach_all() -> None:  # pragma: no cover - exercised at interpreter exit
    while _ATTACHED:
        _, (arr, block) = _ATTACHED.popitem()
        del arr
        try:
            block.close()
        except BufferError:
            pass


atexit.register(_detach_all)
