"""Partitioning-as-a-service: a fault-tolerant asyncio serving layer.

The repo's batch experiments answer "how good are the paper's
algorithms over a whole grid"; this package answers single partition
queries interactively, while staying inside the repo's two core
disciplines -- bit-reproducible results (a response is a pure function
of ``(algorithm, n, sampler, lam, seed, trials)``) and no silently
dropped work (every request reaches exactly one terminal outcome,
proven by :attr:`~repro.serve.report.ServeReport.accounted`).

Layers, bottom up:

* :mod:`repro.serve.protocol` -- request validation and response bodies;
* :mod:`repro.serve.batcher` -- micro-batching into stacked draw-matrix
  kernel calls, dispatched through the supervised executor behind a
  circuit breaker;
* :mod:`repro.serve.admission` -- bounded in-flight queue + p99-based
  load shedding (HTTP 429);
* :mod:`repro.serve.breaker` -- the native-path circuit breaker;
* :mod:`repro.serve.report` -- terminal-outcome accounting;
* :mod:`repro.serve.server` -- the HTTP/1.1 front end, graceful drain,
  and the ``repro-serve`` CLI.

See ``docs/serving.md`` for the protocol and failure-mode semantics.
"""

from repro.serve.admission import AdmissionController, LatencyWindow
from repro.serve.batcher import BatchEngine, BatchFailedError, MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import PartitionRequest, ProtocolError
from repro.serve.report import ServeReport
from repro.serve.server import PartitionServer, ServeConfig, main

__all__ = [
    "AdmissionController",
    "BatchEngine",
    "BatchFailedError",
    "CircuitBreaker",
    "LatencyWindow",
    "MicroBatcher",
    "PartitionRequest",
    "PartitionServer",
    "ProtocolError",
    "ServeConfig",
    "ServeReport",
    "main",
]
