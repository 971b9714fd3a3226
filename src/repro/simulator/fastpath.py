"""Closed-form, NumPy-batched evaluation of the machine-model metrics.

The discrete-event simulations in :mod:`repro.simulator` replay every
bisection, send and collective as a Python callback on a heap -- faithful
but slow: one N = 2^16 trial schedules hundreds of thousands of events.
This module computes, for a whole ``(n_trials, N-1)`` draw matrix (the
batched-sampler convention of :mod:`repro.core.batch`), exactly the
numbers the DES would report -- makespan, message / control-message /
collective counts, collective time, utilisation and achieved ratio --
derived from the bisection-tree structure instead of event replay:

* **HF** -- a sequential chain on ``P_1``: ``N-1`` bisections then
  ``N-1`` sends.  Timing is trial-independent (one scalar chain per
  call); the ratio comes from ``hf_final_weights_batch``.
* **BA / BA-HF** -- a level-order frontier sweep (the
  :func:`~repro.core.batch.ba_final_weights_batch` layout) carrying each
  node's start time: both children of a node starting at ``s`` start at
  ``(s + t_bisect) + send_cost`` (the DES serialises the keeper behind
  the send).  BA-HF hands sub-threshold nodes to vectorised sequential
  HF-job chains grouped by size.
* **PHF** (central phase 1) -- phase 1 proceeds in generation lockstep
  (every active piece bisects, acquires, ships in
  ``t_bisect + t_acquire + t_send``), phase 2 is the band-peeling round
  structure of Figure 2 evaluated on dense ``(n_trials, N)`` weight /
  processor arrays with the DES's exact ``(-weight, proc)`` band order.
  On the complete network the whole evaluation optionally runs in the
  compiled C kernel of :mod:`repro.core._native`; on a topology, sends
  are distance-dependent so the generations desynchronise, and a
  per-trial event replay (a ~50-line reduction of the DES's phase-1
  scheduler) reproduces the exact chronology instead.

Bit-exactness contract: every float the DES computes is reproduced by
elementwise operations in the same order with the same IEEE-754
semantics, so makespans, collective times and ratios match the oracle
*bit for bit* (see tests/test_fastpath.py).  The one caveat is
utilisation for BA / BA-HF / PHF: the DES sums per-processor work
accumulators, which equals ``(N-1)·t_bisect`` exactly whenever
``t_bisect`` is a dyadic rational (the default 1.0, and every config the
equivalence suite uses); for non-dyadic ``t_bisect`` the two summation
orders may differ in the last ulp.

The DES remains the oracle: problems from
:mod:`repro.problems.prescribed` make both sides evaluate the same
instance per trial.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import _native
from repro.core.batch import _as_draw_matrix, _split_level, hf_final_weights_batch
from repro.core.bounds import normalize_algorithm
from repro.core.phf import phf_threshold
from repro.core.bahf import bahf_threshold
from repro.core.problem import check_alpha
from repro.simulator.engine import SimulationError
from repro.simulator.machine import MachineConfig

__all__ = [
    "FastpathResult",
    "FastpathUnsupported",
    "fastpath_supported",
    "fastpath_hf",
    "fastpath_ba",
    "fastpath_bahf",
    "fastpath_phf",
    "fastpath_counters",
]


class FastpathUnsupported(ValueError):
    """The requested cell has no closed-form kernel (use the DES)."""


@dataclass(frozen=True)
class FastpathResult:
    """Per-trial machine metrics for one (algorithm, N, config) cell.

    Field names (and per-trial values) mirror
    :class:`~repro.simulator.trace.SimulationResult`; every array has
    shape ``(n_trials,)``.
    """

    algorithm: str
    n_processors: int
    parallel_time: np.ndarray
    n_messages: np.ndarray
    n_control_messages: np.ndarray
    n_collectives: np.ndarray
    collective_time: np.ndarray
    n_bisections: np.ndarray
    total_hops: np.ndarray
    utilization: np.ndarray
    ratio: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.parallel_time.shape[0]


def fastpath_supported(
    algorithm: str,
    config: Optional[MachineConfig] = None,
    *,
    phase1: str = "central",
) -> bool:
    """Whether :func:`fastpath_counters` can evaluate this cell.

    Unsupported: event recording (the fastpath produces no traces), and
    PHF with a non-central phase-1 strategy (the on-line acquisition
    chronology is then randomness-dependent).
    """
    key = normalize_algorithm(algorithm)
    config = config or MachineConfig()
    if config.record_events:
        return False
    if key == "phf":
        return phase1 == "central"
    return True


def _require_supported(
    algorithm: str, config: MachineConfig, *, phase1: str = "central"
) -> None:
    if not fastpath_supported(algorithm, config, phase1=phase1):
        raise FastpathUnsupported(
            f"no fastpath for algorithm={algorithm!r} with this machine "
            "config (record_events, or phf with non-central phase 1); "
            "use the DES engine"
        )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _chain_add(base: float, unit: float, k: int) -> float:
    """``k`` sequential ``+= unit`` additions (the DES accumulation order)."""
    t = base
    for _ in range(k):
        t = t + unit
    return t


def _edge_costs(config, topo, src, dst):
    """Per-edge (send cost, hop count), replicating ``Machine.send``."""
    if topo is None:
        m = np.broadcast_shapes(np.shape(src), np.shape(dst))
        cost = np.full(m, config.t_send, dtype=np.float64)
        hops = np.ones(m, dtype=np.int64)
        return cost, hops
    hops = topo.distance_array(src, dst)
    cost = config.t_send + config.t_hop * np.maximum(0, hops - 1)
    return cost, hops


def _utilization(n: int, work_total: float, makespan: np.ndarray) -> np.ndarray:
    """``sum(work) / (n · span)`` with the DES's ``span <= 0 -> 0`` guard."""
    out = np.zeros_like(makespan)
    pos = makespan > 0
    if pos.any():
        out[pos] = work_total / (n * makespan[pos])
    return out


def _const_int(n_trials: int, value: int) -> np.ndarray:
    return np.full(n_trials, value, dtype=np.int64)


# ----------------------------------------------------------------------
# HF
# ----------------------------------------------------------------------


def fastpath_hf(
    n_processors: int,
    alpha_draws,
    *,
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """Sequential HF: P_1 bisects ``N-1`` times, then ships pieces 2..N.

    ``n_threads`` shards the native ratio kernel's trials across
    in-kernel threads (bit-identical for every count).
    """
    config = config or MachineConfig()
    _require_supported("hf", config)
    n = n_processors
    draws = _as_draw_matrix(alpha_draws, max(0, n - 1))
    n_trials = draws.shape[0]
    w0 = float(initial_weight)
    topo = config.topology(n) if config.topology else None

    # Timing is trial-independent: one scalar chain, replayed in the
    # DES's accumulation order (bisections, then sends in dst order).
    t = _chain_add(0.0, config.t_bisect, n - 1)
    work_p1 = t  # work_time[0] accumulates the identical chain
    hops_total = 0
    if n > 1:
        srcs = np.ones(n - 1, dtype=np.int64)
        dsts = np.arange(2, n + 1, dtype=np.int64)
        costs, hops = _edge_costs(config, topo, srcs, dsts)
        hops_total = int(hops.sum())
        for c_val in costs.tolist():
            t = t + c_val
    makespan = t
    # sum(work_time) = 0 + work_p1 + 0 + ... (adding 0.0 is exact)
    util = work_p1 / (n * makespan) if makespan > 0 else 0.0

    weights = hf_final_weights_batch(w0, n, draws, n_threads=n_threads)
    ratio = weights.max(axis=1) / (w0 / n)
    return FastpathResult(
        algorithm="hf",
        n_processors=n,
        parallel_time=np.full(n_trials, makespan),
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=_const_int(n_trials, 0),
        n_collectives=_const_int(n_trials, 0),
        collective_time=np.zeros(n_trials),
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=_const_int(n_trials, hops_total),
        utilization=np.full(n_trials, util),
        ratio=ratio,
    )


# ----------------------------------------------------------------------
# BA and BA-HF (level-order frontier sweep)
# ----------------------------------------------------------------------


def _ba_like(
    n: int,
    draws: np.ndarray,
    config: MachineConfig,
    *,
    threshold: Optional[float],
    initial_weight: float,
    n_threads: Optional[int] = None,
):
    """Shared BA / BA-HF sweep.

    ``threshold=None``: plain BA (nodes stop at size 1).  Otherwise:
    nodes with ``size < threshold`` become sequential HF jobs.  Returns
    per-trial ``(makespan, max_weight, total_hops)``.
    """
    n_trials = draws.shape[0]
    topo = config.topology(n) if config.topology else None
    w0 = float(initial_weight)

    makespan = np.zeros(n_trials)
    maxw = np.zeros(n_trials)
    hops_acc = np.zeros(n_trials, dtype=np.int64)

    trial = np.arange(n_trials, dtype=np.intp)
    w = np.full(n_trials, w0)
    nn = np.full(n_trials, n, dtype=np.int64)
    start = np.ones(n_trials, dtype=np.int64)
    s = np.zeros(n_trials)
    off = np.zeros(n_trials, dtype=np.int64)

    job_t, job_w, job_n, job_start, job_s, job_off = [], [], [], [], [], []

    while trial.size:
        done = (nn == 1) if threshold is None else (nn < threshold)
        if done.any():
            job_t.append(trial[done])
            job_w.append(w[done])
            job_n.append(nn[done])
            job_start.append(start[done])
            job_s.append(s[done])
            job_off.append(off[done])
            act = ~done
            trial, w, nn, start, s, off = (
                trial[act], w[act], nn[act], start[act], s[act], off[act]
            )
        if not trial.size:
            break
        a = draws[trial, off]
        w1, w2, n1, n2, off1 = _split_level(w, nn, off, a)
        dst = start + n1
        cost, hop = _edge_costs(config, topo, start, dst)
        np.add.at(hops_acc, trial, hop)
        child_s = (s + config.t_bisect) + cost
        trial = np.concatenate([trial, trial])
        w = np.concatenate([w1, w2])
        nn = np.concatenate([n1, n2])
        start = np.concatenate([start, dst])
        s = np.concatenate([child_s, child_s])
        off = np.concatenate([off1, off + n1])

    if not job_t:  # zero-trial batch
        return makespan, maxw, hops_acc
    jt = np.concatenate(job_t)
    jw = np.concatenate(job_w)
    jn = np.concatenate(job_n)
    jstart = np.concatenate(job_start)
    js = np.concatenate(job_s)
    joff = np.concatenate(job_off)

    for k in np.unique(jn):
        k_int = int(k)
        sel = jn == k
        g_t, g_w, g_start = jt[sel], jw[sel], jstart[sel]
        clock = js[sel]  # fancy indexing copies; the chain below is private
        # (k-1) back-to-back bisections on the owning processor...
        for _ in range(k_int - 1):
            clock = clock + config.t_bisect
        # ...then (k-1) serial sends to start+1 .. start+k-1.
        for step in range(1, k_int):
            cost, hop = _edge_costs(config, topo, g_start, g_start + step)
            clock = clock + cost
            np.add.at(hops_acc, g_t, hop)
        np.maximum.at(makespan, g_t, clock)
        if k_int == 1:
            # Single-processor job: no draws consumed, final weight is the
            # job weight (hf_final_weights_batch(w, 1, ...) == w[:, None]).
            np.maximum.at(maxw, g_t, g_w)
            continue
        cols = joff[sel][:, None] + np.arange(k_int - 1)
        g_draws = draws[jt[sel][:, None], cols]
        weights = hf_final_weights_batch(
            g_w, k_int, g_draws, n_threads=n_threads
        )
        np.maximum.at(maxw, g_t, weights.max(axis=1))

    return makespan, maxw, hops_acc


def _ba_like_result(
    algorithm: str,
    n: int,
    draws: np.ndarray,
    config: MachineConfig,
    *,
    threshold: Optional[float],
    initial_weight: float,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    n_trials = draws.shape[0]
    w0 = float(initial_weight)
    makespan, maxw, hops_acc = _ba_like(
        n, draws, config,
        threshold=threshold, initial_weight=w0, n_threads=n_threads,
    )
    work_total = (n - 1) * config.t_bisect
    return FastpathResult(
        algorithm=algorithm,
        n_processors=n,
        parallel_time=makespan,
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=_const_int(n_trials, 0),
        n_collectives=_const_int(n_trials, 0),
        collective_time=np.zeros(n_trials),
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=hops_acc,
        utilization=_utilization(n, work_total, makespan),
        ratio=maxw / (w0 / n),
    )


def fastpath_ba(
    n_processors: int,
    alpha_draws,
    *,
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """BA: communication-free recursion, both children start after the send."""
    config = config or MachineConfig()
    _require_supported("ba", config)
    draws = _as_draw_matrix(alpha_draws, max(0, n_processors - 1))
    return _ba_like_result(
        "ba", n_processors, draws, config,
        threshold=None, initial_weight=initial_weight, n_threads=n_threads,
    )


def fastpath_bahf(
    n_processors: int,
    alpha_draws,
    *,
    alpha: float,
    lam: float = 1.0,
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """BA-HF: BA recursion down to ``λ/α + 1``, sequential HF jobs below."""
    config = config or MachineConfig()
    _require_supported("bahf", config)
    alpha = check_alpha(alpha)
    draws = _as_draw_matrix(alpha_draws, max(0, n_processors - 1))
    return _ba_like_result(
        "bahf", n_processors, draws, config,
        threshold=bahf_threshold(alpha, lam), initial_weight=initial_weight,
        n_threads=n_threads,
    )


# ----------------------------------------------------------------------
# PHF (central phase 1)
# ----------------------------------------------------------------------

_PHASE1_EXHAUSTED = (
    "phase 1 ran out of free processors: the declared alpha is "
    "not a valid guarantee for this problem class"
)


def _phf_topology(
    n: int,
    draws: np.ndarray,
    config: MachineConfig,
    *,
    alpha: float,
    keep: str,
    w0: float,
) -> FastpathResult:
    """PHF on a topology: per-trial event replay over the prescription.

    Distance-dependent sends desynchronise the phase-1 generations, so
    the lockstep sweep no longer times the run correctly -- but the
    *instance* stays lockstep: :func:`repro.problems.prescribed.phf_draw_tree`
    assigns draws to bisection-tree nodes in the machine-independent
    generation order, and the DES merely walks those cached children in
    event order.  Each trial therefore runs in two passes:

    1. **prescribe** -- rebuild the node weights exactly as
       ``phf_draw_tree`` does (lockstep phase 1, then band-peeling rounds
       with the prescription's own processor numbering for tie-breaks);
    2. **replay** -- re-run the event chronology of ``_phase1_central``
       for the timing: a ``(time, seq)`` heap pops pieces FIFO at equal
       times (ship child scheduled before keep child), every bisection
       acquires the next central id, and every send pays
       ``t_send + t_hop·(hops-1)``.  Phase 2 is the scalar band-peeling
       loop on the replay's processor numbering.

    All float chains follow the DES's association exactly (see the
    module bit-exactness contract).
    """
    topo = config.topology(n)
    threshold = phf_threshold(w0, alpha, n)
    c = config.collective_cost(n)
    t_b, t_a, t_s = config.t_bisect, config.t_acquire, config.t_send
    t_hop = config.t_hop
    keep_heavy = keep == "heavy"
    n_trials = draws.shape[0]

    res_time = np.empty(n_trials)
    res_coll_t = np.empty(n_trials)
    res_coll_n = np.empty(n_trials, dtype=np.int64)
    res_ctrl = np.empty(n_trials, dtype=np.int64)
    res_hops = np.empty(n_trials, dtype=np.int64)
    res_maxw = np.empty(n_trials)

    for i in range(n_trials):
        row = draws[i]
        # ---- pass 1: the prescription (node ids -> weights/children),
        # mirroring phf_draw_tree's lockstep chronology exactly.
        weight = {0: w0}
        children = {}  # node id -> (heavy child id, light child id)
        next_id = 1
        idx = 0  # next draw (== acquisitions so far)
        pieces_p = {}  # prescription proc -> node id
        frontier = [(0, 1)]
        while frontier:
            nxt = []
            for nid, proc in frontier:
                wq = weight[nid]
                if wq <= threshold:
                    pieces_p[proc] = nid
                    continue
                if idx + 2 > n:
                    raise SimulationError(_PHASE1_EXHAUSTED)
                a = row[idx]
                idx += 1
                w2 = a * wq
                w1 = wq - w2
                if w1 < w2:
                    w1, w2 = w2, w1
                hid, lid = next_id, next_id + 1
                next_id += 2
                weight[hid] = w1
                weight[lid] = w2
                children[nid] = (hid, lid)
                keep_id, ship_id = (hid, lid) if keep_heavy else (lid, hid)
                dst = idx + 1  # k-th acquisition (1-based) -> P_{k+1}
                nxt.append((ship_id, dst))
                nxt.append((keep_id, proc))
            frontier = nxt
        free_p = [p for p in range(1, n + 1) if p not in pieces_p]
        cur_p = 0
        f = len(free_p)
        while f > 0:
            m = max(weight[nid] for nid in pieces_p.values())
            band_lo = m * (1.0 - alpha)
            band = sorted(
                (p for p, nid in pieces_p.items() if weight[nid] >= band_lo),
                key=lambda p: (-weight[pieces_p[p]], p),
            )
            h = len(band)
            if h > f:
                band = band[:f]
            for p, dst in zip(band, free_p[cur_p : cur_p + len(band)]):
                nid = pieces_p[p]
                wq = weight[nid]
                a = row[idx]
                idx += 1
                w2 = a * wq
                w1 = wq - w2
                if w1 < w2:
                    w1, w2 = w2, w1
                hid, lid = next_id, next_id + 1
                next_id += 2
                weight[hid] = w1
                weight[lid] = w2
                children[nid] = (hid, lid)
                keep_id, ship_id = (hid, lid) if keep_heavy else (lid, hid)
                pieces_p[p] = keep_id
                pieces_p[dst] = ship_id
            cur_p += len(band)
            f -= min(h, f)

        # ---- pass 2: event replay for the timing ---------------------
        pieces = {}  # replay proc -> node id
        acq = 0
        hops = 0
        span = 0.0
        seq = 1
        heap = [(0.0, 0, 1, 0)]
        while heap:
            t, _, proc, nid = heapq.heappop(heap)
            if weight[nid] <= threshold:
                pieces[proc] = nid
                continue
            dst = acq + 2  # k-th acquisition (0-based) -> processor k+2
            if dst > n:  # pragma: no cover - prescription already checked
                raise SimulationError(_PHASE1_EXHAUSTED)
            acq += 1
            hid, lid = children[nid]
            keep_id, ship_id = (hid, lid) if keep_heavy else (lid, hid)
            d = topo.distance(proc, dst)
            hops += d
            cost = t_s + t_hop * max(0, d - 1)
            arrival = ((t + t_b) + t_a) + cost
            if arrival > span:
                span = arrival
            heapq.heappush(heap, (arrival, seq, dst, ship_id))
            seq += 1
            heapq.heappush(heap, (arrival, seq, proc, keep_id))
            seq += 1

        # ---- (b)/(c): barrier + count/number free processors ---------
        ct = 0.0
        ct = ct + c
        ct = ct + c
        ncoll = 2
        t = (span + c) + c
        count = len(pieces)
        f = n - count
        next_free = count + 1  # central phase 1 leaves {count+1..n} free
        nctrl = 0

        # ---- phase 2: band-peeling rounds ----------------------------
        while f > 0:
            t = t + c  # (d) m := max weight
            t = t + c  # (e) h := band count + numbering
            ct = ct + c
            ct = ct + c
            ncoll += 2
            m = max(weight[nid] for nid in pieces.values())
            band_lo = m * (1.0 - alpha)
            band = sorted(
                (p for p, nid in pieces.items() if weight[nid] >= band_lo),
                key=lambda p: (-weight[pieces[p]], p),
            )
            h = len(band)
            if h > f:
                t = t + c  # selection collective
                ct = ct + c
                ncoll += 1
                band = band[:f]
            finish = t
            for proc in band:
                nid = pieces[proc]
                pair = children.get(nid)
                if pair is None:
                    # Only reachable when a truncating selection round
                    # breaks a weight tie differently than the
                    # prescription's processor numbering -- the DES
                    # raises the same way (PrescribedNode._bisect_once).
                    raise ValueError(
                        "prescribed leaf bisected: the consuming algorithm "
                        "deviated from the draw prescription"
                    )
                hid, lid = pair
                keep_id, ship_id = (hid, lid) if keep_heavy else (lid, hid)
                dst = next_free
                next_free += 1
                nctrl += 1
                d = topo.distance(proc, dst)
                hops += d
                cost = t_s + t_hop * max(0, d - 1)
                arrival = ((t + t_b) + t_a) + cost
                pieces[proc] = keep_id
                pieces[dst] = ship_id
                if arrival > finish:
                    finish = arrival
            f -= len(band)
            if f > 0:
                finish = finish + c  # (h) barrier
                ct = ct + c
                ncoll += 1
            t = finish

        res_time[i] = t
        res_coll_t[i] = ct
        res_coll_n[i] = ncoll
        res_ctrl[i] = nctrl
        res_hops[i] = hops
        res_maxw[i] = max(weight[nid] for nid in pieces.values())

    work_total = (n - 1) * t_b
    return FastpathResult(
        algorithm="phf",
        n_processors=n,
        parallel_time=res_time,
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=res_ctrl,
        n_collectives=res_coll_n,
        collective_time=res_coll_t,
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=res_hops,
        utilization=_utilization(n, work_total, res_time),
        ratio=res_maxw / (w0 / n),
    )


def fastpath_phf(
    n_processors: int,
    alpha_draws,
    *,
    alpha: float,
    keep: str = "heavy",
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """PHF with the idealised central phase 1 on the complete network.

    ``n_threads`` shards the compiled metrics kernel's trials across
    in-kernel threads (bit-identical for every count); the NumPy and
    topology paths ignore it.
    """
    config = config or MachineConfig()
    _require_supported("phf", config)
    alpha = check_alpha(alpha)
    if keep not in ("heavy", "light"):
        raise ValueError(f"keep must be 'heavy' or 'light', got {keep!r}")
    n = n_processors
    if n < 1:
        raise ValueError(f"n_processors must be >= 1, got {n}")
    draws = _as_draw_matrix(alpha_draws, max(0, n - 1))
    n_trials = draws.shape[0]
    w0 = float(initial_weight)
    if config.topology is not None:
        return _phf_topology(n, draws, config, alpha=alpha, keep=keep, w0=w0)
    threshold = phf_threshold(w0, alpha, n)
    c = config.collective_cost(n)
    t_b, t_a, t_s = config.t_bisect, config.t_acquire, config.t_send

    native = _native.phf_metrics_native(
        draws,
        n,
        w0=w0,
        threshold=threshold,
        alpha=alpha,
        keep_heavy=keep == "heavy",
        t_bisect=t_b,
        t_acquire=t_a,
        t_send=t_s,
        collective=c,
        n_threads=n_threads,
    )
    if native is not None:
        makespan, coll_time, coll_n, ctrl, maxw, status = native
        if (status == 1).any():
            raise SimulationError(_PHASE1_EXHAUSTED)
        if (status != 0).any():  # pragma: no cover - internal invariant
            raise SimulationError("phase 2 failed to converge")
        return FastpathResult(
            algorithm="phf",
            n_processors=n,
            parallel_time=makespan,
            n_messages=_const_int(n_trials, n - 1),
            n_control_messages=ctrl,
            n_collectives=coll_n,
            collective_time=coll_time,
            n_bisections=_const_int(n_trials, n - 1),
            total_hops=_const_int(n_trials, n - 1),
            utilization=_utilization(n, (n - 1) * t_b, makespan),
            ratio=maxw / (w0 / n),
        )

    # ---- phase 1: generation lockstep, frontier kept trial-major in
    # event order ([ship, keep] per parent) so ranks give draw indices.
    acq = np.zeros(n_trials, dtype=np.int64)  # draws consumed (= acquisitions)
    p1_end = np.zeros(n_trials)
    pool_t, pool_w, pool_p = [], [], []

    trial = np.arange(n_trials, dtype=np.intp)
    w = np.full(n_trials, w0)
    proc = np.ones(n_trials, dtype=np.int64)
    t_gen = 0.0
    while trial.size:
        settled = w <= threshold
        if settled.any():
            pool_t.append(trial[settled])
            pool_w.append(w[settled])
            pool_p.append(proc[settled])
            active = ~settled
            trial, w, proc = trial[active], w[active], proc[active]
        if not trial.size:
            break
        uniq, first_i, cnt = np.unique(trial, return_index=True, return_counts=True)
        rank = np.arange(trial.size) - np.repeat(first_i, cnt)
        draw_idx = acq[trial] + rank
        dst = draw_idx + 2  # k-th acquisition (0-based) -> processor k+2
        if (dst > n).any():
            raise SimulationError(_PHASE1_EXHAUSTED)
        a = draws[trial, draw_idx]
        w2 = a * w
        w1 = w - w2
        flip = w1 < w2
        if flip.any():
            w1, w2 = np.where(flip, w2, w1), np.where(flip, w1, w2)
        keep_w, ship_w = (w1, w2) if keep == "heavy" else (w2, w1)
        t_gen = ((t_gen + t_b) + t_a) + t_s
        p1_end[uniq] = t_gen
        acq[uniq] += cnt
        m = trial.size
        new_trial = np.repeat(trial, 2)
        new_w = np.empty(2 * m)
        new_w[0::2] = ship_w
        new_w[1::2] = keep_w
        new_proc = np.empty(2 * m, dtype=np.int64)
        new_proc[0::2] = dst
        new_proc[1::2] = proc
        trial, w, proc = new_trial, new_w, new_proc

    # ---- (b)/(c): barrier + count/number free processors ----
    coll_n = _const_int(n_trials, 2)
    coll_time = np.zeros(n_trials)
    coll_time = coll_time + c
    coll_time = coll_time + c
    t_cur = p1_end + c
    t_cur = t_cur + c

    # ---- dense phase-2 state: (n_trials, N) weight/proc arrays ----
    if not pool_t:  # zero-trial batch
        return FastpathResult(
            algorithm="phf",
            n_processors=n,
            parallel_time=t_cur,
            n_messages=_const_int(n_trials, n - 1),
            n_control_messages=np.zeros(n_trials, dtype=np.int64),
            n_collectives=coll_n,
            collective_time=coll_time,
            n_bisections=_const_int(n_trials, n - 1),
            total_hops=_const_int(n_trials, n - 1),
            utilization=np.zeros(n_trials),
            ratio=np.zeros(n_trials),
        )
    ft = np.concatenate(pool_t)
    fw = np.concatenate(pool_w)
    fp = np.concatenate(pool_p)
    order = np.argsort(ft, kind="stable")
    ft, fw, fp = ft[order], fw[order], fp[order]
    counts = np.bincount(ft, minlength=n_trials).astype(np.int64)
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    col = np.arange(ft.size) - np.repeat(first, counts)
    weights = np.full((n_trials, n), -np.inf)
    procs = np.zeros((n_trials, n), dtype=np.int64)
    weights[ft, col] = fw
    procs[ft, col] = fp
    count = counts.copy()

    occupied = np.zeros((n_trials, n + 1), dtype=bool)
    occupied[ft, fp] = True
    ids = np.arange(1, n + 1, dtype=np.int64)
    free_sorted = np.where(~occupied[:, 1:], ids[None, :], n + 1)
    free_sorted.sort(axis=1)
    cursor = np.zeros(n_trials, dtype=np.int64)
    f = n - counts
    ctrl = np.zeros(n_trials, dtype=np.int64)

    # ---- phase 2: band-peeling rounds (steps (c)-(h) of Figure 2) ----
    guard = 0
    while True:
        at = np.flatnonzero(f > 0)
        if at.size == 0:
            break
        guard += 1
        if guard > n + 1:  # pragma: no cover - internal invariant
            raise SimulationError("phase 2 failed to converge")
        t_at = t_cur[at]
        t_at = t_at + c  # (d) m := max weight
        t_at = t_at + c  # (e) h := band count + numbering
        coll_time[at] = coll_time[at] + c
        coll_time[at] = coll_time[at] + c
        coll_n[at] += 2
        w_at = weights[at]
        m_max = w_at.max(axis=1)
        in_band = w_at >= (m_max * (1.0 - alpha))[:, None]
        h = in_band.sum(axis=1).astype(np.int64)
        f_at = f[at]
        need_sel = h > f_at
        if need_sel.any():
            t_at[need_sel] = t_at[need_sel] + c  # selection collective
            sel_ids = at[need_sel]
            coll_time[sel_ids] = coll_time[sel_ids] + c
            coll_n[sel_ids] += 1
        b = np.minimum(h, f_at)
        order2 = np.lexsort((procs[at], -w_at), axis=-1)
        k_max = int(b.max())
        valid = np.arange(k_max)[None, :] < b[:, None]
        r_idx, k_idx = np.nonzero(valid)  # row-major: band order per trial
        cols = order2[r_idx, k_idx]
        g_trial = at[r_idx]
        draw_idx = acq[g_trial] + k_idx
        a = draws[g_trial, draw_idx]
        pw = weights[g_trial, cols]
        w2 = a * pw
        w1 = pw - w2
        flip = w1 < w2
        if flip.any():
            w1, w2 = np.where(flip, w2, w1), np.where(flip, w1, w2)
        keep_w, ship_w = (w1, w2) if keep == "heavy" else (w2, w1)
        dst = free_sorted[g_trial, cursor[g_trial] + k_idx]
        newcol = count[g_trial] + k_idx
        weights[g_trial, cols] = keep_w
        weights[g_trial, newcol] = ship_w
        procs[g_trial, newcol] = dst
        acq[at] += b
        cursor[at] += b
        count[at] += b
        ctrl[at] += b
        finish = ((t_at + t_b) + t_a) + t_s
        f[at] = f_at - b
        still = (f_at - b) > 0
        if still.any():
            finish[still] = finish[still] + c  # (h) barrier
            still_ids = at[still]
            coll_time[still_ids] = coll_time[still_ids] + c
            coll_n[still_ids] += 1
        t_cur[at] = finish

    work_total = (n - 1) * t_b
    return FastpathResult(
        algorithm="phf",
        n_processors=n,
        parallel_time=t_cur,
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=ctrl,
        n_collectives=coll_n,
        collective_time=coll_time,
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=_const_int(n_trials, n - 1),
        utilization=_utilization(n, work_total, t_cur),
        ratio=weights.max(axis=1) / (w0 / n),
    )


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------


def fastpath_counters(
    algorithm: str,
    n_processors: int,
    alpha_draws,
    *,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    keep: str = "heavy",
    phase1: str = "central",
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """Batched machine metrics for one algorithm over a draw matrix.

    ``alpha`` is required for ``phf`` and ``bahf``.  Raises
    :class:`FastpathUnsupported` for cells only the DES can evaluate
    (see :func:`fastpath_supported`).  ``n_threads`` is the native
    kernels' in-kernel trial-block thread count (``None`` defers to
    ``REPRO_NATIVE_THREADS`` / auto); metrics are bit-identical for
    every count, and pure-NumPy paths ignore it.
    """
    key = normalize_algorithm(algorithm)
    config = config or MachineConfig()
    _require_supported(key, config, phase1=phase1)
    if key == "hf":
        return fastpath_hf(
            n_processors, alpha_draws, config=config,
            initial_weight=initial_weight, n_threads=n_threads,
        )
    if key == "ba":
        return fastpath_ba(
            n_processors, alpha_draws, config=config,
            initial_weight=initial_weight, n_threads=n_threads,
        )
    if key == "bahf":
        if alpha is None:
            raise ValueError("bahf fastpath needs alpha")
        return fastpath_bahf(
            n_processors,
            alpha_draws,
            alpha=alpha,
            lam=lam,
            config=config,
            initial_weight=initial_weight,
            n_threads=n_threads,
        )
    if alpha is None:
        raise ValueError("phf fastpath needs alpha")
    return fastpath_phf(
        n_processors,
        alpha_draws,
        alpha=alpha,
        keep=keep,
        config=config,
        initial_weight=initial_weight,
        n_threads=n_threads,
    )
