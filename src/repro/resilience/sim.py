"""Fault-aware runs of HF / PHF / BA / BA-HF on the simulated machine.

:func:`simulate_with_faults` executes an algorithm under a
:class:`~repro.resilience.faults.FaultPlan` and a
:class:`~repro.resilience.recovery.RecoveryPolicy`, producing a
:class:`~repro.simulator.trace.SimulationResult` whose ``fault_summary``
carries the degraded-mode metrics (recovery counts, simulated time lost
to timeouts, work re-done, ratio over the *surviving* processors).

Failure model (see :mod:`repro.resilience.faults` for the schedule):

* **Fail-stop at hand-off boundaries.**  A processor with crash time
  ``T`` refuses every subproblem arriving at ``>= T``; work it accepted
  earlier runs to completion.  PHF's phase 2 additionally re-checks the
  piece holders at every collective round -- each round is a fresh global
  hand-off, so its failure granularity follows the algorithm's
  communication structure (which is precisely the property under test).
* **Perfect failure detection after timeout.**  A sender whose hand-off
  draws no ack within ``detect_timeout`` learns the true cause: a dead
  receiver makes it re-target the first *surviving* processor of the
  child range (the free-processor manager of Section 3.4, extended with
  liveness); a lost message to a live receiver is retransmitted to the
  same receiver.  Retries back off exponentially in simulated time; when
  ``max_retries`` is exhausted (or no live target exists) the sender
  **adopts** the subproblem -- it keeps the piece unbisected, and the
  trial is marked degraded.
* **Collectives stall on dead members.**  PHF's global operations wait
  out ``max_retries`` collective timeouts before reconfiguring the group
  without its dead members; BA and BA-HF have no collectives and thus
  nothing to stall -- the asymmetry the fault study quantifies.

Every recovery decision is a pure function of ``(plan, policy)`` and the
(deterministic) event order, so runs are bit-reproducible.  With an
empty plan every code path below performs byte-for-byte the fault-free
arithmetic -- enforced against the baseline simulations by
``tests/test_resilience.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ba import ba_split
from repro.core.bahf import bahf_threshold
from repro.core.bounds import normalize_algorithm
from repro.core.hf import run_hf
from repro.core.partition import Partition
from repro.core.phf import phf_threshold
from repro.core.problem import BisectableProblem, check_alpha
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RecoveryPolicy, RecoveryTracker
from repro.simulator.engine import SimulationError, Simulator
from repro.simulator.freeproc import (
    CentralManager,
    NumberedFreePool,
    RangeManager,
    SurvivorPool,
)
from repro.simulator.machine import Machine, MachineConfig
from repro.simulator.trace import SimulationResult

__all__ = ["simulate_with_faults"]


class _FaultyRun:
    """Shared state of one fault-aware execution (machine + recovery)."""

    def __init__(
        self,
        n_processors: int,
        plan: FaultPlan,
        policy: RecoveryPolicy,
        config: Optional[MachineConfig],
    ) -> None:
        if plan.n_processors != n_processors:
            raise ValueError(
                f"plan is for {plan.n_processors} processors, "
                f"simulation uses {n_processors}"
            )
        self.n = n_processors
        self.plan = plan
        self.policy = policy
        self.machine = Machine(n_processors, config, faults=plan)
        self.sim = Simulator()
        self.pool = SurvivorPool(list(plan.crash_time))
        self.tracker = RecoveryTracker()
        #: proc -> pieces finally residing there (adoption can stack several)
        self.placed: Dict[int, List[BisectableProblem]] = {}
        self._send_index = 0

    # -- placement ------------------------------------------------------

    def place(self, proc: int, piece: BisectableProblem) -> None:
        self.placed.setdefault(proc, []).append(piece)

    def adopt(self, proc: int, piece: BisectableProblem) -> None:
        """Recovery gave up: ``proc`` keeps ``piece`` unbisected."""
        self.place(proc, piece)
        self.tracker.adopted()

    # -- the recovery-aware hand-off ------------------------------------

    def _attempt(
        self, src: int, dst: int, clock: float
    ) -> Tuple[bool, float, float]:
        """One send attempt; returns ``(delivered, arrival, wasted)``."""
        bu = self.machine.busy_until
        begin = max(clock, bu[src - 1])
        arrival = self.machine.send(src, dst, clock)
        index = self._send_index
        self._send_index += 1
        arrival += self.plan.send_delay(index)
        delivered = (
            not self.plan.send_lost(index) and self.pool.alive(dst, arrival)
        )
        return delivered, arrival, bu[src - 1] - begin

    def _back_off(self, src: int, attempt: int, wasted: float) -> float:
        """Charge one failed attempt; returns the sender's next start time."""
        wait = self.policy.retry_wait(attempt)
        self.tracker.failed_attempt(wait=wait, wasted=wasted)
        bu = self.machine.busy_until
        resume = bu[src - 1] + wait  # stalled on the ack timeout
        bu[src - 1] = resume
        return resume

    def ship_range(
        self,
        src: int,
        piece: BisectableProblem,
        lo: int,
        hi: int,
        t: float,
        deliver: Callable[[int, float], None],
    ) -> None:
        """Hand ``piece`` to the first surviving processor of ``[lo, hi]``.

        On success schedules ``deliver(dst, arrival)``; on exhaustion the
        sender adopts the piece.  With an empty plan this is exactly the
        baseline send: one attempt, destination ``lo``.
        """
        clock = t
        attempt = 0
        while True:
            dst = self.pool.first_alive_in(lo, hi, clock)
            if dst is None:
                self.adopt(src, piece)
                return
            delivered, arrival, wasted = self._attempt(src, dst, clock)
            if delivered:
                if attempt > 0:
                    self.tracker.recovered()
                bu = self.machine.busy_until
                bu[dst - 1] = max(bu[dst - 1], arrival)
                self.sim.schedule_at(arrival, lambda: deliver(dst, arrival))
                return
            clock = self._back_off(src, attempt, wasted)
            attempt += 1
            if attempt > self.policy.max_retries:
                self.adopt(src, piece)
                return

    def ship_fixed(
        self,
        src: int,
        piece: BisectableProblem,
        dst: int,
        t: float,
    ) -> float:
        """Hand ``piece`` to its fixed home ``dst`` (HF-style distribution).

        Lost messages to a live receiver are retransmitted; a receiver
        known dead (perfect detection after the first timeout) makes the
        sender adopt immediately -- there is no alternate home for an
        HF piece.  Returns the sender-side completion time.
        """
        clock = t
        attempt = 0
        while True:
            delivered, arrival, wasted = self._attempt(src, dst, clock)
            if delivered:
                if attempt > 0:
                    self.tracker.recovered()
                bu = self.machine.busy_until
                bu[dst - 1] = max(bu[dst - 1], arrival)
                self.place(dst, piece)
                return arrival
            clock = self._back_off(src, attempt, wasted)
            attempt += 1
            if attempt > self.policy.max_retries or not self.pool.alive(
                dst, clock
            ):
                self.adopt(src, piece)
                return clock

    # -- degraded collectives -------------------------------------------

    def collective_with_stalls(
        self, group: List[int], start: float
    ) -> Tuple[float, List[int]]:
        """One collective over ``group``; stalls if members died.

        Returns ``(completion_time, surviving_group)``.  A full live
        group goes through :meth:`Machine.collective` -- byte-identical
        to the fault-free path.
        """
        dead = [p for p in group if not self.pool.alive(p, start)]
        if dead:
            wait = self.policy.collective_stall_time()
            self.tracker.collective_stalled(wait)
            group = [p for p in group if self.pool.alive(p, start)]
            if not group:
                raise SimulationError(
                    "every collective participant has failed; "
                    "the machine cannot make progress"
                )
            start = start + wait
        if len(group) == self.n:
            return self.machine.collective(start), group
        return self.machine.collective_among(group, start), group

    # -- result assembly -------------------------------------------------

    def finish(
        self,
        problem: BisectableProblem,
        algorithm: str,
        *,
        phases: Dict[str, float],
        meta: Dict[str, object],
    ) -> SimulationResult:
        machine = self.machine
        makespan = machine.makespan
        n_alive = self.pool.n_alive(makespan)
        pieces: List[BisectableProblem] = []
        max_load = 0.0
        for proc in sorted(self.placed):
            held = self.placed[proc]
            pieces.extend(held)
            max_load = max(max_load, sum(q.weight for q in held))
        ideal = problem.weight / max(1, n_alive)
        extra = {
            "n_alive": float(n_alive),
            "n_crashed": float(self.n - n_alive),
            "ratio_after_recovery": max_load / ideal,
        }
        partition = Partition(
            pieces=pieces,
            total_weight=problem.weight,
            n_processors=self.n,
            algorithm=algorithm,
            num_bisections=machine.n_bisections,
            meta=meta,
        )
        return SimulationResult(
            partition=partition,
            parallel_time=makespan,
            n_messages=machine.n_messages,
            n_collectives=machine.n_collectives,
            collective_time=machine.collective_time,
            n_bisections=machine.n_bisections,
            utilization=machine.utilization(),
            n_control_messages=machine.n_control_messages,
            total_hops=machine.total_hops,
            events=machine.events,
            phases=phases,
            fault_summary=self.tracker.summary(extra),
        )


# ----------------------------------------------------------------------
# Per-algorithm executions
# ----------------------------------------------------------------------


def _run_ba(
    problem: BisectableProblem,
    run: _FaultyRun,
    *,
    collect: Optional[Dict[str, float]] = None,
    threshold: Optional[float] = None,
    local_finish: Optional[Callable[[int, BisectableProblem, int, float], None]] = None,
) -> None:
    """The BA recursion with recovery-aware hand-offs.

    ``threshold``/``local_finish`` turn it into the BA phase of BA-HF: a
    subproblem whose range size drops below ``threshold`` is finished by
    ``local_finish(proc, piece, hi, time)`` instead of being placed.
    """
    manager = RangeManager(run.n)
    machine, sim = run.machine, run.sim

    def handle(proc: int, q: BisectableProblem, hi: int, t: float) -> None:
        size = hi - proc + 1
        if threshold is not None and size < threshold:
            if collect is not None:
                collect["ba_end"] = max(collect.get("ba_end", 0.0), t)
            assert local_finish is not None
            local_finish(proc, q, hi, t)
            return
        if size == 1:
            run.place(proc, q)
            return
        q1, q2 = q.bisect()
        end_bisect = machine.bisect_at(proc, t)
        n1, _ = ba_split(q1.weight, q2.weight, size)
        r1, r2, _ = manager.split((proc, hi), n1)
        run.ship_range(
            proc,
            q2,
            r2[0],
            r2[1],
            end_bisect,
            lambda dst, arrival: handle(dst, q2, r2[1], arrival),
        )
        sim.schedule_at(end_bisect, lambda: handle(proc, q1, r1[1], end_bisect))

    sim.schedule(0.0, lambda: handle(1, problem, run.n, 0.0))
    sim.run()


def _simulate_ba(
    problem: BisectableProblem, run: _FaultyRun
) -> SimulationResult:
    _run_ba(problem, run)
    return run.finish(
        problem,
        "ba",
        phases={"recursion": run.machine.makespan},
        meta={"fault_injected": not run.plan.is_empty},
    )


def _simulate_bahf(
    problem: BisectableProblem,
    run: _FaultyRun,
    *,
    alpha: float,
    lam: float,
) -> SimulationResult:
    threshold = bahf_threshold(alpha, lam)
    machine = run.machine
    collect: Dict[str, float] = {"ba_end": 0.0}

    def local_finish(proc: int, q: BisectableProblem, hi: int, t: float) -> None:
        size = hi - proc + 1
        sub = run_hf(q, size)
        clock = t
        for _ in range(sub.num_bisections):
            clock = machine.bisect_at(proc, clock)
        run.place(proc, sub.pieces[0])
        for offset, piece in enumerate(sub.pieces[1:], start=1):
            clock = run.ship_fixed(proc, piece, proc + offset, clock)

    _run_ba(
        problem,
        run,
        collect=collect,
        threshold=threshold,
        local_finish=local_finish,
    )
    makespan = run.machine.makespan
    return run.finish(
        problem,
        "bahf",
        phases={
            "ba_phase": collect["ba_end"],
            "hf_phase": makespan - collect["ba_end"],
        },
        meta={
            "lambda": lam,
            "alpha": alpha,
            "threshold": threshold,
            "fault_injected": not run.plan.is_empty,
        },
    )


def _simulate_hf(
    problem: BisectableProblem, run: _FaultyRun
) -> SimulationResult:
    partition = run_hf(problem, run.n)
    machine = run.machine
    t = 0.0
    for _ in range(partition.num_bisections):
        t = machine.bisect_at(1, t)
    bisect_done = t
    run.place(1, partition.pieces[0])
    for offset, piece in enumerate(partition.pieces[1:], start=1):
        t = run.ship_fixed(1, piece, 1 + offset, t)
    makespan = machine.makespan
    return run.finish(
        problem,
        "hf",
        phases={"bisect": bisect_done, "distribute": makespan - bisect_done},
        meta={"fault_injected": not run.plan.is_empty},
    )


def _simulate_phf(
    problem: BisectableProblem,
    run: _FaultyRun,
    *,
    alpha: float,
    keep: str,
) -> SimulationResult:
    if keep not in ("heavy", "light"):
        raise ValueError(f"keep must be 'heavy' or 'light', got {keep!r}")
    n = run.n
    machine, sim, policy = run.machine, run.sim, run.policy
    total = problem.weight
    threshold = phf_threshold(total, alpha, n)
    manager = CentralManager(n, first_busy=1)
    pieces: Dict[int, BisectableProblem] = {}

    # -- phase 1: per-bisection acquire, recovery re-acquires -----------

    def work(proc: int, q: BisectableProblem, t: float) -> None:
        if q.weight <= threshold:
            pieces[proc] = q
            return
        q1, q2 = q.bisect()
        end_bisect = machine.bisect_at(proc, t)
        clock = end_bisect
        attempt = 0
        while True:
            try:
                end_acquire = machine.acquire_free(proc, clock)
                dst = manager.acquire()
            except RuntimeError as exc:
                if run.plan.is_empty:
                    raise SimulationError(
                        "phase 1 ran out of free processors: the declared "
                        "alpha is not a valid guarantee for this problem class"
                    ) from exc
                # Faults consumed the spare capacity: degrade, don't die.
                keep_piece, ship_piece = (
                    (q1, q2) if keep == "heavy" else (q2, q1)
                )
                run.tracker.adopted()
                pieces_extra_adopt(proc, ship_piece)
                sim.schedule_at(clock, lambda: work(proc, keep_piece, clock))
                return
            delivered, arrival, wasted = run._attempt(proc, dst, end_acquire)
            if delivered:
                if attempt > 0:
                    run.tracker.recovered()
                bu = machine.busy_until
                bu[dst - 1] = max(bu[dst - 1], arrival)
                keep_piece, ship_piece = (
                    (q1, q2) if keep == "heavy" else (q2, q1)
                )
                sim.schedule_at(arrival, lambda: work(dst, ship_piece, arrival))
                sim.schedule_at(arrival, lambda: work(proc, keep_piece, arrival))
                return
            clock = run._back_off(proc, attempt, wasted)
            attempt += 1
            if attempt > policy.max_retries:
                keep_piece, ship_piece = (
                    (q1, q2) if keep == "heavy" else (q2, q1)
                )
                run.tracker.adopted()
                pieces_extra_adopt(proc, ship_piece)
                sim.schedule_at(clock, lambda: work(proc, keep_piece, clock))
                return

    #: adopted pieces per proc, outside the active ``pieces`` map (they
    #: are no longer bisected: degraded mode)
    extras: Dict[int, List[BisectableProblem]] = {}

    def pieces_extra_adopt(proc: int, piece: BisectableProblem) -> None:
        extras.setdefault(proc, []).append(piece)

    sim.schedule(0.0, lambda: work(1, problem, 0.0))
    sim.run()

    # (b) barrier, (c) count + number the free processors.
    group = list(range(1, n + 1))
    t, group = run.collective_with_stalls(group, machine.makespan)
    t, group = run.collective_with_stalls(group, t)
    phase1_end = t
    free_ids = [p for p in group if p not in pieces and p not in extras]
    pool = NumberedFreePool(free_ids)

    # -- phase 2: band peeling with per-round failure handling ----------

    def recover_lost_piece(q: BisectableProblem, t: float) -> float:
        """Re-bisect a dead holder's piece on a surviving processor."""
        holders = sorted(p for p in pieces if run.pool.alive(p, t))
        savior = holders[0] if holders else None
        if savior is None:
            raise SimulationError(
                "all piece holders have failed; nothing can recover"
            )
        end_bisect = machine.bisect_at(savior, t)
        run.tracker.work_redone += run.plan.scale_work(
            savior, machine.config.t_bisect
        )
        while pool.remaining > 0:
            dst = pool.consume(1)[0]
            delivered, arrival, wasted = run._attempt(savior, dst, end_bisect)
            if delivered:
                run.tracker.recovered()
                bu = machine.busy_until
                bu[dst - 1] = max(bu[dst - 1], arrival)
                pieces[dst] = q
                return arrival
            run.tracker.failed_attempt(
                wait=policy.detect_timeout, wasted=wasted
            )
            end_bisect = machine.busy_until[savior - 1] + policy.detect_timeout
            machine.busy_until[savior - 1] = end_bisect
        run.adopt(savior, q)
        return machine.busy_until[savior - 1]

    rounds = 0
    while pool.remaining > 0:
        rounds += 1
        if rounds > 4 * n + 8:
            raise SimulationError(
                "PHF phase 2 failed to converge under the fault plan"
            )
        # Holders that died between rounds lose their pieces; recover
        # them onto surviving free processors before the round proceeds.
        finish = t
        for dead in sorted(p for p in pieces if not run.pool.alive(p, t)):
            q = pieces.pop(dead)
            finish = max(finish, recover_lost_piece(q, finish))
        t = finish
        if pool.remaining == 0:
            break
        t, group = run.collective_with_stalls(group, t)  # (d) max weight
        t, group = run.collective_with_stalls(group, t)  # (e) count/number
        if not pieces:
            break
        m = max(q.weight for q in pieces.values())
        band = sorted(
            (proc for proc, q in pieces.items() if q.weight >= m * (1.0 - alpha)),
            key=lambda proc: (-pieces[proc].weight, proc),
        )
        f = pool.remaining
        if len(band) > f:
            t, group = run.collective_with_stalls(group, t)  # selection
            band = band[:f]
        finish = t
        for number, proc in enumerate(band, start=1):
            q1, q2 = pieces[proc].bisect()
            end_bisect = machine.bisect_at(proc, t)
            end_resolve = machine.control_request(proc, number, end_bisect)
            keep_piece, ship_piece = (q1, q2) if keep == "heavy" else (q2, q1)
            clock = end_resolve
            shipped = False
            while pool.remaining > 0:
                dst = pool.consume(1)[0]
                delivered, arrival, wasted = run._attempt(proc, dst, clock)
                if delivered:
                    bu = machine.busy_until
                    bu[dst - 1] = max(bu[dst - 1], arrival)
                    pieces[proc] = keep_piece
                    pieces[dst] = ship_piece
                    finish = max(finish, arrival)
                    shipped = True
                    break
                run.tracker.failed_attempt(
                    wait=policy.detect_timeout, wasted=wasted
                )
                clock = machine.busy_until[proc - 1] + policy.detect_timeout
                machine.busy_until[proc - 1] = clock
            if not shipped:
                pieces[proc] = keep_piece
                run.tracker.adopted()
                pieces_extra_adopt(proc, ship_piece)
                finish = max(finish, machine.busy_until[proc - 1])
        if pool.remaining > 0:
            t, group = run.collective_with_stalls(group, finish)  # (h) barrier
        else:
            t = finish

    for proc in sorted(pieces):
        run.place(proc, pieces[proc])
    for proc in sorted(extras):
        for piece in extras[proc]:
            run.place(proc, piece)

    makespan = machine.makespan
    return run.finish(
        problem,
        "phf",
        phases={"phase1": phase1_end, "phase2": makespan - phase1_end},
        meta={
            "alpha": alpha,
            "threshold": threshold,
            "phase1_mode": "central",
            "phase2_rounds": rounds,
            "keep": keep,
            "fault_injected": not run.plan.is_empty,
        },
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def simulate_with_faults(
    algorithm: str,
    problem: BisectableProblem,
    n_processors: int,
    *,
    plan: FaultPlan,
    policy: Optional[RecoveryPolicy] = None,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    keep: str = "heavy",
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """Run ``algorithm`` on the simulated machine under ``plan``.

    Parameters mirror the fault-free ``simulate_*`` entry points of
    :mod:`repro.simulator`; ``plan``/``policy`` add the fault schedule
    and the recovery protocol.  PHF runs its phase 1 in the idealized
    central-acquire mode (the paper's timing assumption); the other
    phase-1 strategies consume randomness in a machine-dependent order
    and are out of scope for fault injection.

    With ``plan.is_empty`` the result is bit-identical to the fault-free
    simulation of the same problem instance (regression-tested).
    """
    key = normalize_algorithm(algorithm)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    run = _FaultyRun(n_processors, plan, policy or RecoveryPolicy(), config)
    if key in ("phf", "bahf"):
        if alpha is None:
            alpha = problem.alpha
        if alpha is None:
            raise ValueError(
                f"{key} needs alpha; the problem does not declare one -- "
                "pass alpha= explicitly"
            )
        alpha = check_alpha(alpha)
    if key == "ba":
        return _simulate_ba(problem, run)
    if key == "hf":
        return _simulate_hf(problem, run)
    if key == "bahf":
        assert alpha is not None
        return _simulate_bahf(problem, run, alpha=alpha, lam=lam)
    assert alpha is not None
    return _simulate_phf(problem, run, alpha=alpha, keep=keep)
