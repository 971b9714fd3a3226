"""Bench E5 -- simulated parallel running time (Sections 3 and 5).

Paper: sequential HF takes Θ(N) to distribute a problem onto N
processors; PHF, BA and BA-HF take O(log N) on the abstract machine
(unit-cost bisection/send, log-cost collectives).  PHF needs global
communication every phase-2 iteration; BA needs none.

Also covers the ablations DESIGN.md §4 lists for the machine model:
PHF's phase-1 strategy (idealized central manager vs the realisable BA′
scheme) and keep-heavy vs keep-light child policy.

The study runs on the closed-form fastpath; a small cell re-checks that
the DES (the fastpath hidden from the study) reports the identical
records (the full bit-identity property lives in tests/test_fastpath.py,
and the throughput comparison in bench_fastpath.py).
"""

import math
from unittest import mock

import pytest

from repro.experiments import runtime_study
from repro.experiments.runtime_study import (
    render_runtime_study,
    run_runtime_study,
)
from repro.problems import SyntheticProblem, UniformAlpha
from repro.simulator import MachineConfig, simulate_phf

from _common import full_scale, run_once, write_artifact


def test_runtime_separation(benchmark):
    n_values = tuple(2**k for k in range(2, 12 if full_scale() else 11))
    result = run_once(
        benchmark,
        lambda: run_runtime_study(n_values=n_values, n_repeats=5),
    )
    write_artifact("runtime_study", render_runtime_study(result))

    # the DES reports the identical records (small serial cell; the
    # exhaustive bit-identity property is tests/test_fastpath.py)
    small = dict(n_values=(4, 32), n_repeats=3)
    fast = run_runtime_study(**small).records
    with mock.patch.object(runtime_study, "fastpath_supported", return_value=False):
        assert run_runtime_study(**small).records == fast

    n_lo, n_hi = 32, max(n_values)
    scale = n_hi / n_lo

    hf = dict(result.series("hf", "parallel_time"))
    # HF exactly linear: 2(N-1)
    assert hf[n_hi] == pytest.approx(2 * (n_hi - 1))

    for algo in ("ba", "bahf", "phf"):
        t = dict(result.series(algo, "parallel_time"))
        growth = t[n_hi] / t[n_lo]
        # O(log N): growth across a `scale`-fold N increase stays far
        # below `scale` (allow generous slack for constants)
        assert growth < scale / 4, algo

    # communication structure: BA zero collectives, PHF several per round
    assert all(v == 0 for _, v in result.series("ba", "n_collectives"))
    assert all(v >= 2 for _, v in result.series("phf", "n_collectives"))

    # crossover: PHF eventually beats sequential HF
    phf = dict(result.series("phf", "parallel_time"))
    assert phf[n_hi] < hf[n_hi]

    benchmark.extra_info["hf_time_at_max_n"] = hf[n_hi]
    benchmark.extra_info["phf_time_at_max_n"] = phf[n_hi]
    benchmark.extra_info["ba_time_at_max_n"] = dict(
        result.series("ba", "parallel_time")
    )[n_hi]


def test_phf_phase1_strategy_ablation(benchmark):
    """Central O(1)-acquire vs BA'-based vs randomized-stealing phase 1.

    Free-processor lookups are priced (t_acquire = 0.5) so the schemes'
    costs actually separate: BA' pays nothing (range arithmetic), the
    central manager pays one lookup per bisection, random stealing pays
    one lookup per *probe* (expected n/f probes when f processors are
    free).
    """
    n = 512
    config = MachineConfig(t_acquire=0.5)

    def run():
        out = {}
        for phase1 in ("ba_prime", "central", "steal"):
            for keep in ("heavy", "light"):
                p = SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=77)
                out[(phase1, keep)] = simulate_phf(
                    p, n, phase1=phase1, keep=keep, config=config
                )
        return out

    results = run_once(benchmark, run)

    # all variants produce the identical (HF) partition ...
    base = results[("central", "heavy")].partition
    for key, res in results.items():
        assert res.partition.same_pieces_as(base), key

    # ... and the cost ordering matches the theory: BA' needs no lookups,
    # stealing needs at least as many control messages as central
    ctrl = {
        phase1: results[(phase1, "heavy")].n_control_messages
        for phase1 in ("ba_prime", "central", "steal")
    }
    assert ctrl["steal"] >= ctrl["central"]

    lines = ["PHF phase-1 ablation (N=512, U[0.1,0.5], t_acquire=0.5)"]
    for (phase1, keep), res in results.items():
        lines.append(
            f"  phase1={phase1:<8} keep={keep:<5} makespan={res.parallel_time:7.1f} "
            f"(phase1={res.phases['phase1']:6.1f} phase2={res.phases['phase2']:6.1f}) "
            f"msgs={res.n_messages} ctrl={res.n_control_messages} "
            f"colls={res.n_collectives}"
        )
    write_artifact("phf_phase1_ablation", "\n".join(lines))
