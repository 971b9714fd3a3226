"""Experiment E7 -- the algorithms on realistic interconnects.

The paper's machine model charges every send one unit and every
collective ``O(log N)`` -- justified by the remark that the idealized
PRAM "can be simulated on many realistic architectures with at most
logarithmic slowdown" (citing hypercube embeddings, [5][11]).  This study
drops the idealisation: sends pay hop distance on a concrete topology
(complete / hypercube / 2-D mesh / ring) and collectives pay a latency
proportional to the network diameter.

Expected shape: on the hypercube everything survives (the paper's claim
-- log-diameter networks lose only a logarithmic factor); on meshes and
rings BA degrades gracefully (its sends follow the range structure)
while PHF's per-iteration global collectives inflate with the diameter,
widening BA's running-time advantage -- the trade-off the conclusion
asks practitioners to weigh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runtime_study import METRIC_COLUMNS, run_study_cells
from repro.problems.samplers import AlphaSampler, UniformAlpha
from repro.simulator.collectives import LogCost
from repro.simulator.machine import MachineConfig
from repro.simulator.topology import (
    CompleteTopology,
    HypercubeTopology,
    Mesh2DTopology,
    RingTopology,
    Topology,
)

__all__ = [
    "TOPOLOGIES",
    "TopologyRecord",
    "TopologyStudyResult",
    "run_topology_study",
    "render_topology_study",
]

TOPOLOGIES: Dict[str, Callable[[int], Topology]] = {
    "complete": CompleteTopology,
    "hypercube": HypercubeTopology,
    "mesh2d": Mesh2DTopology,
    "ring": RingTopology,
}


@dataclass(frozen=True)
class TopologyRecord:
    topology: str
    algorithm: str
    n_processors: int
    parallel_time: float
    total_hops: int
    n_collectives: int


@dataclass(frozen=True)
class TopologyStudyResult:
    records: Tuple[TopologyRecord, ...]
    n_repeats: int

    def get(self, topology: str, algorithm: str, n: int) -> TopologyRecord:
        for rec in self.records:
            if (
                rec.topology == topology
                and rec.algorithm == algorithm
                and rec.n_processors == n
            ):
                return rec
        raise KeyError((topology, algorithm, n))

    def slowdown(self, topology: str, algorithm: str, n: int) -> float:
        """Makespan relative to the complete network."""
        base = self.get("complete", algorithm, n).parallel_time
        return self.get(topology, algorithm, n).parallel_time / base


def _config_for(topology_name: str, n: int) -> MachineConfig:
    """Machine config: hop-priced sends + diameter-aware collectives."""
    factory = TOPOLOGIES[topology_name]
    diameter = factory(n).diameter() if n <= 4096 else None
    latency = float(diameter) if diameter else 0.0
    return MachineConfig(
        topology=factory,
        t_hop=1.0,
        collective_model=LogCost(scale=1.0, latency=latency),
    )


def run_topology_study(
    *,
    n_values: Sequence[int] = (16, 64, 256),
    topologies: Sequence[str] = ("complete", "hypercube", "mesh2d", "ring"),
    algorithms: Sequence[str] = ("ba", "bahf", "phf", "hf"),
    sampler: Optional[AlphaSampler] = None,
    n_repeats: int = 3,
    seed: int = 20260706,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    backend: str = "processes",
) -> TopologyStudyResult:
    """Evaluate each algorithm on each topology (means over repeats).

    Trial ``t`` of cell ``(topology, algorithm, N)`` derives its draws
    from ``(seed, algorithm, N, t)`` only -- every topology sees the
    *same* instances, so :meth:`TopologyStudyResult.slowdown` compares
    like with like.  Every cell runs on the topology-aware closed-form
    kernels, PHF included (central phase 1), which are bit-identical to
    the DES; the numbers are the same for any ``n_jobs`` and either
    ``backend`` (``"processes"`` or ``"threads"``).
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    for name in topologies:
        if name not in TOPOLOGIES:
            raise ValueError(f"unknown topology {name!r}")
    sampler = sampler or UniformAlpha(0.1, 0.5)
    cells = [
        ((topo, algo, n), algo, n, _config_for(topo, n))
        for n in n_values
        for topo in topologies
        for algo in algorithms
    ]
    matrices = run_study_cells(
        cells,
        sampler,
        n_trials=n_repeats,
        seed=seed,
        n_jobs=n_jobs,
        chunk_size=chunk_size,
        backend=backend,
    )
    col = {name: j for j, name in enumerate(METRIC_COLUMNS)}
    records: List[TopologyRecord] = []
    for n in n_values:
        for topo in topologies:
            for algo in algorithms:
                m = matrices[(topo, algo, n)]
                records.append(
                    TopologyRecord(
                        topology=topo,
                        algorithm=algo,
                        n_processors=n,
                        parallel_time=float(m[:, col["parallel_time"]].sum())
                        / n_repeats,
                        total_hops=int(m[:, col["total_hops"]].sum()) // n_repeats,
                        n_collectives=int(m[:, col["n_collectives"]].sum())
                        // n_repeats,
                    )
                )
    return TopologyStudyResult(records=tuple(records), n_repeats=n_repeats)


def render_topology_study(result: TopologyStudyResult) -> str:
    topos = []
    algos = []
    ns = sorted({rec.n_processors for rec in result.records})
    for rec in result.records:
        if rec.topology not in topos:
            topos.append(rec.topology)
        if rec.algorithm not in algos:
            algos.append(rec.algorithm)
    lines = [
        f"Topology study -- simulated makespan (mean of {result.n_repeats}); "
        "sends pay hop distance, collectives pay diameter latency",
    ]
    for n in ns:
        lines.append(f"\nN = {n}")
        header = ["topology".ljust(10)] + [a.rjust(10) for a in algos]
        lines.append(" | ".join(header))
        for topo in topos:
            row = [topo.ljust(10)]
            for algo in algos:
                rec = result.get(topo, algo, n)
                row.append(f"{rec.parallel_time:10.1f}")
            lines.append(" | ".join(row))
    return "\n".join(lines)
