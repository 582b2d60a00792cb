"""Figure 2: memory-intensive processes and the swap knee.

Paper setup: 5..50 instances of a CPU- and memory-intensive program
(large-matrix operations) on 2 GB machines. Expected shape: FreeBSD
(both schedulers) flat until the aggregate working set exceeds RAM,
then rising steeply ("the execution time increases a lot as soon as
virtual memory (swap) is used"); Linux 2.6 staying flat throughout.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import Table
from repro.experiments.osprofiles import PROFILES
from repro.hostos.machine import Machine
from repro.hostos.workloads import MATRIX_MEMORY_MB, matrix_task
from repro.sim import Simulator

DEFAULT_COUNTS: Tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)


@dataclass(frozen=True)
class Fig2Result:
    counts: Tuple[int, ...]
    curves: Dict[str, List[float]]
    knee_mb: float  # RAM size: where the FreeBSD curves take off


def run_fig2(
    counts: Sequence[int] = DEFAULT_COUNTS,
    profiles: Sequence[str] = tuple(PROFILES),
    ram_mb: float = 2048.0,
    memory_mb: float = MATRIX_MEMORY_MB,
    seed: int = 0,
) -> Fig2Result:
    curves: Dict[str, List[float]] = {}
    for label in profiles:
        profile = PROFILES[label]
        series: List[float] = []
        for n in counts:
            sim = Simulator(seed=seed)
            machine = Machine(
                sim,
                profile.make_scheduler(),
                ncpus=2,
                memory=profile.make_memory(ram_mb=ram_mb),
            )
            for i in range(n):
                machine.submit(matrix_task(i, memory_mb=memory_mb))
            sim.run()
            series.append(
                statistics.mean(r.execution_time for r in machine.results)
            )
        curves[label] = series
    return Fig2Result(counts=tuple(counts), curves=curves, knee_mb=ram_mb)


def print_report(result: Fig2Result) -> str:
    table = Table(
        ["processes", *result.curves],
        title=(
            "Figure 2: avg per-process execution time (s), memory-intensive "
            f"workload (knee expected at {result.knee_mb:.0f} MB demand)"
        ),
    )
    for i, n in enumerate(result.counts):
        table.add_row(n, *(result.curves[label][i] for label in result.curves))
    return table.render()
