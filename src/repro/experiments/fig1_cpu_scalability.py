"""Figure 1: average per-process execution time vs concurrent processes.

Paper setup: dual-Opteron nodes run 1..1000 instances of a CPU-bound,
non-memory-bound program (Ackermann's function, ~1.65 s solo) and the
average per-process execution time is measured. Expected shape: flat
around 1.65 s with a slight *decrease* at higher counts ("probably
because of cache effects and costs that don't depend on the number of
processes") and no scheduler drowning — the y-range of the whole figure
is 1.645-1.69 s.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import Table
from repro.experiments.osprofiles import PROFILES
from repro.hostos.machine import Machine
from repro.hostos.workloads import ackermann_task
from repro.sim import Simulator

DEFAULT_COUNTS: Tuple[int, ...] = (1, 10, 50, 100, 200, 400, 600, 800, 1000)


@dataclass(frozen=True)
class Fig1Result:
    """avg exec time per (profile, process count)."""

    counts: Tuple[int, ...]
    curves: Dict[str, List[float]]  # label -> avg exec time per count


def run_fig1(
    counts: Sequence[int] = DEFAULT_COUNTS,
    profiles: Sequence[str] = tuple(PROFILES),
    seed: int = 0,
) -> Fig1Result:
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
                memory=profile.make_memory(),
            )
            for i in range(n):
                machine.submit(ackermann_task(i))
            sim.run()
            series.append(
                statistics.mean(r.execution_time for r in machine.results)
            )
        curves[label] = series
    return Fig1Result(counts=tuple(counts), curves=curves)


def print_report(result: Fig1Result) -> str:
    table = Table(
        ["processes", *result.curves],
        title="Figure 1: avg per-process execution time (s), CPU-bound workload",
    )
    for i, n in enumerate(result.counts):
        table.add_row(n, *(result.curves[label][i] for label in result.curves))
    return table.render()


# -- sweep artifacts (named by the registry entry) ---------------------


def artifacts(result: Fig1Result) -> dict:
    flat = [v for series in result.curves.values() for v in series]
    return {
        "profiles": len(result.curves),
        "max_count": max(result.counts),
        "exec_time_min": min(flat),
        "exec_time_max": max(flat),
    }
