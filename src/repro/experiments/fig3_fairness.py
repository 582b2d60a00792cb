"""Figure 3: fairness CDFs of 100 simultaneous CPU-bound instances.

Paper setup: 100 instances of a ~5 s program started at the same time;
the CDF of per-instance completion times is plotted. Expected shape:
4BSD and Linux 2.6 nearly vertical around 250 s (100 x 5 s on 2 CPUs);
ULE visibly spread (the x-axis of the figure runs 210-290 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.cdf import empirical_cdf, spread
from repro.analysis.tables import Table
from repro.experiments.osprofiles import PROFILES
from repro.hostos.machine import Machine
from repro.hostos.workloads import fairness_task
from repro.sim import Simulator


@dataclass(frozen=True)
class Fig3Result:
    instances: int
    finish_times: Dict[str, List[float]]  # label -> sorted completion times

    def cdf(self, label: str) -> List[Tuple[float, float]]:
        return empirical_cdf(self.finish_times[label])

    def spread(self, label: str) -> float:
        return spread(self.finish_times[label])


def run_fig3(
    instances: int = 100,
    profiles: Sequence[str] = tuple(PROFILES),
    seed: int = 0,
) -> Fig3Result:
    finish: Dict[str, List[float]] = {}
    for label in profiles:
        profile = PROFILES[label]
        sim = Simulator(seed=seed)
        machine = Machine(sim, profile.make_scheduler(), ncpus=2)
        # "An high priority process starts the instances with a lower
        # priority" — i.e. all at the same instant.
        for i in range(instances):
            machine.submit(fairness_task(i))
        sim.run()
        finish[label] = sorted(r.finish_time for r in machine.results)
    return Fig3Result(instances=instances, finish_times=finish)


def print_report(result: Fig3Result) -> str:
    table = Table(
        ["scheduler", "min (s)", "p25", "median", "p75", "max", "spread"],
        title=f"Figure 3: completion-time distribution, {result.instances} instances",
    )
    for label, times in result.finish_times.items():
        n = len(times)
        table.add_row(
            label,
            times[0],
            times[n // 4],
            times[n // 2],
            times[3 * n // 4],
            times[-1],
            result.spread(label),
        )
    return table.render()


# -- sweep artifacts (named by the registry entry) ---------------------


def artifacts(result: Fig3Result) -> dict:
    return {
        "instances": result.instances,
        **{f"spread_{label}": result.spread(label) for label in sorted(result.finish_times)},
    }
