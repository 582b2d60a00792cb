"""Figure 8: evolution of the download of 160 clients.

Paper setup: 16 MB file, 4 seeders, every node on a 2 Mbps / 128 kbps /
30 ms DSL profile, clients started 10 s apart; finished clients stay
and seed. Expected shape: every per-client progress curve shows the
three phases (seeders-only start, peer reciprocation, seeder-assisted
finish), and all clients complete by roughly t = 2000 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.tables import Table
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.core.collector import progress_series
from repro.core.report import SwarmSummary, download_phases, summarize_swarm


@dataclass(frozen=True)
class Fig8Result:
    summary: SwarmSummary
    phases_first_client: Dict[str, float]
    progress: Dict[str, List[Tuple[float, float]]]
    last_completion: float


def run_fig8(
    leechers: int = 160,
    seeders: int = 4,
    file_size: int = 16 * 1024 * 1024,
    stagger: float = 10.0,
    num_pnodes: int = 16,
    seed: int = 0,
    max_time: float = 20000.0,
    fluid: bool = False,
) -> Fig8Result:
    config = SwarmConfig(
        leechers=leechers,
        seeders=seeders,
        file_size=file_size,
        stagger=stagger,
        num_pnodes=num_pnodes,
        seed=seed,
        fluid=fluid,
    )
    swarm = Swarm(config)
    last = swarm.run(max_time=max_time)
    trace = swarm.sim.trace
    first_client = swarm.leechers[0].vnode.name
    return Fig8Result(
        summary=summarize_swarm(trace),
        phases_first_client=download_phases(trace, first_client),
        progress=progress_series(trace),
        last_completion=last,
    )


def print_report(result: Fig8Result) -> str:
    table = Table(["metric", "value"], title="Figure 8: 160-client download evolution")
    for name, value in result.summary.as_rows():
        table.add_row(name, value)
    lines = [table.render()]
    ph = result.phases_first_client
    if ph:
        lines.append(
            "first client's phases: "
            f"first piece at {ph['first_piece']:.0f}s, "
            f"to 50% in {ph['to_half']:.0f}s, "
            f"50%->100% in {ph['to_done']:.0f}s"
        )
    return "\n".join(lines)


# -- sweep artifacts (named by the registry entry) ---------------------


def artifacts(result: Fig8Result) -> dict:
    return {
        "last_completion": result.last_completion,
        "clients_plotted": len(result.progress),
        **{f"phase_{k}": v for k, v in sorted(result.phases_first_client.items())},
    }
