"""Figure 9: the folding ratio — identical results at 1..80 clients
per physical node.

Paper setup: the Figure 8 swarm deployed successively on 160, 16, 8, 4
and 2 physical nodes; the figure plots total data received by all
clients over time and finds the curves "nearly identical": no
emulation overhead until the physical network would saturate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.series import relative_gap
from repro.analysis.tables import Table
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.core.collector import total_payload_curve
from repro.experiments.api import RunRequest, RunResult
from repro.units import MB, gbps

Series = List[Tuple[float, float]]


@dataclass(frozen=True)
class Fig9Result:
    foldings: Tuple[int, ...]  # physical node counts
    clients_per_pnode: Tuple[int, ...]
    curves: Dict[int, Series]  # pnodes -> total-bytes curve
    last_completions: Dict[int, float]
    max_relative_gap: float  # worst curve divergence vs the unfolded run


def run_fig9(
    pnode_counts: Sequence[int] = (160, 16, 8, 4, 2),
    leechers: int = 160,
    seeders: int = 4,
    file_size: int = 16 * MB,
    stagger: float = 10.0,
    seed: int = 0,
    max_time: float = 20000.0,
    port_bandwidth: float = gbps(1),
) -> Fig9Result:
    curves: Dict[int, Series] = {}
    last: Dict[int, float] = {}
    for pnodes in pnode_counts:
        config = SwarmConfig(
            leechers=leechers,
            seeders=seeders,
            file_size=file_size,
            stagger=stagger,
            num_pnodes=pnodes,
            seed=seed,
        )
        swarm = Swarm(config)
        swarm.testbed.switch.port_bandwidth = port_bandwidth
        last[pnodes] = swarm.run(max_time=max_time)
        curves[pnodes] = total_payload_curve(swarm.sim.trace, bucket=20.0)

    reference = curves[pnode_counts[0]]
    horizon = max(t for c in curves.values() for t, _ in c)
    grid = [i * 20.0 for i in range(int(horizon / 20.0) + 1)]
    worst = max(
        relative_gap(reference, curves[p], grid) for p in pnode_counts[1:]
    ) if len(pnode_counts) > 1 else 0.0
    total = leechers + seeders
    return Fig9Result(
        foldings=tuple(pnode_counts),
        clients_per_pnode=tuple(-(-total // p) for p in pnode_counts),
        curves=curves,
        last_completions=last,
        max_relative_gap=worst,
    )


def print_report(result: Fig9Result) -> str:
    table = Table(
        ["pnodes", "clients/pnode", "last completion (s)", "final bytes"],
        title="Figure 9: folding ratio (total data received must not depend on folding)",
    )
    for pnodes in result.foldings:
        curve = result.curves[pnodes]
        table.add_row(
            pnodes,
            result.clients_per_pnode[result.foldings.index(pnodes)],
            result.last_completions[pnodes],
            curve[-1][1],
        )
    lines = [table.render()]
    lines.append(
        f"max relative curve divergence vs unfolded run: "
        f"{100 * result.max_relative_gap:.2f}% (paper: 'nearly identical')"
    )
    return "\n".join(lines)


# -- sweep artifacts and the per-point entry (RunRequest -> RunResult) --


def artifacts(result: Fig9Result) -> dict:
    return {
        "max_relative_gap": result.max_relative_gap,
        "foldings": len(result.foldings),
        "last_completion_unfolded": result.last_completions[result.foldings[0]],
    }


def point_artifacts(
    num_pnodes: int = 16,
    leechers: int = 160,
    seeders: int = 4,
    file_size: int = 16 * MB,
    stagger: float = 10.0,
    port_bandwidth: float = gbps(1),
    max_time: float = 20000.0,
    seed: int = 0,
) -> dict:
    """One sweep point's artifacts: the Figure 8 swarm at a single
    folding (``num_pnodes``); the sweep aggregate then compares final
    bytes and completion times across foldings."""
    pnodes = int(num_pnodes)
    leechers = int(leechers)
    seeders = int(seeders)
    config = SwarmConfig(
        leechers=leechers,
        seeders=seeders,
        file_size=int(file_size),
        stagger=float(stagger),
        num_pnodes=pnodes,
        seed=seed,
    )
    swarm = Swarm(config)
    swarm.testbed.switch.port_bandwidth = float(port_bandwidth)
    last = swarm.run(max_time=float(max_time))
    curve = total_payload_curve(swarm.sim.trace, bucket=20.0)
    return {
        "num_pnodes": pnodes,
        "clients_per_pnode": -(-(leechers + seeders) // pnodes),
        "last_completion": last,
        "final_bytes": curve[-1][1] if curve else 0.0,
    }


def run_point(request: RunRequest) -> RunResult:
    """One sweep point (the parameters of :func:`point_artifacts`)."""
    doc = point_artifacts(**{"seed": request.seed, **request.kwargs})
    return RunResult.ok(
        request,
        artifacts=doc,
        report=(
            f"folding {doc['num_pnodes']} pnodes: last completion "
            f"{doc['last_completion']:.0f}s, final bytes {doc['final_bytes']:.0f}"
        ),
    )


#: The registry checks a sweep point's parameters against this signature.
run_point.__wrapped__ = point_artifacts
