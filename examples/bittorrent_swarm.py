#!/usr/bin/env python3
"""The paper's BitTorrent experiment (Figure 8), configurable.

Default parameters are the paper's: 160 clients + 4 seeders download a
16 MB file over 2 Mbps / 128 kbps / 30 ms DSL links, starting 10 s
apart, folded onto 16 emulated physical nodes. Expect ~10-20 s of wall
time at the defaults (4.7 M simulated events).

Run:  python examples/bittorrent_swarm.py [--leechers N] [--file-mb M]
      python examples/bittorrent_swarm.py --leechers 40 --file-mb 8   # quick
"""

import argparse

from repro.analysis.tables import render_ascii_series
from repro.bittorrent import Swarm, SwarmConfig
from repro.core.collector import Completions, ProgressSeries
from repro.core.report import phases_of, swarm_summary
from repro.units import MB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--leechers", type=int, default=160)
    parser.add_argument("--seeders", type=int, default=4)
    parser.add_argument("--file-mb", type=int, default=16)
    parser.add_argument("--stagger", type=float, default=10.0)
    parser.add_argument("--pnodes", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    swarm = Swarm(SwarmConfig(
        leechers=args.leechers,
        seeders=args.seeders,
        file_size=args.file_mb * MB,
        stagger=args.stagger,
        num_pnodes=args.pnodes,
        seed=args.seed,
    ))
    # Reducers read the client log as it is written; nothing is retained.
    first_client = swarm.leechers[0].vnode.name
    progress = ProgressSeries(node=first_client).attach(swarm.sim.trace)
    completions = Completions().attach(swarm.sim.trace)
    print(f"running: {args.leechers} clients, {args.file_mb} MiB, "
          f"stagger {args.stagger}s, {args.pnodes} pnodes ...")
    last = swarm.run(max_time=50000)

    summary = swarm_summary(completions)
    for name, value in summary.as_rows():
        print(f"  {name:<26} {value:.1f}" if isinstance(value, float) else f"  {name:<26} {value}")

    series = progress.series[first_client]
    phases = phases_of(series)
    print(f"\nfirst client's three phases (paper Figure 8 narrative):")
    print(f"  seeders-only start : first piece after {phases['first_piece'] - 0.1:.0f}s")
    print(f"  reciprocation      : to 50% in {phases['to_half']:.0f}s")
    print(f"  seeder-assisted end: to 100% in {phases['to_done']:.0f}s")

    print()
    print(render_ascii_series(
        series,
        title=f"progress of {first_client} (% vs seconds)",
    ))
    print()
    print(render_ascii_series(
        completions.curve(),
        title="clients having completed (Figure 11 shape)",
    ))
    print(f"\nsimulated {swarm.sim.events_processed} events "
          f"to t={swarm.sim.now:.0f}s; last completion {last:.0f}s")


if __name__ == "__main__":
    main()
