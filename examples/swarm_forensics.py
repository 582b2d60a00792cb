#!/usr/bin/env python3
"""Forensics tooling on a live swarm: sniffer, monitor, statistics.

The paper's methodology relies on instrumenting everything — the
BitTorrent client got time-stamped logging, and "we monitored the
system load, the memory usage, and the disk I/O on every physical
node". This example shows the reproduction's equivalents:

* a :class:`~repro.net.sniffer.Sniffer` (tcpdump for the emulation) on
  the tracker's node, capturing the announce traffic;
* a :class:`~repro.core.monitor.ResourceMonitor` sampling every
  physical node, with the saturation check that validates a folded run;
* swarm statistics: share ratios, piece availability, and the
  seeder/leecher population evolution of the measurement literature.

Run:  python examples/swarm_forensics.py
"""

from repro.analysis.tables import Table, render_ascii_series
from repro.bittorrent import Swarm, SwarmConfig
from repro.bittorrent.stats import (
    connectivity,
    piece_availability,
    seeder_leecher_evolution,
    share_ratios,
)
from repro.core.monitor import ResourceMonitor
from repro.net.sniffer import Sniffer
from repro.units import MB, fmt_rate


def main() -> None:
    swarm = Swarm(SwarmConfig(
        leechers=16, seeders=2, file_size=4 * MB, stagger=2.0,
        num_pnodes=4, seed=11,
    ))

    # Attach instrumentation before launch.
    tracker_stack = swarm.tracker.vnode.pnode.stack
    sniffer = Sniffer(tracker_stack, port=swarm.tracker.port, max_packets=40)
    monitor = ResourceMonitor(swarm.testbed, period=30.0)
    monitor.start()
    # Keep the completion log for the population statistics below.
    swarm.sim.trace.enable("bt.complete")

    last = swarm.run(max_time=20000)
    monitor.stop()
    sniffer.stop()

    print(f"swarm of 16 clients drained at t={last:.0f}s\n")

    print("--- tracker traffic (first announces), tcpdump-style ---")
    print(sniffer.dump(limit=8))
    print(f"... {len(sniffer)} packets captured on port {swarm.tracker.port}\n")

    print("--- physical-node resource peaks ---")
    table = Table(["pnode", "vnodes", "peak cpu", "peak tx", "peak rx"])
    for s in monitor.summarize():
        table.add_row(
            s.pnode, s.vnodes, f"{100 * s.peak_cpu:.2f}%",
            fmt_rate(s.peak_tx_rate), fmt_rate(s.peak_rx_rate),
        )
    print(table)
    saturated = monitor.saturated_nodes(swarm.testbed.switch.port_bandwidth)
    print(f"saturated nodes: {saturated or 'none'} -> folded results are trustworthy\n")

    print("--- swarm statistics ---")
    shares = share_ratios(swarm.leechers)
    print(f"share ratios: mean {shares.mean_ratio:.2f}, "
          f"min {shares.min_ratio:.2f}, max {shares.max_ratio:.2f}, "
          f"upload Gini {shares.gini:.2f}")
    availability = piece_availability(swarm.clients)
    print(f"piece availability: every piece now has {availability.min_copies} copies")
    degrees = connectivity(swarm.clients)
    print(f"peer graph: mean degree {degrees.mean_degree:.1f}, "
          f"isolated nodes {degrees.isolated}")

    print()
    evolution = seeder_leecher_evolution(swarm.sim.trace, total_clients=16)
    print(render_ascii_series(
        [(t, s) for t, s, _l in evolution],
        title="seeders over time (leechers = 16 - seeders)",
    ))


if __name__ == "__main__":
    main()
