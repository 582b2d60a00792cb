#!/usr/bin/env python3
"""Quickstart: the P2PLab workflow in one page.

1. Describe a network of virtual nodes (groups + access links).
2. Deploy it onto a few emulated physical nodes (folding).
3. Run real applications — here `ping` and a tiny BitTorrent swarm —
   inside the emulated conditions.

Run:  python examples/quickstart.py
"""

from repro.bittorrent import Swarm, SwarmConfig
from repro.core import Experiment
from repro.net.ping import ping
from repro.topology.presets import bittorrent_profile, uniform_swarm
from repro.units import MB, fmt_duration


def main() -> None:
    # ------------------------------------------------------------------
    # 1+2. Ten DSL nodes (2 Mbps down / 128 kbps up / 30 ms) on two
    #      emulated physical machines.
    # ------------------------------------------------------------------
    exp = Experiment("quickstart", uniform_swarm(10), num_pnodes=2, seed=42)
    vnodes = exp.deploy()
    print(f"deployed {len(vnodes)} virtual nodes "
          f"on {len(exp.testbed.pnodes)} physical nodes")
    print(f"emulation state: {exp.emulation_stats()}")

    # ------------------------------------------------------------------
    # 3a. Measure what a node actually sees: RTT between two virtual
    #     nodes is dominated by their emulated access latency (2 x 30 ms
    #     per direction).
    # ------------------------------------------------------------------
    a, b = vnodes[0], vnodes[5]
    probe = ping(exp.sim, a.pnode.stack, a.address, b.address, count=3)
    exp.run()
    print(f"ping {a.address} -> {b.address}: {probe.result}")

    # ------------------------------------------------------------------
    # 3b. A real BitTorrent swarm under the same conditions (seed,
    #     pnodes) on a testbed of its own.
    # ------------------------------------------------------------------
    swarm = Swarm(SwarmConfig(
        leechers=8, seeders=2, file_size=2 * MB, stagger=2.0,
        num_pnodes=2, seed=42,
    ))
    last = swarm.run(max_time=10000)
    times = swarm.completion_times()
    print(f"\nBitTorrent: 8 clients downloaded 2 MiB each")
    print(f"  first completion: {fmt_duration(times[0])}")
    print(f"  last completion:  {fmt_duration(last)}")
    print(f"  leecher uploads:  {sum(c.bytes_uploaded for c in swarm.leechers) / MB:.1f} MiB "
          "(reciprocation at work)")


if __name__ == "__main__":
    main()
