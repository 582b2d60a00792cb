"""Interface-alias overhead check (paper, "Virtualization" text).

"Evaluation showed that interface aliases produced no overhead compared
to the normal assignment of an IP address to an interface." We verify
the same property on the emulated stack: RTT to a node's primary
address equals RTT to its 1st and its 100th alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.tables import Table
from repro.net.addr import IPv4Address
from repro.net.ping import ping
from repro.virt.deployment import Testbed


@dataclass(frozen=True)
class AliasOverheadResult:
    primary_rtt: float
    first_alias_rtt: float
    last_alias_rtt: float
    aliases_configured: int

    @property
    def max_overhead(self) -> float:
        return max(self.first_alias_rtt, self.last_alias_rtt) - self.primary_rtt


def run_alias_overhead(aliases: int = 100, pings: int = 5, seed: int = 0) -> AliasOverheadResult:
    testbed = Testbed(num_pnodes=2, seed=seed)
    src, dst = testbed.pnodes
    base = IPv4Address("10.0.0.1")
    for i in range(aliases):
        dst.stack.add_address(base + i)

    def rtt(target) -> float:
        probe = ping(
            testbed.sim, src.stack, src.admin_address, target, count=pings, interval=0.1
        )
        testbed.sim.run()
        return probe.result.avg

    return AliasOverheadResult(
        primary_rtt=rtt(dst.admin_address),
        first_alias_rtt=rtt(base),
        last_alias_rtt=rtt(base + (aliases - 1)),
        aliases_configured=aliases,
    )


def print_report(result: AliasOverheadResult) -> str:
    table = Table(
        ["target", "rtt (ms)"],
        title=f"Interface-alias overhead ({result.aliases_configured} aliases configured)",
    )
    table.add_row("primary address", result.primary_rtt * 1e3)
    table.add_row("alias #1", result.first_alias_rtt * 1e3)
    table.add_row(f"alias #{result.aliases_configured}", result.last_alias_rtt * 1e3)
    lines = [table.render()]
    lines.append(
        f"max overhead vs primary: {result.max_overhead * 1e6:.3f} us "
        "(paper: 'no overhead')"
    )
    return "\n".join(lines)
