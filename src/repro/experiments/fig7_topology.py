"""Figure 7: the hierarchical example topology and its latency
decomposition.

Paper measurement: latency between 10.1.3.207 (fast-DSL subnet, 20 ms)
and 10.2.2.117 (group2, 5 ms) across the 400 ms inter-group link was
853 ms: 20 + 400 + 5 one way, 425 for the return, ~3 ms of underlying
network and rule-evaluation overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.tables import Table
from repro.net.ping import ping
from repro.topology.compiler import compile_topology
from repro.topology.presets import figure7_topology
from repro.units import ms
from repro.virt.deployment import Testbed


@dataclass(frozen=True)
class Fig7Result:
    measured_rtt: float
    expected_propagation: float
    overhead: float
    pair_rtts: Dict[str, float]  # "groupA->groupB" -> measured RTT
    rules_per_pnode: float


def run_fig7(scale: float = 0.02, num_pnodes: int = 8, seed: int = 0) -> Fig7Result:
    testbed = Testbed(num_pnodes=num_pnodes, seed=seed)
    spec = figure7_topology(scale=scale)
    compiler = compile_topology(spec, testbed)
    sim = testbed.sim

    def measure(src_group: str, dst_group: str) -> float:
        src = compiler.vnodes(src_group)[-1]
        dst = compiler.vnodes(dst_group)[-1]
        probe = ping(
            sim, src.pnode.stack, src.address, dst.address, count=3, interval=2.0,
            timeout=10.0,
        )
        sim.run()
        return probe.result.avg

    # The paper's headline pair: dsl-fast (20 ms) <-> group2 (5 ms).
    headline = measure("dsl-fast", "group2")
    expected = 2 * (ms(20) + ms(400) + ms(5))

    pair_rtts = {
        "dsl-fast->group2": headline,
        "dsl-fast->modem": measure("dsl-fast", "modem"),
        "dsl-fast->group3": measure("dsl-fast", "group3"),
        "group2->group3": measure("group2", "group3"),
    }
    rules = sum(len(p.stack.fw) for p in testbed.pnodes) / len(testbed.pnodes)
    return Fig7Result(
        measured_rtt=headline,
        expected_propagation=expected,
        overhead=headline - expected,
        pair_rtts=pair_rtts,
        rules_per_pnode=rules,
    )


def print_report(result: Fig7Result) -> str:
    table = Table(
        ["pair", "measured rtt (ms)"],
        title="Figure 7 topology: measured inter-group RTTs",
    )
    for pair, rtt in result.pair_rtts.items():
        table.add_row(pair, rtt * 1e3)
    lines = [table.render()]
    lines.append(
        "decomposition (paper: 853 ms measured = 2x(20+400+5) ms + ~3 ms overhead):"
    )
    lines.append(
        f"  measured {result.measured_rtt * 1e3:.1f} ms = "
        f"{result.expected_propagation * 1e3:.0f} ms propagation "
        f"+ {result.overhead * 1e3:.2f} ms overhead"
    )
    lines.append(f"  avg firewall rules per physical node: {result.rules_per_pnode:.1f}")
    return "\n".join(lines)
