"""Figure 6: round-trip time vs number of firewall rules.

Paper setup: ping between two nodes while the first node's firewall
holds a varying number of rules; "latency increases nearly linearly
with the number of rules, because the rules are evaluated linearly by
the firewall" — about 5 ms at 50 000 rules.

This module measures **both** cost models of the standard
:class:`~repro.net.ipfw.Firewall`: the linear scan (IPFW reality,
the figure's subject) and the hash-indexed counterfactual
(``Firewall(name, indexed=True)`` — what the paper says IPFW cannot
do).
The report shows the two paths side by side; the indexed curve is
flat, which is exactly why the rule count is P2PLab's scalability
limit.

Sweep support: ``python -m repro sweep fig6`` fans one
:func:`run_point` per rule count out over the runtime's worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.experiments.api import RunRequest, RunResult
from repro.net.addr import IPv4Network
from repro.net.ipfw import ACTION_COUNT
from repro.net.ping import ping
from repro.virt.deployment import Testbed

DEFAULT_RULE_COUNTS: Tuple[int, ...] = (0, 10000, 20000, 30000, 40000, 50000)

#: Filler rules match exact host addresses in a prefix no experiment
#: traffic uses, so a linear walk scans past every one of them (like
#: the paper's padding) while a hash index skips them entirely.
FILLER_PREFIX = IPv4Network("172.16.0.0/16")

Rtt = Tuple[float, float, float]  # (avg, min, max) seconds


@dataclass(frozen=True)
class Fig6Result:
    rule_counts: Tuple[int, ...]
    rtts: Tuple[Rtt, ...]  # linear-scan path
    #: Same probes against the hash-indexed cost model (flat curve);
    #: ``None`` when the comparison was disabled.
    indexed_rtts: Optional[Tuple[Rtt, ...]] = None

    def slope_us_per_rule(self) -> float:
        """Least-squares slope of avg RTT vs rule count, in us/rule."""
        n = len(self.rule_counts)
        xs = self.rule_counts
        ys = [r[0] for r in self.rtts]
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        den = sum((x - mean_x) ** 2 for x in xs)
        return (num / den) * 1e6 if den else 0.0


def measure_rtt(
    rule_count: int,
    pings_per_point: int = 5,
    seed: int = 0,
    indexed: bool = False,
) -> Rtt:
    """One figure point: RTT through a firewall holding ``rule_count``
    filler rules, under the selected cost model."""
    testbed = Testbed(num_pnodes=2, seed=seed)
    sim = testbed.sim
    node1, node2 = testbed.pnodes
    node1.stack.fw.indexed = indexed
    # Distinct host addresses keep each rule hash-indexable; wrap
    # before the /16 runs out of hosts (never reached in practice).
    span = FILLER_PREFIX.num_addresses - 2
    for i in range(rule_count):
        node1.stack.fw.add(ACTION_COUNT, src=FILLER_PREFIX.host(1 + i % span))
    probe = ping(
        sim,
        node1.stack,
        node1.admin_address,
        node2.admin_address,
        count=pings_per_point,
        interval=0.2,
    )
    sim.run()
    res = probe.result
    return (res.avg, res.min, res.max)


def run_fig6(
    rule_counts: Sequence[int] = DEFAULT_RULE_COUNTS,
    pings_per_point: int = 5,
    seed: int = 0,
    compare_indexed: bool = True,
) -> Fig6Result:
    rtts: List[Rtt] = []
    indexed: List[Rtt] = []
    for count in rule_counts:
        rtts.append(measure_rtt(count, pings_per_point, seed, indexed=False))
        if compare_indexed:
            indexed.append(measure_rtt(count, pings_per_point, seed, indexed=True))
    return Fig6Result(
        rule_counts=tuple(rule_counts),
        rtts=tuple(rtts),
        indexed_rtts=tuple(indexed) if compare_indexed else None,
    )


def print_report(result: Fig6Result) -> str:
    headers = ["rules", "rtt avg (ms)", "min", "max"]
    if result.indexed_rtts is not None:
        headers.append("indexed avg (ms)")
    table = Table(
        headers,
        title="Figure 6: RTT vs number of firewall rules (linear scan)",
    )
    for i, (count, (avg, lo, hi)) in enumerate(zip(result.rule_counts, result.rtts)):
        row = [count, avg * 1e3, lo * 1e3, hi * 1e3]
        if result.indexed_rtts is not None:
            row.append(result.indexed_rtts[i][0] * 1e3)
        table.add_row(*row)
    lines = [table.render()]
    lines.append(f"slope: {result.slope_us_per_rule():.4f} us/rule (paper: ~0.1 us/rule)")
    if result.indexed_rtts is not None:
        flat = max(r[0] for r in result.indexed_rtts) - min(
            r[0] for r in result.indexed_rtts
        )
        lines.append(
            f"hash-indexed path: flat within {flat * 1e3:.3f} ms — the lookup "
            "IPFW cannot do (paper, 'Network Emulation')"
        )
    return "\n".join(lines)


# -- sweep artifacts and the per-point entry (RunRequest -> RunResult) --


def artifacts(result: Fig6Result) -> dict:
    doc = {
        "slope_us_per_rule": result.slope_us_per_rule(),
        "max_rtt_avg": max(r[0] for r in result.rtts),
    }
    if result.indexed_rtts is not None:
        doc["max_rtt_avg_indexed"] = max(r[0] for r in result.indexed_rtts)
    return doc


def point_artifacts(rule_count: int = 0, pings_per_point: int = 5, seed: int = 0) -> dict:
    """One sweep point's artifacts: a single rule count, both firewall
    paths."""
    rule_count = int(rule_count)
    pings = int(pings_per_point)
    avg, lo, hi = measure_rtt(rule_count, pings, seed, indexed=False)
    iavg, _ilo, _ihi = measure_rtt(rule_count, pings, seed, indexed=True)
    return {
        "rule_count": rule_count,
        "rtt_avg_ms": avg * 1e3,
        "rtt_min_ms": lo * 1e3,
        "rtt_max_ms": hi * 1e3,
        "rtt_avg_indexed_ms": iavg * 1e3,
    }


def run_point(request: RunRequest) -> RunResult:
    """One sweep point (the parameters of :func:`point_artifacts`)."""
    doc = point_artifacts(**{"seed": request.seed, **request.kwargs})
    return RunResult.ok(
        request,
        artifacts=doc,
        report=(
            f"rules={doc['rule_count']}: linear {doc['rtt_avg_ms']:.3f} ms, "
            f"indexed {doc['rtt_avg_indexed_ms']:.3f} ms"
        ),
    )


#: The registry checks a sweep point's parameters against this signature.
run_point.__wrapped__ = point_artifacts
