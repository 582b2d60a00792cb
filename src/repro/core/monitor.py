"""Per-physical-node resource monitoring.

The paper validates the folding experiment by watching the hosts:
"during the experiment, we monitored the system load, the memory
usage, and the disk I/O on every physical node. None of them was a
problem during our experiments." This module is that watcher for the
emulated testbed: a periodic sampler recording, per physical node,

* CPU utilization (from the :class:`~repro.virt.pnode.CpuAccount`),
* network backlog and throughput (switch port pipes),
* emulation state size (hosted vnodes, firewall rules, pipe backlogs).

Samples are plain records; :func:`summarize` turns them into the
per-node peaks an experimenter checks before trusting a folded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.virt.deployment import Testbed


@dataclass(frozen=True)
class ResourceSample:
    """One observation of one physical node."""

    time: float
    pnode: str
    vnodes: int
    cpu_utilization: float
    tx_bytes: int
    rx_bytes: int
    tx_backlog_bytes: float
    rx_backlog_bytes: float
    fw_rules: int


@dataclass(frozen=True)
class NodeSummary:
    """Peaks over a monitored run for one physical node."""

    pnode: str
    vnodes: int
    peak_cpu: float
    peak_tx_rate: float  # bytes/second between samples
    peak_rx_rate: float
    peak_tx_backlog: float
    peak_rx_backlog: float


class ResourceMonitor:
    """Samples every physical node at a fixed period."""

    def __init__(self, testbed: Testbed, period: float = 10.0) -> None:
        self.testbed = testbed
        self.period = period
        self.samples: List[ResourceSample] = []
        self._started_at: Optional[float] = None
        self._running = False
        self._last_cpu_busy: Dict[str, float] = {}

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._started_at = self.testbed.sim.now
        self.testbed.sim.schedule(0.0, self._sample)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _sample(self) -> None:
        if not self._running:
            return
        sim = self.testbed.sim
        switch = self.testbed.switch
        for pnode in self.testbed.pnodes:
            port = switch._ports.get(pnode.name)
            elapsed = sim.now - (self._started_at or 0.0)
            cpu = pnode.cpu.utilization(elapsed) if elapsed > 0 else 0.0
            self.samples.append(
                ResourceSample(
                    time=sim.now,
                    pnode=pnode.name,
                    vnodes=pnode.folding_ratio,
                    cpu_utilization=cpu,
                    tx_bytes=port.tx.bytes_out if port else 0,
                    rx_bytes=port.rx.bytes_out if port else 0,
                    tx_backlog_bytes=port.tx.backlog_bytes if port else 0.0,
                    rx_backlog_bytes=port.rx.backlog_bytes if port else 0.0,
                    fw_rules=len(pnode.stack.fw),
                )
            )
        sim.schedule(self.period, self._sample)

    # ------------------------------------------------------------------
    def summarize(self) -> List[NodeSummary]:
        """Per-node peaks (rates computed between consecutive samples)."""
        by_node: Dict[str, List[ResourceSample]] = {}
        for sample in self.samples:
            by_node.setdefault(sample.pnode, []).append(sample)
        summaries: List[NodeSummary] = []
        for pnode, series in by_node.items():
            peak_tx_rate = peak_rx_rate = 0.0
            for prev, cur in zip(series, series[1:]):
                dt = cur.time - prev.time
                if dt <= 0:
                    continue
                peak_tx_rate = max(peak_tx_rate, (cur.tx_bytes - prev.tx_bytes) / dt)
                peak_rx_rate = max(peak_rx_rate, (cur.rx_bytes - prev.rx_bytes) / dt)
            summaries.append(
                NodeSummary(
                    pnode=pnode,
                    vnodes=series[-1].vnodes,
                    peak_cpu=max(s.cpu_utilization for s in series),
                    peak_tx_rate=peak_tx_rate,
                    peak_rx_rate=peak_rx_rate,
                    peak_tx_backlog=max(s.tx_backlog_bytes for s in series),
                    peak_rx_backlog=max(s.rx_backlog_bytes for s in series),
                )
            )
        return summaries

    def saturated_nodes(self, port_bandwidth: float, threshold: float = 0.9) -> List[str]:
        """Nodes whose peak port rate exceeded ``threshold`` of capacity —
        the red flag that a folded run is no longer trustworthy."""
        return [
            s.pnode
            for s in self.summarize()
            if max(s.peak_tx_rate, s.peak_rx_rate) > threshold * port_bandwidth
        ]

    def __len__(self) -> int:
        return len(self.samples)
