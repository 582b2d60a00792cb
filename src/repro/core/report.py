"""Figure-shaped summaries of swarm experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.collector import Completions, ProgressSeries, Series
from repro.obs.manifest import RunManifest
from repro.obs.metrics import Snapshot
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class SwarmSummary:
    """Headline numbers of one BitTorrent swarm run."""

    clients: int
    first_completion: float
    median_completion: float
    last_completion: float
    mean_download_time: float

    def as_rows(self) -> List[Tuple[str, float]]:
        return [
            ("clients", self.clients),
            ("first completion (s)", self.first_completion),
            ("median completion (s)", self.median_completion),
            ("last completion (s)", self.last_completion),
            ("mean download time (s)", self.mean_download_time),
        ]


def summarize_swarm(trace: TraceRecorder) -> SwarmSummary:
    """Build the summary from bt.complete records."""
    return swarm_summary(Completions().replay(trace))


def swarm_summary(completions: Completions) -> SwarmSummary:
    """The summary of what a :class:`Completions` reducer saw."""
    times = completions.sorted_times()
    if not times:
        raise ValueError("no completions recorded")
    durations = completions.durations
    return SwarmSummary(
        clients=len(times),
        first_completion=times[0],
        median_completion=times[len(times) // 2],
        last_completion=times[-1],
        mean_download_time=sum(durations) / len(durations),
    )


def format_metrics(snapshot: Snapshot, manifest: Optional[RunManifest] = None) -> str:
    """Plain-text table of a metrics snapshot (optionally headed by the
    run manifest) — what ``python -m repro metrics format=text`` prints
    and what experiments append to their reports."""
    lines: List[str] = []
    if manifest is not None:
        m = manifest.as_dict()
        lines.append("== run manifest ==")
        for key in sorted(k for k in m if k != "extra"):
            lines.append(f"{key:<24} {m[key]}")
        for key, value in m["extra"].items():
            lines.append(f"extra.{key:<18} {value}")
        lines.append("")
    lines.append("== metrics ==")
    width = max((len(name) for name in snapshot), default=0)
    for name, metric in snapshot.items():
        kind = metric["kind"]
        if kind == "histogram":
            mean = (
                metric["sum"] / metric["count"] if metric["count"] else 0.0  # type: ignore[operator]
            )
            lines.append(
                f"{name:<{width}}  count={metric['count']} "
                f"mean={mean:.6g} min={metric.get('min')} max={metric.get('max')}"
            )
        elif kind == "gauge":
            lines.append(
                f"{name:<{width}}  value={metric['value']} peak={metric['peak']}"
            )
        else:
            lines.append(f"{name:<{width}}  {metric['value']}")
    return "\n".join(lines)


def metrics_highlights(snapshot: Snapshot) -> List[Tuple[str, Any]]:
    """The handful of platform-health numbers worth printing after any
    run: events processed, rules scanned per packet, drop counts,
    retransmissions — the paper's overload red flags."""
    def val(name: str, field: str = "value") -> Any:
        metric = snapshot.get(name)
        return metric[field] if metric is not None else 0

    packets = val("net.ipfw.packets_evaluated") or 1
    rows: List[Tuple[str, Any]] = [
        ("events processed", val("sim.kernel.events_processed")),
        ("packets evaluated", val("net.ipfw.packets_evaluated")),
        ("rules scanned / packet", val("net.ipfw.rules_scanned_total") / packets),
        ("pipe drops (loss)", val("net.pipe.drops_loss")),
        ("pipe drops (queue)", val("net.pipe.drops_queue")),
        ("tcp retransmissions", val("net.tcp.retransmissions")),
    ]
    return rows


def download_phases(trace: TraceRecorder, node: str) -> Dict[str, float]:
    """Split one client's download into the paper's three phases.

    Figure 8's narrative: a first (short) part where "only initial
    seeders are able to upload data", a second where "all downloaders
    start contributing", and a third where "the first downloaders
    become seeders and help other peers finish faster". Proxy used
    here: time to first piece, time from first piece to 50%, and time
    from 50% to completion.
    """
    return phases_of(ProgressSeries(node).replay(trace).series.get(node, []))


def phases_of(series: Series) -> Dict[str, float]:
    """:func:`download_phases` of one client's progress series."""
    if not series:
        return {}
    t_first = series[0][0]
    t_half = next((t for t, pct in series if pct >= 50.0), series[-1][0])
    t_done = series[-1][0]
    return {
        "first_piece": t_first,
        "to_half": t_half - t_first,
        "to_done": t_done - t_half,
    }


def sample_progress(
    trace: TraceRecorder, every: int
) -> Dict[str, List[Tuple[float, float]]]:
    """Progress curves of every ``every``-th client, by start order —
    how Figure 10 plots "nodes 50, 100, 150, ... 5750"."""
    return ProgressSeries(every=every).replay(trace).series
