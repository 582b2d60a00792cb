"""Figure-shaped series from the experiment's client log.

The paper's methodology: the client "was slightly modified to allow
data collection (a time-stamp was added to the default output)" and the
figures are built from those logs. Here the log is a stream of
:class:`~repro.sim.trace.TraceRecord` s, and each series is computed by
a *reducer* that sees every record of one category as it is emitted:

* :class:`ProgressSeries` — per-client ``bt.progress`` curves, for one
  node, for all of them, or for every k-th client by start order;
* :class:`Completions` — ``bt.complete`` times and download durations;
* :class:`PayloadCurve` — total verified payload, bucketed in time.

An experiment attaches its reducers before the run
(``ProgressSeries().attach(sim.trace)``), so the simulator retains no
record for it. The functions below keep the trace-reading API: each
replays a *retained* trace through the same reducer. Simulated records
arrive in time order, which is what lets a reducer rank and bucket
online.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.trace import TraceRecord, TraceRecorder

Series = List[Tuple[float, float]]


class _Reducer:
    """One category's consumer: ``attach`` listens to a live run,
    ``replay`` feeds it a retained trace."""

    category = ""

    def attach(self, trace: TraceRecorder):
        trace.subscribe(self.category, self)
        return self

    def replay(self, trace: TraceRecorder):
        for rec in trace.select(self.category):
            self(rec)
        return self


class ProgressSeries(_Reducer):
    """Per-client download progress curves (Figures 8 and 10):
    ``series`` is ``{node: [(time, percent), ...]}`` from ``bt.progress``.

    ``node`` keeps that client only. ``every`` keeps every ``every``-th
    client ranked by the time of its first record — how Figure 10 plots
    "nodes 50, 100, 150, ... 5750". Records arrive in time order, so
    that rank is the order in which clients first appear (ties keep
    arrival order), and a client that is not kept costs one set entry.
    """

    category = "bt.progress"

    def __init__(self, node: Optional[str] = None, every: int = 1) -> None:
        self.node = node
        self.every = every
        self.series: Dict[str, Series] = {}
        self._ranked = 0
        self._skipped: Set[str] = set()

    def __call__(self, rec: TraceRecord) -> None:
        name = rec.get("node")
        series = self.series.get(name)
        if series is None:
            if self.node is not None and name != self.node:
                return
            if name in self._skipped:
                return
            self._ranked += 1
            if self._ranked % self.every:
                self._skipped.add(name)
                return
            series = self.series[name] = []
        series.append((rec.time, rec.get("pct")))


class Completions(_Reducer):
    """Completion times and download durations from ``bt.complete``,
    both in arrival order."""

    category = "bt.complete"

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []

    def __call__(self, rec: TraceRecord) -> None:
        self.times.append(rec.time)
        self.durations.append(rec.get("duration"))

    def sorted_times(self) -> List[float]:
        return sorted(self.times)

    def curve(self) -> Series:
        """Clients-having-completed-over-time step curve (Figure 11)."""
        return [(t, float(i + 1)) for i, t in enumerate(self.sorted_times())]


class PayloadCurve(_Reducer):
    """Total payload received by all clients vs time (Figure 9).

    Sampled at ``bucket``-second boundaries (inclusive); the y value is
    cumulative bytes of verified piece payload across all clients. The
    integer deltas add up exactly in the float, so their order within
    one instant does not show.
    """

    category = "bt.progress"

    def __init__(self, bucket: float = 10.0) -> None:
        self.bucket = bucket
        self._last_payload: Dict[str, int] = {}
        self._points: Series = []
        self._cumulative = 0.0
        self._edge = bucket

    def __call__(self, rec: TraceRecord) -> None:
        node = rec.get("node")
        payload = rec.get("payload")
        delta = payload - self._last_payload.get(node, 0)
        self._last_payload[node] = payload
        while rec.time > self._edge:
            self._points.append((self._edge, self._cumulative))
            self._edge += self.bucket
        self._cumulative += delta

    def curve(self) -> Series:
        return self._points + [(self._edge, self._cumulative)]


def progress_series(trace: TraceRecorder, node: Optional[str] = None) -> Dict[str, Series]:
    """Per-client download progress curves (Figures 8 and 10).

    Returns ``{node: [(time, percent), ...]}`` from ``bt.progress``.
    """
    return ProgressSeries(node).replay(trace).series


def completion_curve(trace: TraceRecorder) -> Series:
    """Clients-having-completed-over-time step curve (Figure 11)."""
    return Completions().replay(trace).curve()


def total_payload_curve(trace: TraceRecorder, bucket: float = 10.0) -> Series:
    """Total payload received by all clients vs time (Figure 9)."""
    return PayloadCurve(bucket).replay(trace).curve()


def completion_times(trace: TraceRecorder) -> List[float]:
    """Sorted absolute completion times of all clients."""
    return Completions().replay(trace).sorted_times()


def selected_nodes(names: Sequence[str], every: int) -> List[str]:
    """Every ``every``-th node name (Figure 10 plots nodes 50, 100, ...)."""
    return [name for i, name in enumerate(names, start=1) if i % every == 0]
