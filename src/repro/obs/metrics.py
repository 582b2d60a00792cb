"""Deterministic metrics: counters, gauges and fixed-bucket histograms.

Every layer of the emulation keeps ad-hoc private counters
(``Simulator.events_processed``, ``Rule.hits``, pipe drop counts, ...).
This module gives them a *shared registry* so an experiment can
snapshot the whole platform in one call, diff two snapshots, and
export the result — the paper's validation figures (scheduler
fairness, IPFW rule cost, folding ratio) are all "measure the
platform" exercises, and LiteLab-style harnesses show those numbers
are only trustworthy when collected uniformly.

Design rules:

* **Determinism.** Metrics derived from simulation state (sim-time,
  event counts, byte counts) are *deterministic*: two runs with the
  same seed must produce byte-identical snapshots. Metrics that
  describe the host's execution rather than the simulation (flow-cache
  hits, the lazy-pipe ledger, the fluid agenda) are flagged
  ``wall=True`` and excluded from :meth:`MetricsRegistry.snapshot`
  in its default deterministic mode.
* **Naming.** ``layer.component.metric`` with dots, e.g.
  ``sim.kernel.events_processed``, ``net.ipfw.rules_scanned_total``,
  ``bt.client.choke_rounds``.
* **Read-time fold.** Per-packet sites call no instrument: they bump
  a plain slot on the object that owns the number, declared once
  through :meth:`MetricsRegistry.feed`, and every registry read first
  *assigns* each fed instrument the sum of its owners' slots. A held
  instrument that is fed this way is current only after such a read.
  Cold paths keep the push API (``inc``/``set``/``observe``).
* **Zero-overhead no-op.** :data:`NULL_REGISTRY` hands out shared
  do-nothing instruments and ignores ``feed``: a disabled run keeps
  the slot bumps and pays no call for them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError


#: Default histogram bucket edges (seconds-flavoured, log-ish spacing).
#: Fixed edges keep bucket counts comparable across runs and machines.
DEFAULT_EDGES: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
)

#: Bucket edges suited to byte-sized observations (queue occupancy).
BYTES_EDGES: Tuple[float, ...] = (
    0.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "wall", "value")

    kind = "counter"

    def __init__(self, name: str, wall: bool = False) -> None:
        self.name = name
        self.wall = wall
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Point-in-time value with peak tracking."""

    __slots__ = ("name", "wall", "value", "peak")

    kind = "gauge"

    def __init__(self, name: str, wall: bool = False) -> None:
        self.name = name
        self.wall = wall
        self.value: float = 0
        self.peak: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value, "peak": self.peak}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value}, peak={self.peak})"


class Histogram:
    """Fixed-bucket histogram (cumulative-free, per-bucket counts).

    ``edges`` are upper bounds; an observation lands in the first
    bucket whose edge is >= the value, or the overflow bucket. The
    edges are part of the metric's identity — registering the same
    name with different edges raises.
    """

    __slots__ = ("name", "wall", "edges", "counts", "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(
        self, name: str, edges: Sequence[float] = DEFAULT_EDGES, wall: bool = False
    ) -> None:
        if list(edges) != sorted(edges):
            raise ObservabilityError(f"histogram {name!r}: edges must be sorted")
        if not edges:
            raise ObservabilityError(f"histogram {name!r}: needs at least one edge")
        self.name = name
        self.wall = wall
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)  # +overflow
        self.count = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # bisect_left: bucket i holds values <= edges[i]; the last
        # slot is the overflow bucket for values beyond every edge.
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "edges": list(self.edges),
            "counts": list(self.counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum:.6f})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

Snapshot = Dict[str, Dict[str, object]]


class MetricsRegistry:
    """Name-keyed store of instruments, shared by one experiment.

    Instruments are get-or-create: calling :meth:`counter` twice with
    the same name returns the same object, so every firewall / pipe /
    connection in a run aggregates into one platform-wide metric.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        #: fed instrument -> (its ``observe()`` side when a histogram,
        #: the ``(owner, slot)`` pairs whose sum it is assigned).
        self._feeds: Dict[object, Tuple[Optional[Histogram], List[Tuple[object, str]]]] = {}
        self._shared: Dict[object, object] = {}

    # -- factories -----------------------------------------------------
    def _get_or_create(self, name: str, kind: str, factory) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if metric.kind != kind:  # type: ignore[attr-defined]
            raise ObservabilityError(
                f"metric {name!r} already registered as {metric.kind}"  # type: ignore[attr-defined]
            )
        return metric

    def counter(self, name: str, wall: bool = False) -> Counter:
        return self._get_or_create(name, "counter", lambda: Counter(name, wall))  # type: ignore[return-value]

    def gauge(self, name: str, wall: bool = False) -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name, wall))  # type: ignore[return-value]

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_EDGES, wall: bool = False
    ) -> Histogram:
        hist = self._get_or_create(name, "histogram", lambda: Histogram(name, edges, wall))
        if hist.edges != tuple(edges):  # type: ignore[attr-defined]
            raise ObservabilityError(
                f"histogram {name!r} already registered with different edges"
            )
        return hist  # type: ignore[return-value]

    # -- read-time fold ------------------------------------------------
    def shared(self, factory):
        """This registry's one ``factory(self)`` object: the tally that
        owners too many or too short-lived to feed one by one (pipes,
        connections) bump together."""
        tally = self._shared.get(factory)
        if tally is None:
            tally = self._shared[factory] = factory(self)
        return tally

    def feed(self, owner: object, **slots: object) -> None:
        """Declare, once at construction, that these instruments' totals
        live in ``owner``'s plain slots: ``slot=counter_or_gauge``.
        Owners feeding one instrument are summed, and held for the
        registry's lifetime, so what they counted stays counted."""
        for slot, metric in slots.items():
            self._feeds.setdefault(metric, (None, []))[1].append((owner, slot))

    def feed_zeros(self, hist: Histogram, owner: object, slot: str) -> Histogram:
        """``owner.slot`` counts the 0.0 observations of ``hist``;
        returns the histogram to ``observe()`` the others on. Exact:
        ``observe(0.0)`` lands in bucket 0 and leaves ``sum`` as is."""
        pushed, sources = self._feeds.setdefault(
            hist, (Histogram(hist.name, hist.edges, hist.wall), [])
        )
        sources.append((owner, slot))
        return pushed  # type: ignore[return-value]

    def fold(self) -> None:
        """Bring every fed instrument up to date. Totals are assigned,
        never added to: folding again, or from a second thread mid-run,
        yields what folding once does."""
        for metric, (pushed, sources) in list(self._feeds.items()):
            total = 0
            for owner, slot in sources:
                total += getattr(owner, slot)
            if pushed is None:
                if metric.kind == "gauge":  # type: ignore[attr-defined]
                    metric.set(total)  # type: ignore[attr-defined]
                else:
                    metric.value = total  # type: ignore[attr-defined]
                continue
            counts = list(pushed.counts)
            counts[0] += total
            metric.counts = counts  # type: ignore[attr-defined]
            metric.count = pushed.count + total  # type: ignore[attr-defined]
            metric.sum = pushed.sum  # type: ignore[attr-defined]
            low, high = pushed.min, pushed.max
            if total:
                low = 0.0 if low is None or low > 0.0 else low
                high = 0.0 if high is None or high < 0.0 else high
            metric.min, metric.max = low, high  # type: ignore[attr-defined]

    # -- introspection -------------------------------------------------
    def get(self, name: str) -> Optional[object]:
        self.fold()
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- snapshots -----------------------------------------------------
    def snapshot(self, include_wall: bool = False) -> Snapshot:
        """Sorted ``{name: {kind, value, ...}}`` view of the registry.

        The default excludes wall-clock-derived instruments so that two
        same-seed runs produce byte-identical snapshots (the
        reproducibility guard the paper's methodology needs).
        """
        self.fold()
        out: Snapshot = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.wall and not include_wall:  # type: ignore[attr-defined]
                continue
            out[name] = metric.as_dict()  # type: ignore[attr-defined]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"


def diff_snapshots(before: Snapshot, after: Snapshot) -> Snapshot:
    """Per-metric delta between two snapshots of the *same* registry.

    Counters/gauges report ``value`` deltas (gauges also the later
    peak); histograms report count/sum deltas and per-bucket count
    deltas. Metrics absent from ``before`` diff against zero.
    """
    out: Snapshot = {}
    for name, cur in after.items():
        prev = before.get(name)
        kind = cur["kind"]
        if kind == "histogram":
            prev_counts = prev["counts"] if prev else [0] * len(cur["counts"])  # type: ignore[index]
            out[name] = {
                "kind": kind,
                "count": cur["count"] - (prev["count"] if prev else 0),  # type: ignore[operator]
                "sum": cur["sum"] - (prev["sum"] if prev else 0.0),  # type: ignore[operator]
                "counts": [c - p for c, p in zip(cur["counts"], prev_counts)],  # type: ignore[arg-type]
                "edges": cur["edges"],
            }
        else:
            entry: Dict[str, object] = {
                "kind": kind,
                "value": cur["value"] - (prev["value"] if prev else 0),  # type: ignore[operator]
            }
            if kind == "gauge":
                entry["peak"] = cur["peak"]
            out[name] = entry
    return out


# ----------------------------------------------------------------------
# Zero-overhead no-op mode
# ----------------------------------------------------------------------


class NullCounter:
    """Do-nothing counter (shared singleton via :data:`NULL_REGISTRY`)."""

    __slots__ = ()
    kind = "counter"
    name = "<null>"
    wall = False
    value = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:  # pragma: no cover - never exported
        return {"kind": self.kind, "value": 0}


class NullGauge:
    __slots__ = ()
    kind = "gauge"
    name = "<null>"
    wall = False
    value = 0
    peak = 0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:  # pragma: no cover - never exported
        return {"kind": self.kind, "value": 0, "peak": 0}


class NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = "<null>"
    wall = False
    edges: Tuple[float, ...] = ()
    count = 0
    sum = 0.0
    min = None
    max = None

    def observe(self, value: float) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:  # pragma: no cover - never exported
        return {"kind": self.kind, "count": 0, "sum": 0.0, "edges": [], "counts": []}


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullMetricsRegistry:
    """Registry that hands out shared no-op instruments.

    Components cache the instrument they obtain at construction time;
    with this registry every subsequent ``inc``/``observe`` is an empty
    method on a ``__slots__ = ()`` singleton, and slots declared
    through :meth:`feed` are read by nobody — the "disabled" mode of
    the observability layer.
    """

    enabled = False
    #: Tallies here are write-only sinks: bumped like live ones, never read.
    _shared: Dict[object, object] = {}
    shared = MetricsRegistry.shared

    def feed(self, owner: object, **slots: object) -> None:
        pass

    def feed_zeros(self, hist, owner: object, slot: str) -> NullHistogram:
        return _NULL_HISTOGRAM

    def fold(self) -> None:
        pass

    def counter(self, name: str, wall: bool = False) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, wall: bool = False) -> NullGauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_EDGES, wall: bool = False
    ) -> NullHistogram:
        return _NULL_HISTOGRAM

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def snapshot(self, include_wall: bool = False) -> Snapshot:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullMetricsRegistry()"


#: Shared disabled registry — pass as ``Simulator(..., metrics=NULL_REGISTRY)``.
NULL_REGISTRY = NullMetricsRegistry()
