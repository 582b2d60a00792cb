"""repro.obs — the unified observability layer.

One deterministic measurement substrate for the whole platform:

* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms shared by every layer (``layer.component.metric``).
  Cold paths push (``inc``/``set``/``observe``); per-packet counts
  stay in plain slots on their owners and are folded in, by
  assignment, whenever the registry is read — so read through the
  registry, not through an instrument held from earlier;
* :class:`Tracer` / :class:`Span` — timeline spans keyed to sim-time;
* :class:`RunManifest` — per-run provenance (seed, topology hash,
  versions, clocks, event counts);
* :class:`FlightRecorder` — per-packet hop-by-hop lifecycle records
  (NIC → ipfw → pipes → delivery → ack) with exact latency
  decompositions;
* :class:`TimeSeriesSampler` — periodic registry diffs as
  deterministic per-metric series;
* :mod:`repro.obs.chrometrace` — Chrome Trace Event / Perfetto export
  merging flights, spans, trace records and time-series;
* :mod:`repro.obs.telemetry` — the live telemetry bus
  (:class:`TelemetryHub`, heartbeats, stall watchdog, ``repro watch``
  and the opt-in HTTP endpoint): wall-clock-only streaming of health
  out of *running* sweeps and partition cells;
* ``NULL_REGISTRY`` / ``NULL_TRACER`` / ``NULL_FLIGHT`` /
  ``NULL_EMITTER`` — shared no-op instruments for
  zero-overhead disabled mode (``Simulator(..., observe=False)``).

The rule that makes this trustworthy: anything recorded from
simulation state is deterministic and appears in
:meth:`MetricsRegistry.snapshot`; anything recorded from the host's
wall clock is flagged ``wall=True`` and stays out of the snapshot
(it belongs in the manifest or in explicitly wall-labelled exports).
"""

from repro.obs.chrometrace import (
    TraceLayout,
    chrome_trace_document,
    chrome_trace_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import (
    FlightRecorder,
    Hop,
    NULL_FLIGHT,
    NullFlightRecorder,
    PacketFlight,
)
from repro.obs.manifest import RunManifest, topology_fingerprint
from repro.obs.metrics import (
    BYTES_EDGES,
    Counter,
    DEFAULT_EDGES,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    Snapshot,
    diff_snapshots,
)
from repro.obs.span import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.telemetry import (
    CallbackEmitter,
    Heartbeat,
    NULL_EMITTER,
    NullEmitter,
    TelemetryHub,
    serve_http,
    watch,
)
from repro.obs.timeseries import TimeSeriesSampler

__all__ = [
    "BYTES_EDGES",
    "CallbackEmitter",
    "Counter",
    "DEFAULT_EDGES",
    "FlightRecorder",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "Hop",
    "MetricsRegistry",
    "NULL_EMITTER",
    "NULL_FLIGHT",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullEmitter",
    "NullFlightRecorder",
    "NullMetricsRegistry",
    "NullTracer",
    "PacketFlight",
    "RunManifest",
    "Snapshot",
    "Span",
    "TelemetryHub",
    "TimeSeriesSampler",
    "TraceLayout",
    "Tracer",
    "serve_http",
    "watch",
    "chrome_trace_document",
    "chrome_trace_json",
    "diff_snapshots",
    "topology_fingerprint",
    "validate_chrome_trace",
    "write_chrome_trace",
]
