"""Chrome Trace Event / Perfetto export.

Merges the platform's three timeline sources into one Chrome Trace
Event JSON document that opens directly in ``ui.perfetto.dev`` (or
``chrome://tracing``):

* :class:`~repro.obs.flight.FlightRecorder` packet flights → complete
  (``ph: "X"``) slices per hop (ipfw match, pipe wait/serialize/
  propagate, loopback) plus instants for NIC enqueue, delivery, drops
  and TCP acks;
* :class:`~repro.obs.span.Tracer` spans → experiment-level slices;
* :class:`~repro.sim.trace.TraceRecorder` records → instants on the
  emitting virtual node's row (the paper's time-stamped client logs);
* :class:`~repro.obs.timeseries.TimeSeriesSampler` series → counter
  (``ph: "C"``) tracks.

Row model: **physical nodes are pids, virtual nodes are tids** — a
5760-vnode run folds into as many process rows as there are pnodes,
which is exactly the folded-testbed view the paper reasons about. Each
pnode's ``tid 0`` is its kernel row (stack / firewall / pipes); hosted
vnodes get tids 1..n. The switch fabric and the experiment harness get
their own pids.

Determinism: all timestamps are simulation time (µs), inputs are
iterated in their deterministic creation order, sorting is stable and
keyed only on event fields — so the export is byte-identical across
same-seed runs and ``PYTHONHASHSEED`` values. No wall-clock data
enters the document.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.flight import (
    HOP_ACK,
    HOP_DELIVER,
    HOP_DROP,
    HOP_IPFW,
    HOP_LOOPBACK,
    HOP_NIC,
    HOP_PIPE,
)

PathLike = Union[str, pathlib.Path]

#: pid of the experiment-harness process row (tracer spans, counters).
EXPERIMENT_PID = 0

#: Category per hop kind (these are what Perfetto's filter box sees).
_HOP_CATEGORY = {
    HOP_NIC: "net.stack",
    HOP_IPFW: "net.ipfw",
    HOP_LOOPBACK: "net.stack",
    HOP_PIPE: "net.pipe",
    HOP_DELIVER: "net.stack",
    HOP_DROP: "net.stack",
    HOP_ACK: "net.tcp",
}


def _us(t: float) -> float:
    """Sim seconds → trace microseconds."""
    return t * 1e6


class TraceLayout:
    """pid/tid assignment for a testbed (pnodes=pids, vnodes=tids)."""

    def __init__(self) -> None:
        self._rows: Dict[str, Tuple[int, int]] = {}
        self._process_names: Dict[int, str] = {EXPERIMENT_PID: "experiment"}
        self._thread_names: Dict[Tuple[int, int], str] = {
            (EXPERIMENT_PID, 0): "harness"
        }

    @classmethod
    def for_testbed(cls, testbed) -> "TraceLayout":
        """Lay out a :class:`~repro.virt.deployment.Testbed`: one pid
        per physical node (tid 0 = kernel), one tid per hosted vnode,
        plus a pid for the switch fabric."""
        layout = cls()
        pid = 0
        for pnode in testbed.pnodes:
            pid += 1
            layout.add_process(pid, pnode.name)
            layout.add_thread(pid, 0, "kernel (stack/ipfw/pipes)", pnode.name)
            tid = 0
            for vname, vnode in pnode.vnodes.items():
                tid += 1
                layout.add_thread(pid, tid, f"{vname} ({vnode.address})", vname)
        layout.add_process(pid + 1, "switch")
        layout.add_thread(pid + 1, 0, "fabric", "switch")
        return layout

    # ------------------------------------------------------------------
    def add_process(self, pid: int, name: str) -> None:
        self._process_names[pid] = name

    def add_thread(self, pid: int, tid: int, name: str, label: str) -> None:
        self._thread_names[(pid, tid)] = name
        self._rows[label] = (pid, tid)

    def row_of(self, label: Optional[str]) -> Tuple[int, int]:
        """(pid, tid) for a node label; unknown labels land on the
        experiment row so no event is ever lost."""
        if label is None:
            return (EXPERIMENT_PID, 0)
        return self._rows.get(label, (EXPERIMENT_PID, 0))

    def metadata_events(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        for pid in sorted(self._process_names):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": self._process_names[pid]},
                }
            )
        for pid, tid in sorted(self._thread_names):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": self._thread_names[(pid, tid)]},
                }
            )
        return events

    def __len__(self) -> int:
        return len(self._rows)


# ----------------------------------------------------------------------
# Event builders
# ----------------------------------------------------------------------


def flight_events(flight_recorder, layout: TraceLayout) -> List[Dict[str, Any]]:
    """Hop slices + lifecycle instants for every recorded flight."""
    events: List[Dict[str, Any]] = []
    for flight in flight_recorder.flights():
        base_args = {"packet": flight.packet_id, "flow": flight.flow}
        for hop in flight.hops:
            pid, tid = layout.row_of(hop.node)
            cat = _HOP_CATEGORY.get(hop.kind, "net")
            args: Dict[str, Any] = dict(base_args)
            for key in sorted(hop.detail):
                args[key] = hop.detail[key]
            if hop.kind == HOP_IPFW:
                name = f"ipfw.{hop.detail.get('direction', '?')}"
            elif hop.kind == HOP_PIPE:
                name = f"pipe {hop.detail.get('pipe', '?')}"
            elif hop.kind == HOP_DROP:
                name = f"drop ({hop.detail.get('reason', '?')})"
            elif hop.kind == HOP_NIC:
                name = "nic.enqueue"
            else:
                name = hop.kind
            if hop.t1 > hop.t0:
                events.append(
                    {
                        "ph": "X",
                        "name": name,
                        "cat": cat,
                        "ts": _us(hop.t0),
                        "dur": _us(hop.t1 - hop.t0),
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
            else:
                events.append(
                    {
                        "ph": "i",
                        "s": "t",
                        "name": name,
                        "cat": cat,
                        "ts": _us(hop.t0),
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
    return events


def span_events(tracer, layout: TraceLayout) -> List[Dict[str, Any]]:
    """Tracer spans as slices on the experiment row (open spans are
    skipped — a trace export happens after the phases it covers)."""
    events: List[Dict[str, Any]] = []
    pid, tid = EXPERIMENT_PID, 0
    for span in sorted(tracer.finished, key=lambda s: s.index):
        if span.end is None:  # pragma: no cover - defensive
            continue
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "span",
                "ts": _us(span.start),
                "dur": _us(span.end - span.start),
                "pid": pid,
                "tid": tid,
                "args": dict(sorted(span.fields.items())),
            }
        )
    return events


def record_events(recorder, layout: TraceLayout) -> List[Dict[str, Any]]:
    """TraceRecorder records as instants on the emitting vnode's row."""
    events: List[Dict[str, Any]] = []
    for rec in recorder.select():
        args = rec.as_dict()
        pid, tid = layout.row_of(args.get("node"))
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": rec.category,
                "cat": rec.category,
                "ts": _us(rec.time),
                "pid": pid,
                "tid": tid,
                "args": dict(sorted(args.items())),
            }
        )
    return events


def counter_events(sampler, layout: TraceLayout) -> List[Dict[str, Any]]:
    """TimeSeriesSampler series as Perfetto counter tracks."""
    events: List[Dict[str, Any]] = []
    for name in sampler.names():
        for t, v in sampler.get(name):
            events.append(
                {
                    "ph": "C",
                    "name": name,
                    "cat": "timeseries",
                    "ts": _us(t),
                    "pid": EXPERIMENT_PID,
                    "tid": 0,
                    "args": {"value": v},
                }
            )
    return events


# ----------------------------------------------------------------------
# Document assembly
# ----------------------------------------------------------------------


def chrome_trace_document(
    layout: TraceLayout,
    flight_recorder=None,
    tracer=None,
    recorder=None,
    timeseries=None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the Chrome Trace Event document.

    Deterministic by construction: inputs are walked in creation
    order and the final sort is stable on ``(ts, pid, tid)``.
    """
    events: List[Dict[str, Any]] = list(layout.metadata_events())
    timed: List[Dict[str, Any]] = []
    if flight_recorder is not None:
        timed.extend(flight_events(flight_recorder, layout))
    if tracer is not None:
        timed.extend(span_events(tracer, layout))
    if recorder is not None:
        timed.extend(record_events(recorder, layout))
    if timeseries is not None:
        timed.extend(counter_events(timeseries, layout))
    timed.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))  # stable
    events.extend(timed)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(sorted((metadata or {}).items())),
    }


def chrome_trace_json(doc: Dict[str, Any]) -> str:
    """Stable-bytes serialization (sorted keys, compact separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(path: PathLike, doc: Dict[str, Any]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(chrome_trace_json(doc) + "\n")
    return path


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema check: returns a list of problems (empty = valid).

    Checks the subset of the Chrome Trace Event format that Perfetto
    requires: a ``traceEvents`` list whose members carry ``ph``/
    ``name``/``pid``/``tid``, timestamps on all timed phases, ``dur``
    on complete events and ``args`` dicts throughout.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("M", "X", "i", "C", "B", "E"):
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph in ("X", "i", "C") and "ts" not in ev:
            problems.append(f"event {i}: timed phase without ts")
        if ph == "X" and "dur" not in ev:
            problems.append(f"event {i}: complete event without dur")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"event {i}: args not an object")
    return problems
