"""Live telemetry bus: stream health out of *running* sweeps and cells.

Every other surface in :mod:`repro.obs` materializes after a run ends
(metrics snapshots, flight records, Chrome traces, time series). A
multi-minute distributed sweep is a black box while it executes. This
module is the in-flight complement: a **wall-clock-only** event stream
carried from :class:`~repro.runtime.executor.SweepExecutor` workers
(sweep points and ``fig10_cells`` cells) back to the parent over the
same pipes that already carry results, where
a :class:`TelemetryHub` folds it into run-level health, appends it to a
``telemetry.jsonl`` flight log, and serves it live (``python -m repro
watch``, or an opt-in stdlib HTTP endpoint with Prometheus exposition).

Determinism quarantine
----------------------
Telemetry is the wall plane's streaming half, next to the ``wall=True``
instruments of :mod:`repro.obs.metrics`: it *observes* wall-side state (process RSS, wall timestamps, weakly-held
simulator progress counters) and never touches simulation state, event
ordering, seeds or packet-id streams. Nothing it records enters a
deterministic snapshot, BENCH document or sweep aggregate; every run
output is byte-identical with telemetry on or off (enforced by the
subprocess A/B tests in ``tests/test_telemetry.py``). The bus speaks
plain JSON dicts so events cross process boundaries without importing
anything simulation-side.

Event schema (one JSON object per event)::

    {"ts": <unix wall clock>, "kind": <str>, "source": <str>, ...}

Kinds emitted by the runtime:

* ``run_started`` / ``run_finished`` — sweep lifecycle (experiment,
  point counts, parallelism).
* ``point_started`` / ``point_finished`` / ``point_retried`` /
  ``point_crashed`` / ``point_failed`` — per-point lifecycle from the
  sweep executor (also appended to the checkpoint JSONL so ``--resume``
  can report what previously failed).
* ``heartbeat`` — periodic worker sample: RSS/CPU gauges plus one
  probe entry per registered simulator (sim-time, events processed,
  event-queue depth). Emitted by a daemon thread, so a worker wedged
  in Python code still heartbeats — with frozen counters.
* ``stall`` — watchdog verdict: a source whose counters stopped
  advancing before any timeout fired (see :meth:`TelemetryHub.
  check_stalls`).
* ``resume_report`` — summary of previously-failed points found in a
  checkpoint when resuming.

Stall watchdog semantics
------------------------
A source is **stalled** when, for longer than ``stall_after`` wall
seconds, either (a) no heartbeat arrived at all (hard wedge: the
worker cannot even run its daemon thread, or the pipe is jammed), or
(b) heartbeats arrive but no progress signal advanced — no probe's
``events`` or sim clock moved and no point finished (soft wedge: the
worker is alive but the simulation is stuck). Check (b) applies only
to workers that registered probes; a probe-less worker promises
liveness, not visible progress. The watchdog names the wedged source
and its frozen probe labels instead of leaving a silent hang until
the per-point timeout.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, IO, List, Optional, Tuple, Union

PathLike = Union[str, pathlib.Path]
Event = Dict[str, Any]

#: Default heartbeat period (wall seconds) for worker-side threads.
HEARTBEAT_INTERVAL = 0.5
#: Default stall threshold (wall seconds) for the hub's watchdog.
STALL_AFTER = 30.0


# ----------------------------------------------------------------------
# Emitters — the child-side face of the bus
# ----------------------------------------------------------------------
class NullEmitter:
    """Do-nothing emitter (the ambient default: telemetry off)."""

    __slots__ = ()
    enabled = False
    source = "<null>"

    def emit(self, kind: str, **fields: Any) -> None:
        pass

    def forward(self, event: Event) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullEmitter()"


#: Shared disabled emitter.
NULL_EMITTER = NullEmitter()


class CallbackEmitter:
    """Emitter that hands each event dict to a sink callable.

    The sink is the transport: ``hub.ingest`` for in-process delivery,
    or a locked ``conn.send(("telemetry", event))`` for pipe delivery
    from a worker process. A sink that raises is swallowed — telemetry
    must never break or perturb the run it is watching.
    """

    __slots__ = ("_sink", "source", "static")

    enabled = True

    def __init__(
        self,
        sink: Callable[[Event], None],
        source: str,
        static: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._sink = sink
        self.source = source
        self.static = dict(static or {})

    def emit(self, kind: str, **fields: Any) -> None:
        event: Event = {"ts": time.time(), "kind": kind, "source": self.source}
        event.update(self.static)
        event.update(fields)
        self.forward(event)

    def forward(self, event: Event) -> None:
        """Relay an already-built event (used by parents forwarding a
        child's events upward without re-stamping them)."""
        try:
            self._sink(event)
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallbackEmitter({self.source!r})"


def pipe_emitter(conn, lock: threading.Lock, source: str,
                 static: Optional[Dict[str, Any]] = None) -> CallbackEmitter:
    """Emitter that ships events up a multiprocessing ``Connection`` as
    ``("telemetry", event)`` messages, interleaved (under ``lock``) with
    the worker's normal protocol replies."""

    def sink(event: Event) -> None:
        with lock:
            conn.send(("telemetry", event))

    return CallbackEmitter(sink, source, static)


# -- ambient emitter ----------------------------------------------------
# The process-wide emitter. Installed by whoever owns the transport
# (the CLI parent, the inline executor, a CommandWorker child); read
# by layers that cannot be reached through an argument (a cell runner
# deep inside an experiment's run function, or the executor relaying
# its workers' events when it has no hub). Telemetry is OFF
# unless someone installed an emitter, so the default cost is one
# attribute read at the few seams that check.
_ambient: Any = NULL_EMITTER


def get_emitter():
    """The process-ambient emitter (NULL_EMITTER when telemetry is off)."""
    return _ambient


def set_emitter(emitter) -> None:
    global _ambient
    _ambient = emitter if emitter is not None else NULL_EMITTER


def active() -> bool:
    """True when live telemetry is enabled in this process."""
    return _ambient.enabled


@contextmanager
def use_emitter(emitter):
    """Install ``emitter`` as the ambient emitter for a ``with`` scope."""
    previous = _ambient
    set_emitter(emitter)
    try:
        yield emitter
    finally:
        set_emitter(previous)


# ----------------------------------------------------------------------
# Progress probes — wall-side views of live simulators
# ----------------------------------------------------------------------
# label -> zero-arg callable returning a probe sample dict (or None when
# the probed object died). Probes are sampled from the heartbeat thread,
# so they must only *read* (plain attribute/len reads are safe under the
# GIL); they hold weak references so telemetry never extends a
# simulator's lifetime.
_probes: Dict[str, Callable[[], Optional[Dict[str, Any]]]] = {}
_probes_lock = threading.Lock()


def register_probe(label: str, fn: Callable[[], Optional[Dict[str, Any]]]) -> str:
    """Register a progress probe under ``label`` (last write wins)."""
    with _probes_lock:
        _probes[label] = fn
    return label


def unregister_probe(label: str) -> None:
    with _probes_lock:
        _probes.pop(label, None)


def clear_probes() -> None:
    with _probes_lock:
        _probes.clear()


def register_sim(sim, label: str) -> str:
    """Probe a live :class:`~repro.sim.kernel.Simulator` (weakly held).

    The sample reads the kernel's public progress counters: sim-time,
    events processed, and the current event-queue depth. Dead
    simulators are pruned on the next sample. Note the kernel commits
    ``events_processed`` at the end of each ``run()`` window, so
    mid-window samples see a stale event count — ``sim_time`` (updated
    per event) is the live progress signal the hub's watchdog relies
    on.
    """
    ref = weakref.ref(sim)

    def sample() -> Optional[Dict[str, Any]]:
        target = ref()
        if target is None:
            return None
        return {
            "label": label,
            "sim_time": float(target.now),
            "events": int(target.events_processed),
            "queue_depth": int(target.pending),
        }

    return register_probe(label, sample)


def register_topology(compiler, label: str) -> str:
    """Probe a deployed topology compiler's footprint (weakly held).

    Surfaces the lazy-pipe ledger on ``/health``: how many Dummynet
    pipes the topology *defines* versus how many have actually
    materialised — the capacity-planning signal for million-vnode
    deployments. The ledger counters are wall-side diagnostics (their
    registry twins are ``wall=True``) and never enter deterministic
    snapshots.
    """
    ref = weakref.ref(compiler)

    def sample() -> Optional[Dict[str, Any]]:
        target = ref()
        if target is None:
            return None
        stats = target.stats()
        return {
            "label": label,
            "vnodes": int(stats.get("vnodes", 0)),
            "rules": int(stats.get("rules", 0)),
            "pipes": int(stats.get("pipes", 0)),
            "pipes_materialized": int(stats.get("pipes_materialized", 0)),
            "lazy_pipes_pending": int(stats.get("lazy_pipes_pending", 0)),
        }

    return register_probe(label, sample)


def sample_probes() -> List[Dict[str, Any]]:
    """Sample every live probe (label-sorted); prune dead ones."""
    with _probes_lock:
        items = sorted(_probes.items())
    samples: List[Dict[str, Any]] = []
    dead: List[str] = []
    for label, fn in items:
        try:
            doc = fn()
        except Exception:
            doc = None
        if doc is None:
            dead.append(label)
        else:
            samples.append(doc)
    if dead:
        with _probes_lock:
            for label in dead:
                _probes.pop(label, None)
    return samples


def process_gauges() -> Dict[str, float]:
    """Wall-only resource gauges for the calling process.

    RSS via :func:`resource.getrusage` (``ru_maxrss`` is KiB on Linux,
    bytes on macOS) and CPU seconds via the same call. Never part of a
    deterministic snapshot — consumed by heartbeats.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss = usage.ru_maxrss
    if sys.platform != "darwin":
        rss *= 1024
    return {
        "rss_bytes": float(rss),
        "cpu_seconds": float(usage.ru_utime + usage.ru_stime),
    }


# ----------------------------------------------------------------------
# Heartbeat thread — the worker-side pulse
# ----------------------------------------------------------------------
class Heartbeat:
    """Daemon thread emitting periodic ``heartbeat`` events.

    Runs entirely on the wall clock, outside the deterministic
    boundary; a worker stuck in a Python loop still heartbeats (the
    GIL is released at the interpreter's discretion), which is what
    lets the watchdog distinguish "alive but not advancing" from
    "dead". One beat is emitted immediately on start and one on stop,
    so even sub-interval runs leave a resource trace.
    """

    def __init__(self, emitter, interval: Optional[float] = None) -> None:
        self.emitter = emitter
        self.interval = HEARTBEAT_INTERVAL if interval is None else interval
        self._stop = threading.Event()
        self._seq = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-heartbeat", daemon=True
        )

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def beat(self) -> None:
        gauges = process_gauges()
        self.emitter.emit(
            "heartbeat", seq=self._seq, probes=sample_probes(), **gauges
        )
        self._seq += 1

    def _run(self) -> None:
        self.beat()
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self) -> None:
        if not self._stop.is_set():
            self._stop.set()
            self._thread.join(timeout=5.0)
            try:
                self.beat()  # final sample (sink swallows closed pipes)
            except Exception:
                pass


# ----------------------------------------------------------------------
# TelemetryHub — the parent-side aggregator
# ----------------------------------------------------------------------
class TelemetryHub:
    """Aggregates per-worker event streams into run-level health.

    Thread-safe: :meth:`ingest` is called from the executor's
    scheduling loop (directly, or through an emitter relaying a nested
    plan's workers), HTTP handler threads and
    the optional watchdog thread. Every ingested event is appended to
    the ``telemetry.jsonl`` flight log (when ``path`` is set) before
    it updates the health state, so the log is a complete replayable
    record — ``python -m repro watch`` rebuilds health by replaying it
    through a fresh hub.
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        stall_after: float = STALL_AFTER,
    ) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self.stall_after = stall_after
        self._lock = threading.RLock()
        self._fh: Optional[IO[str]] = None
        self.events_seen = 0
        self.started_wall = time.time()
        self.run_info: Dict[str, Any] = {}
        self.finished: Optional[Dict[str, Any]] = None
        #: point key -> {"status", "attempts", "source", "error"}
        self.points: Dict[str, Dict[str, Any]] = {}
        self.counters: Dict[str, int] = {
            "started": 0, "finished": 0, "failed": 0,
            "retried": 0, "crashed": 0,
        }
        #: source -> worker health doc (see _apply_heartbeat)
        self.workers: Dict[str, Dict[str, Any]] = {}
        self._stalled_flagged: Dict[str, float] = {}
        self._watchdog_stop: Optional[threading.Event] = None
        self._watchdog_thread: Optional[threading.Thread] = None

    # -- transport ------------------------------------------------------
    def emitter(self, source: str, **static: Any) -> CallbackEmitter:
        """An in-process emitter feeding this hub (for inline runs and
        for the executor's own lifecycle events)."""
        return CallbackEmitter(self.ingest, source, static or None)

    def ingest(self, event: Event) -> None:
        """Fold one event into the health state and the flight log."""
        with self._lock:
            self.events_seen += 1
            self._append(event)
            try:
                self._apply(event)
            except Exception:
                pass  # malformed events must never kill the parent

    def _append(self, event: Event) -> None:
        if self.path is None:
            return
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        self._fh.write(json.dumps(event, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    # -- state folding --------------------------------------------------
    def _apply(self, event: Event) -> None:
        kind = event.get("kind")
        source = str(event.get("source", "?"))
        now = float(event.get("ts", time.time()))
        if kind == "heartbeat":
            self._apply_heartbeat(event, source, now)
        elif kind == "run_started":
            self.run_info = {
                k: v for k, v in event.items() if k not in ("kind", "source")
            }
        elif kind == "run_finished":
            self.finished = {
                k: v for k, v in event.items() if k not in ("kind", "source")
            }
        elif kind in ("point_started", "point_finished", "point_retried",
                      "point_crashed", "point_failed"):
            self._apply_point(kind, event, source, now)
        # stall / resume_report events carry no additional state: they
        # exist for the flight log and the watch view.

    def _apply_point(self, kind: str, event: Event, source: str, now: float) -> None:
        key = str(event.get("key", "?"))
        doc = self.points.setdefault(key, {"status": "pending", "attempts": 0})
        doc["source"] = source
        if "attempt" in event:
            doc["attempts"] = max(doc["attempts"], int(event["attempt"]))
        if kind == "point_started":
            doc["status"] = "running"
            self.counters["started"] += 1
        elif kind == "point_finished":
            doc["status"] = str(event.get("status", "ok"))
            self.counters["finished"] += 1
        elif kind == "point_retried":
            doc["status"] = "retrying"
            doc["error"] = event.get("error")
            self.counters["retried"] += 1
        elif kind == "point_crashed":
            doc["status"] = "crashed"
            doc["error"] = event.get("error")
            self.counters["crashed"] += 1
        elif kind == "point_failed":
            doc["status"] = "failed"
            doc["error"] = event.get("error")
            self.counters["failed"] += 1
        self._mark_advance(source, now)

    def _worker(self, source: str) -> Dict[str, Any]:
        return self.workers.setdefault(source, {
            "first_ts": None, "last_ts": None, "last_advance_ts": None,
            "beats": 0, "rss_bytes": 0.0, "cpu_seconds": 0.0,
            "events": 0, "sim_time": 0.0,
            "queue_depth": 0, "events_per_sec": 0.0, "probes": {},
            "point": None,
        })

    def _mark_advance(self, source: str, now: float) -> None:
        worker = self._worker(source)
        worker["last_advance_ts"] = now
        if worker["last_ts"] is None or now > worker["last_ts"]:
            worker["last_ts"] = now
        self._stalled_flagged.pop(source, None)

    def _apply_heartbeat(self, event: Event, source: str, now: float) -> None:
        worker = self._worker(source)
        if worker["first_ts"] is None:
            worker["first_ts"] = now
        prev_ts = worker["last_ts"]
        prev_events = worker["events"]
        worker["last_ts"] = now
        worker["beats"] += 1
        if "point" in event:
            worker["point"] = event["point"]
        for gauge in ("rss_bytes", "cpu_seconds"):
            if gauge in event:
                worker[gauge] = float(event[gauge])
        probes = event.get("probes") or []
        total_events = 0
        total_depth = 0
        prev_sim_time = worker["sim_time"]
        max_sim_time = prev_sim_time
        for probe in probes:
            label = str(probe.get("label", "?"))
            worker["probes"][label] = probe
            total_events += int(probe.get("events", 0))
            total_depth += int(probe.get("queue_depth", 0))
            max_sim_time = max(max_sim_time, float(probe.get("sim_time", 0.0)))
        if probes:
            worker["sim_time"] = max_sim_time
            worker["queue_depth"] = total_depth
            # The kernel batches its events_processed commit to the end
            # of each run() window (hot-path discipline), so the event
            # count can sit still across a whole window while the sim
            # clock — updated per event — advances live. Either signal
            # moving means the worker is making progress.
            if total_events > prev_events or max_sim_time > prev_sim_time:
                worker["last_advance_ts"] = now
                self._stalled_flagged.pop(source, None)
            if prev_ts is not None and now > prev_ts:
                worker["events_per_sec"] = (
                    (total_events - prev_events) / (now - prev_ts)
                )
            worker["events"] = total_events
        elif worker["last_advance_ts"] is None:
            # No probes at all: the first heartbeat anchors the stall
            # clock so check (b) never fires spuriously on arrival.
            worker["last_advance_ts"] = now

    # -- views ----------------------------------------------------------
    def _stalls(self, now: float) -> List[Dict[str, Any]]:
        stalls: List[Dict[str, Any]] = []
        for source, worker in sorted(self.workers.items()):
            last = worker["last_ts"]
            advance = worker["last_advance_ts"]
            if last is None or worker["beats"] == 0:
                # Sources that never heartbeat (the executor's own
                # lifecycle stream) made no liveness promise — only
                # heartbeating workers can be declared stalled.
                continue
            silent = now - last
            idle = now - (advance if advance is not None else last)
            if silent > self.stall_after:
                stalls.append({
                    "source": source, "reason": "no_heartbeat",
                    "idle_seconds": silent,
                    "probes": sorted(worker["probes"]),
                    "point": worker.get("point"),
                })
            elif worker["probes"] and idle > self.stall_after:
                # Only probe-carrying workers promise visible progress;
                # a probe-less worker (a sweep point that registered no
                # simulators) is judged on liveness alone.
                stalls.append({
                    "source": source, "reason": "no_progress",
                    "idle_seconds": idle,
                    "probes": sorted(worker["probes"]),
                    "point": worker.get("point"),
                })
        return stalls

    def health(self) -> Dict[str, Any]:
        """The rolling health document (what ``/health`` serves)."""
        now = time.time()
        with self._lock:
            running = sorted(
                key for key, doc in self.points.items()
                if doc["status"] in ("running", "retrying")
            )
            workers = {}
            for source, worker in sorted(self.workers.items()):
                doc = dict(worker)
                doc["probes"] = {
                    label: dict(p) for label, p in sorted(worker["probes"].items())
                }
                doc["age_seconds"] = (
                    now - worker["last_ts"] if worker["last_ts"] is not None else None
                )
                workers[source] = doc
            return {
                "ts": now,
                "uptime_seconds": now - self.started_wall,
                "run": dict(self.run_info),
                "finished": dict(self.finished) if self.finished else None,
                "events_seen": self.events_seen,
                "points": {
                    "total": self.run_info.get("points"),
                    "done": self.counters["finished"],
                    "failed": self.counters["failed"],
                    "retried": self.counters["retried"],
                    "crashed": self.counters["crashed"],
                    "running": running,
                },
                "workers": workers,
                "stalled": self._stalls(now),
            }

    # -- watchdog -------------------------------------------------------
    def check_stalls(self, emit: bool = True) -> List[Dict[str, Any]]:
        """Evaluate stall conditions now; optionally log ``stall``
        events for newly wedged sources (once per stall episode — a
        source is re-flagged only after it advances again)."""
        now = time.time()
        with self._lock:
            stalls = self._stalls(now)
            fresh = [
                s for s in stalls if s["source"] not in self._stalled_flagged
            ]
            for stall in fresh:
                self._stalled_flagged[stall["source"]] = now
        if emit:
            for stall in fresh:
                self.ingest({
                    "ts": now, "kind": "stall", "source": stall["source"],
                    "reason": stall["reason"],
                    "idle_seconds": stall["idle_seconds"],
                    "probes": stall["probes"],
                    "point": stall.get("point"),
                })
        return stalls

    def start_watchdog(self, interval: Optional[float] = None) -> None:
        """Run :meth:`check_stalls` periodically on a daemon thread."""
        if self._watchdog_thread is not None:
            return
        period = interval if interval is not None else max(
            0.05, self.stall_after / 4.0
        )
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(period):
                self.check_stalls()

        thread = threading.Thread(
            target=loop, name="repro-telemetry-watchdog", daemon=True
        )
        self._watchdog_stop = stop
        self._watchdog_thread = thread
        thread.start()

    def close(self) -> None:
        if self._watchdog_stop is not None:
            self._watchdog_stop.set()
            self._watchdog_thread.join(timeout=5.0)
            self._watchdog_stop = None
            self._watchdog_thread = None
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "TelemetryHub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- Prometheus exposition ------------------------------------------
    def prometheus(self) -> str:
        """Prometheus text exposition of the rolling health state.

        Canonical names (``_seconds``/``_bytes``/``_total`` unit
        suffixes, ``# HELP``/``# TYPE`` per family) so a real scraper
        pointed at the ``--listen`` endpoint ingests it cleanly; see
        :func:`repro.analysis.export.validate_prom_exposition`.
        """
        health = self.health()
        lines: List[str] = []

        def family(name: str, kind: str, help_text: str,
                   samples: List[Tuple[str, float]]) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                if value != value or value in (float("inf"), float("-inf")):
                    continue  # NaN/inf never reach the scraper
                rendered = (
                    str(int(value)) if float(value).is_integer() else repr(float(value))
                )
                lines.append(f"{name}{labels} {rendered}")

        points = health["points"]
        family("repro_run_uptime_seconds", "gauge",
               "Wall seconds since the telemetry hub started.",
               [("", health["uptime_seconds"])])
        family("repro_run_points", "gauge",
               "Total points in the running sweep plan.",
               [("", float(points["total"] or 0))])
        for counter in ("done", "failed", "retried", "crashed"):
            family(f"repro_run_points_{counter}_total", "counter",
                   f"Sweep points {counter} so far.",
                   [("", float(points[counter]))])
        family("repro_run_points_running", "gauge",
               "Sweep points currently executing.",
               [("", float(len(points["running"])))])
        family("repro_telemetry_events_total", "counter",
               "Telemetry events ingested by the hub.",
               [("", float(health["events_seen"]))])
        family("repro_run_stalled_workers", "gauge",
               "Workers currently flagged by the stall watchdog.",
               [("", float(len(health["stalled"])))])

        workers = health["workers"]

        def worker_samples(field: str) -> List[Tuple[str, float]]:
            return [
                (f'{{worker="{source}"}}', float(doc[field]))
                for source, doc in workers.items()
            ]

        family("repro_worker_rss_bytes", "gauge",
               "Worker process peak resident set size.",
               worker_samples("rss_bytes"))
        family("repro_worker_cpu_seconds", "gauge",
               "Worker process CPU time consumed.",
               worker_samples("cpu_seconds"))
        family("repro_worker_sim_time_seconds", "gauge",
               "Latest simulated time reached by the worker's cells.",
               worker_samples("sim_time"))
        family("repro_worker_events_total", "counter",
               "Simulation events processed by the worker's cells.",
               worker_samples("events"))
        family("repro_worker_events_per_second", "gauge",
               "Simulation event rate over the last heartbeat interval.",
               worker_samples("events_per_sec"))
        family("repro_worker_queue_depth", "gauge",
               "Pending simulation events across the worker's cells.",
               worker_samples("queue_depth"))
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# HTTP egress — opt-in stdlib endpoint (no third-party deps)
# ----------------------------------------------------------------------
def parse_listen(spec: Union[str, int]) -> Tuple[str, int]:
    """``"8080"`` → ``("127.0.0.1", 8080)``; ``"0.0.0.0:9090"`` splits."""
    if isinstance(spec, int):
        return "127.0.0.1", spec
    host, sep, port = str(spec).rpartition(":")
    if not sep:
        host, port = "127.0.0.1", spec
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(
            f"invalid listen address {spec!r}: expected [HOST:]PORT"
        ) from None


def serve_http(hub: TelemetryHub, listen: Union[str, int]):
    """Serve ``/health`` (JSON) and ``/metrics`` (Prometheus) for
    ``hub`` on a daemon thread; returns the live ``HTTPServer`` (its
    ``server_address`` carries the bound port; ``shutdown()`` stops it).
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    host, port = parse_listen(listen)

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            route = self.path.split("?", 1)[0].rstrip("/") or "/"
            if route in ("/health", "/health.json"):
                body = json.dumps(hub.health(), sort_keys=True, indent=2) + "\n"
                ctype = "application/json"
            elif route == "/metrics":
                body = hub.prometheus()
                ctype = "text/plain; version=0.0.4"
            elif route == "/":
                body = "repro telemetry: /health (JSON), /metrics (Prometheus)\n"
                ctype = "text/plain"
            else:
                self.send_error(404)
                return
            payload = body.encode()
            self.send_response(200)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args: Any) -> None:  # silence per-request spam
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-telemetry-http", daemon=True
    )
    thread.start()
    return server


# ----------------------------------------------------------------------
# Watch — replay/follow a telemetry.jsonl into a live terminal view
# ----------------------------------------------------------------------
def read_events(fh: IO[str]) -> List[Event]:
    """Parse every complete event line currently available on ``fh``
    (torn trailing writes are left for the next poll)."""
    events: List[Event] = []
    while True:
        position = fh.tell()
        line = fh.readline()
        if not line:
            break
        if not line.endswith("\n"):
            fh.seek(position)  # torn write: retry on the next poll
            break
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    return events


def render_health(health: Dict[str, Any]) -> str:
    """Compact terminal rendering of a hub health document."""
    lines: List[str] = []
    run = health.get("run") or {}
    points = health.get("points") or {}
    total = points.get("total")
    done = points.get("done", 0)
    label = run.get("experiment", run.get("kind", "run"))
    progress = f"{done}/{total}" if total else str(done)
    lines.append(
        f"run {label}: {progress} points done, "
        f"{points.get('failed', 0)} failed, {points.get('retried', 0)} retried, "
        f"{points.get('crashed', 0)} crashed"
    )
    running = points.get("running") or []
    if running:
        lines.append(f"running ({len(running)}):")
        for key in running[:8]:
            lines.append(f"  {key}")
        if len(running) > 8:
            lines.append(f"  ... and {len(running) - 8} more")
    workers = health.get("workers") or {}
    # Freshest-first, heartbeating sources only, capped: a long sweep
    # accretes one entry per finished worker process and only the live
    # ones matter here.
    ordered = sorted(
        (kv for kv in workers.items() if kv[1].get("beats", 0) > 0),
        key=lambda kv: (
            kv[1].get("age_seconds") is None,
            kv[1].get("age_seconds") or 0.0,
        ),
    )
    for source, doc in ordered[:12]:
        age = doc.get("age_seconds")
        age_text = f"{age:5.1f}s ago" if age is not None else "   never"
        lines.append(
            f"worker {source}: beat {age_text}  "
            f"sim_time={doc.get('sim_time', 0.0):.1f}s  "
            f"events={doc.get('events', 0)}  "
            f"({doc.get('events_per_sec', 0.0):.0f}/s)  "
            f"rss={doc.get('rss_bytes', 0.0) / 1048576:.1f}MiB  "
            f"queue={doc.get('queue_depth', 0)}"
        )
    if len(ordered) > 12:
        lines.append(f"... and {len(ordered) - 12} more workers")
    for stall in health.get("stalled") or []:
        where = stall.get("point") or ", ".join(stall.get("probes") or []) or "?"
        lines.append(
            f"STALLED {stall['source']}: {stall['reason']} "
            f"for {stall['idle_seconds']:.1f}s (wedged: {where})"
        )
    finished = health.get("finished")
    if finished:
        lines.append(
            f"finished: {finished.get('completed', '?')} ok, "
            f"{finished.get('failed', '?')} failed "
            f"[{finished.get('wall_seconds', 0.0):.1f}s wall]"
        )
    return "\n".join(lines)


def resolve_watch_target(target: str) -> pathlib.Path:
    """A watch target is a ``telemetry.jsonl`` path or a directory
    containing one."""
    path = pathlib.Path(target)
    if path.is_dir():
        path = path / "telemetry.jsonl"
    return path


def watch(
    target: str,
    interval: float = 1.0,
    follow: bool = True,
    stall_after: float = STALL_AFTER,
    out: Optional[IO[str]] = None,
    max_wait: Optional[float] = None,
) -> int:
    """Replay (and optionally follow) a telemetry log, rendering the
    rolling health view — the ``python -m repro watch`` engine.

    Returns 0 when the stream reached ``run_finished`` (or a complete
    replay in ``--once`` mode), 1 if following timed out via
    ``max_wait`` without the run finishing, 2 when the log never
    appeared.
    """
    if out is None:
        out = sys.stdout  # resolved at call time so redirection works
    path = resolve_watch_target(target)
    deadline = time.time() + max_wait if max_wait is not None else None
    while not path.exists():
        if not follow or (deadline is not None and time.time() > deadline):
            print(f"no telemetry log at {path}", file=sys.stderr)
            return 2
        time.sleep(min(interval, 0.2))
    hub = TelemetryHub(stall_after=stall_after)
    with path.open() as fh:
        while True:
            for event in read_events(fh):
                hub.ingest(event)
            hub.check_stalls(emit=False)
            print(render_health(hub.health()), file=out, flush=True)
            if hub.finished is not None or not follow:
                return 0
            if deadline is not None and time.time() > deadline:
                return 1
            print("---", file=out, flush=True)
            time.sleep(interval)
