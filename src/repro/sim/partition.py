"""Distributed kernel driver: shard a model across worker processes.

The paper's platform is *decentralized* — each physical node emulates
the network for its own vnodes — yet one :class:`~repro.sim.kernel.
Simulator` runs everything in a single Python process. This module is
the scale-out seam: a model is decomposed into **cells** (independent
or message-coupled fragments, each with its own simulator, derived
seed and packet-id stream), the cells are spread over worker processes,
and a conservative barrier-window protocol advances them in lock-step
windows bounded by the declared cross-cell **lookahead**.

Determinism contract
--------------------
The cell decomposition is part of the *experiment definition* (chosen
by the model/config), while ``SimConfig.partitions`` is only a cap on
worker processes. Everything a cell computes is a function of the cell
alone — its derived seed (BLAKE2b, ``derive_seed(seed, "cell/<name>")``),
its own packet-id stream (:func:`repro.net.packet.swap_id_stream`), and
the deterministic barrier schedule — so the merged result is
**byte-identical for every worker count**, including ``partitions=1``
(the single-process run). The subprocess A/B tests and the ``runtime-smoke``
CI job enforce exactly this.

Barrier-window protocol
-----------------------
Each round the driver:

1. injects the previous window's cross-cell messages into their target
   cells (globally sorted by ``(delivery_time, src_cell, seq)``);
2. collects every live cell's ``next_event_time()`` and takes the
   global minimum ``m``;
3. advances every live cell with ``run(until=H)`` where
   ``H = min(m + lookahead, until)`` — or ``H = until`` outright when
   the cells declare no coupling (``lookahead=None``), which collapses
   the run to a single fully-parallel window.

Safety: a message posted at time ``t`` inside a window carries
``delay >= lookahead`` (enforced by :meth:`CellHandle.post`), and
``t >= m`` because ``m`` is the global minimum next-event time, so its
delivery time is ``>= m + lookahead = H`` — never inside the window
that produced it. A delivery landing *exactly on* ``H`` (the window
edge) is scheduled at the barrier and processed at the top of the next
window; the slip is deterministic and independent of worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.net import packet as _packet
from repro.obs import telemetry as _telemetry
from repro.sim.config import SimConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import derive_seed

#: Metric-name prefix for the driver's own bookkeeping.
_SEED_NAMESPACE = "cell"


# ----------------------------------------------------------------------
# Public cell surface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One cell of a partitioned model.

    ``build(handle)`` runs once in the owning worker before the first
    window; it constructs the cell's model on ``handle.sim`` and
    returns an opaque model object kept alive for the run.
    ``finish(handle, model)`` runs after the last window and returns
    the cell's JSON-ready artifacts. Both callables must be picklable
    under the ``spawn`` start method (module-level functions /
    ``functools.partial``); under ``fork`` closures also work.
    """

    name: str
    build: Callable[["CellHandle"], Any]
    finish: Optional[Callable[["CellHandle", Any], Dict[str, Any]]] = None


class CellHandle:
    """What a cell's builder sees: its simulator plus the cross-cell
    message seam.

    ``post()`` is the *only* way state leaves a cell mid-run, and it
    requires the payload to be picklable and the delay to respect the
    declared lookahead — the two properties the conservative protocol
    needs. Direct object sharing between cells (the style the in-process
    network layers use across an emulated wire) is exactly what a cell
    boundary forbids.
    """

    def __init__(
        self,
        name: str,
        index: int,
        sim: Simulator,
        seed: int,
        lookahead: Optional[float],
        outbound: List[Tuple[float, int, int, str, str, Any]],
    ) -> None:
        self.name = name
        self.index = index
        self.sim = sim
        #: The cell's derived root seed (``derive_seed(root, "cell/<name>")``).
        self.seed = seed
        self.lookahead = lookahead
        self._outbound = outbound
        self._receivers: Dict[str, Callable[[Any], None]] = {}
        self._seq = itertools.count()

    # -- cross-cell messaging ------------------------------------------
    def post(self, dst: str, channel: str, payload: Any, delay: float) -> None:
        """Send ``payload`` to cell ``dst``'s ``channel`` receiver,
        arriving ``delay`` simulated seconds from now.

        ``delay`` must be at least the declared lookahead — that bound
        is what lets every other cell advance through the current
        window without waiting for this message.
        """
        if self.lookahead is None:
            raise SimulationError(
                f"cell {self.name!r} posted a message but the partition "
                "declares no coupling; pass lookahead= to run_partitioned()"
            )
        if delay < self.lookahead:
            raise SimulationError(
                f"cell {self.name!r}: post delay {delay!r} is below the "
                f"declared lookahead {self.lookahead!r}"
            )
        self._outbound.append(
            (self.sim.now + delay, self.index, next(self._seq), dst, channel, payload)
        )

    def on_receive(self, channel: str, callback: Callable[[Any], None]) -> None:
        """Register the receiver for inbound messages on ``channel``."""
        self._receivers[channel] = callback

    def _deliver(self, channel: str, payload: Any) -> None:
        try:
            receiver = self._receivers[channel]
        except KeyError:
            raise SimulationError(
                f"cell {self.name!r}: no receiver for channel {channel!r}"
            ) from None
        receiver(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellHandle({self.name!r}, t={self.sim.now:.6f})"


# ----------------------------------------------------------------------
# Worker-side state (also the inline partitions=1 engine)
# ----------------------------------------------------------------------
class _CellRuntime:
    """One built cell inside a worker."""

    __slots__ = ("spec", "handle", "model", "ids", "outbound", "done", "busy")

    def __init__(self, spec: CellSpec, handle: CellHandle, outbound) -> None:
        self.spec = spec
        self.handle = handle
        self.model: Any = None
        #: The cell's private packet-id stream; swapped in around every
        #: slice of cell code so ids are a function of the cell alone.
        self.ids = itertools.count(1)
        self.outbound = outbound
        self.done = False
        #: CPU seconds this process spent executing the cell (build +
        #: windows). Wall-only diagnostics: reported outside the
        #: deterministic result surface, used by ``bench_dist`` to
        #: compute the critical-path speedup.
        self.busy = 0.0


class _WorkerState:
    """Executes partition commands for the cells one worker owns.

    The same object serves both modes: driven directly by the
    coordinator when running inline, or inside a
    :class:`~repro.runtime.executor.CommandWorker` process otherwise —
    one code path, so worker count cannot change semantics.
    """

    def __init__(
        self,
        cells: Sequence[Tuple[int, CellSpec]],
        seed: int,
        config: SimConfig,
        observe: bool,
    ) -> None:
        self.cells: List[_CellRuntime] = []
        self._probe_labels: List[str] = []
        cell_config = config.replace(partitions=1)
        for index, spec in cells:
            outbound: List[Tuple[float, int, int, str, str, Any]] = []
            cell_seed = derive_seed(seed, f"{_SEED_NAMESPACE}/{spec.name}")
            sim = Simulator(seed=cell_seed, observe=observe, config=cell_config)
            handle = CellHandle(
                spec.name, index, sim, cell_seed, config.lookahead, outbound
            )
            self.cells.append(_CellRuntime(spec, handle, outbound))
            if _telemetry.active():
                # Wall-side progress probe, sampled by the owning
                # process's heartbeat thread — never by the sim itself.
                self._probe_labels.append(
                    _telemetry.register_sim(sim, f"cell/{spec.name}")
                )

    # -- command handlers ----------------------------------------------
    def handle(self, command: str, payload: Any) -> Any:
        if command == "build":
            return self.build()
        if command == "window":
            return self.window(*payload)
        if command == "peek":
            return self.peek(payload)
        if command == "finish":
            return self.finish()
        raise SimulationError(f"unknown partition command {command!r}")

    def build(self):
        """Build every owned cell; return (outbound, next_times)."""
        out: List[Tuple[float, int, int, str, str, Any]] = []
        for rt in self.cells:
            prev = _packet.swap_id_stream(rt.ids)
            t0 = time.process_time()
            try:
                rt.model = rt.spec.build(rt.handle)
            finally:
                rt.busy += time.process_time() - t0
                _packet.swap_id_stream(prev)
            out.extend(rt.outbound)
            rt.outbound.clear()
        return out, self._next_times()

    def window(self, horizon: float, inbound):
        """Inject ``inbound``, run every live cell to ``horizon``;
        return (outbound, next_times, done_flags)."""
        self._inject(inbound)
        out: List[Tuple[float, int, int, str, str, Any]] = []
        for rt in self.cells:
            if rt.done:
                continue
            prev = _packet.swap_id_stream(rt.ids)
            t0 = time.process_time()
            try:
                rt.handle.sim.run(until=horizon)
            finally:
                rt.busy += time.process_time() - t0
                _packet.swap_id_stream(prev)
            if rt.handle.sim.stopped:
                rt.done = True
            out.extend(rt.outbound)
            rt.outbound.clear()
        return out, self._next_times(), [rt.done for rt in self.cells]

    def peek(self, inbound):
        """Barrier-only variant of :meth:`window`: inject then report
        next-event times without advancing (used when the coordinator
        needs fresh horizons after a message exchange)."""
        self._inject(inbound)
        return self._next_times()

    def finish(self):
        """Finalize every owned cell; return per-cell payloads."""
        payloads = []
        for rt in self.cells:
            prev = _packet.swap_id_stream(rt.ids)
            try:
                sim = rt.handle.sim
                artifacts = (
                    rt.spec.finish(rt.handle, rt.model)
                    if rt.spec.finish is not None
                    else {}
                )
                payloads.append(
                    {
                        "name": rt.spec.name,
                        "index": rt.handle.index,
                        "now": sim.now,
                        "events_processed": sim.events_processed,
                        "metrics": sim.metrics.snapshot(),
                        "trace": [
                            [rec.time, rec.category, [list(kv) for kv in rec.fields]]
                            for rec in sim.trace.select()
                        ],
                        "flights": (
                            sim.flight.as_list() if sim.flight.enabled else []
                        ),
                        "artifacts": artifacts,
                        "busy_seconds": rt.busy,
                    }
                )
            finally:
                _packet.swap_id_stream(prev)
        for label in self._probe_labels:
            _telemetry.unregister_probe(label)
        self._probe_labels = []
        return payloads

    # -- internals ------------------------------------------------------
    def _inject(self, inbound) -> None:
        """Schedule inbound messages (already globally sorted)."""
        by_index = {rt.handle.index: rt for rt in self.cells}
        for time, _src, _seq, dst_index, channel, payload in inbound:
            rt = by_index[dst_index]
            rt.handle.sim.schedule_at(
                time, rt.handle._deliver, channel, payload
            )

    def _next_times(self):
        """Per-cell earliest pending event time (None = idle or done)."""
        return [
            None if rt.done else rt.handle.sim.next_event_time()
            for rt in self.cells
        ]


def _worker_factory(payload):
    """Module-level :class:`CommandWorker` factory (spawn-picklable)."""
    cells, seed, config_doc, observe = payload
    state = _WorkerState(cells, seed, SimConfig.from_dict(config_doc), observe)
    return state.handle


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionLayout:
    """Assignment of cell indices to worker processes.

    ``requested`` is the ``partitions=`` cap; ``assignments`` holds one
    non-empty tuple of cell indices per *actual* worker. Asking for
    more workers than there are cells degrades to one cell per worker
    — never an empty worker, never an error.
    """

    requested: int
    assignments: Tuple[Tuple[int, ...], ...]

    @property
    def workers(self) -> int:
        return len(self.assignments)

    @classmethod
    def block(cls, num_cells: int, partitions: int) -> "PartitionLayout":
        """Contiguous block assignment (the same shape as
        :meth:`repro.virt.deployment.Testbed.deploy` block placement:
        ceil(C/W) cells per worker, empties dropped)."""
        if partitions < 1:
            raise SimulationError(f"partitions must be >= 1, got {partitions!r}")
        if num_cells < 1:
            raise SimulationError("a partitioned run needs at least one cell")
        workers = min(partitions, num_cells)
        per = -(-num_cells // workers)  # ceil
        assignments = tuple(
            tuple(range(lo, min(lo + per, num_cells)))
            for lo in range(0, num_cells, per)
        )
        return cls(requested=partitions, assignments=assignments)


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_metric_snapshots(snapshots: Sequence[Dict[str, Dict[str, Any]]]):
    """Merge per-cell metric snapshots into one platform-wide snapshot.

    Counters sum; gauges sum both current value and peak (each cell's
    instruments are disjoint populations, so the sums are exact totals
    — except the summed peak, which is an upper bound on the true
    simultaneous peak and is documented as such); histograms require
    identical edges and sum count/sum/per-bucket counts, min/max fold.
    The merge is associative and order-independent in value, and the
    output is name-sorted — byte-identical however cells were grouped.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        for name, doc in snap.items():
            cur = merged.get(name)
            if cur is None:
                merged[name] = {
                    k: (list(v) if isinstance(v, list) else v)
                    for k, v in doc.items()
                }
                continue
            if cur["kind"] != doc["kind"]:
                raise SimulationError(
                    f"metric {name!r}: kind mismatch across cells "
                    f"({cur['kind']} vs {doc['kind']})"
                )
            kind = doc["kind"]
            if kind == "counter":
                cur["value"] += doc["value"]
            elif kind == "gauge":
                cur["value"] += doc["value"]
                cur["peak"] += doc["peak"]
            else:  # histogram
                if cur["edges"] != doc["edges"]:
                    raise SimulationError(
                        f"histogram {name!r}: edge mismatch across cells"
                    )
                cur["count"] += doc["count"]
                cur["sum"] += doc["sum"]
                cur["counts"] = [
                    a + b for a, b in zip(cur["counts"], doc["counts"])
                ]
                for k, fold in (("min", min), ("max", max)):
                    if doc[k] is not None:
                        cur[k] = doc[k] if cur[k] is None else fold(cur[k], doc[k])
    return {name: merged[name] for name in sorted(merged)}


@dataclass
class PartitionResult:
    """The merged output of a partitioned run.

    Everything except :attr:`workers` is invariant in the worker count;
    :meth:`as_dict` (the A/B comparison surface) therefore excludes it
    unless ``deterministic_only=False``.
    """

    seed: int
    until: float
    lookahead: Optional[float]
    cells: List[str]
    windows: int
    partitions: int
    workers: int
    metrics: Dict[str, Dict[str, Any]]
    trace: List[List[Any]]  # [time, cell, category, {field: value}]
    flights: List[Dict[str, Any]]
    per_cell: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per-cell CPU seconds (build + windows) in the owning worker.
    #: Wall-clock diagnostics — excluded from the deterministic
    #: comparison surface, consumed by ``benchmarks/bench_dist.py``.
    busy_seconds: Dict[str, float] = field(default_factory=dict)

    def layout(self) -> Dict[str, Any]:
        """The N-invariant partition layout (for manifests)."""
        return {
            "cells": list(self.cells),
            "lookahead": self.lookahead,
            "windows": self.windows,
        }

    def as_dict(self, deterministic_only: bool = True) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "seed": self.seed,
            "until": self.until,
            "layout": self.layout(),
            "metrics": self.metrics,
            "trace": self.trace,
            "flights": self.flights,
            "per_cell": self.per_cell,
        }
        if not deterministic_only:
            doc["partitions"] = self.partitions
            doc["workers"] = self.workers
            doc["busy_seconds"] = self.busy_seconds
        return doc


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_partitioned(
    cells: Sequence[CellSpec],
    until: float,
    seed: int = 0,
    config: Optional[SimConfig] = None,
    observe: bool = True,
    mp_context: Optional[str] = None,
) -> PartitionResult:
    """Run ``cells`` to ``until`` under the barrier-window protocol.

    ``config.partitions`` caps the worker processes (1 = run every
    cell inline in this process — no subprocesses at all);
    ``config.lookahead`` is the conservative window size, or ``None``
    when the cells are uncoupled (single window, full parallelism).
    The result is byte-identical for every ``partitions`` value.
    """
    config = config if config is not None else SimConfig()
    if until is None or until <= 0:
        raise SimulationError(f"partitioned runs need a positive until, got {until!r}")
    names = [spec.name for spec in cells]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate cell names: {names}")
    partitions = config.partitions
    if partitions > 1 and multiprocessing.current_process().daemon:
        # A daemonic parent (e.g. a sweep-executor worker running this
        # point with --parallel) cannot spawn child processes; degrade
        # to inline execution. Safe: the merged result is byte-identical
        # for every worker count by contract.
        partitions = 1
    layout = PartitionLayout.block(len(cells), partitions)
    name_to_index = {spec.name: i for i, spec in enumerate(cells)}
    index_to_worker = {
        idx: w for w, group in enumerate(layout.assignments) for idx in group
    }

    # -- spin up the engine(s) -----------------------------------------
    inline: Optional[_WorkerState] = None
    workers: List[Any] = []
    if layout.workers == 1:
        inline = _WorkerState(
            list(enumerate(cells)), seed, config, observe
        )
    else:
        from repro.runtime.executor import CommandWorker, receive_all

    def broadcast(command: str, payloads):
        """One request per engine, fanned out before any reply is
        collected; returns per-worker replies in worker order.
        Replies are multiplexed (:func:`repro.runtime.executor.
        receive_all`) so one slow worker's window never blinds the
        others' telemetry streams."""
        if inline is not None:
            return [inline.handle(command, payloads[0])]
        for worker, payload in zip(workers, payloads):
            worker.send(command, payload)
        return receive_all(workers)

    def split_messages(messages):
        """Group a globally sorted message batch by owning worker,
        rewriting destination names to cell indices."""
        per_worker: List[List[Any]] = [[] for _ in range(max(1, layout.workers))]
        for time, src, seq, dst, channel, payload in messages:
            try:
                dst_index = name_to_index[dst]
            except KeyError:
                raise SimulationError(f"message posted to unknown cell {dst!r}") from None
            per_worker[index_to_worker[dst_index]].append(
                (time, src, seq, dst_index, channel, payload)
            )
        return per_worker

    windows = 0
    emitter = _telemetry.get_emitter()
    try:
        # Workers start inside the guarded region: when worker k fails
        # to start, workers 0..k-1 are closed rather than left blocked.
        # Live telemetry is inherited from the ambient emitter: they
        # heartbeat over their command pipes and this process relays
        # the events to whatever hub/pipe it is itself wired to.
        if inline is None:
            for w, group in enumerate(layout.assignments):
                workers.append(
                    CommandWorker(
                        _worker_factory,
                        init_payload=(
                            [(i, cells[i]) for i in group],
                            seed,
                            config.as_dict(),
                            observe,
                        ),
                        mp_context=mp_context,
                        name=f"repro-partition-{w}",
                        telemetry=emitter.enabled,
                        on_telemetry=emitter.forward if emitter.enabled else None,
                    )
                )
        # Build every cell; collect build-time messages + first horizons.
        replies = broadcast("build", [None] * max(1, layout.workers))
        pending = sorted(
            (m for out, _times in replies for m in out),
            key=lambda m: (m[0], m[1], m[2]),
        )
        next_times = [t for _out, times in replies for t in times]

        while True:
            inbound = split_messages(pending)
            if pending:
                # Injection changes the horizons; refresh them first.
                replies = broadcast("peek", inbound)
                next_times = [t for times in replies for t in times]
                inbound = [[] for _ in inbound]  # already injected
                pending = []
            live = [t for t in next_times if t is not None]
            if not live:
                break
            min_next = min(live)
            if min_next > until:
                break
            horizon = (
                until
                if config.lookahead is None
                else min(min_next + config.lookahead, until)
            )
            replies = broadcast(
                "window", [(horizon, batch) for batch in inbound]
            )
            windows += 1
            emitter.emit(
                "partition_window",
                window=windows,
                horizon=horizon,
                live_cells=len(live),
                workers=layout.workers,
            )
            pending = sorted(
                (m for out, _times, _done in replies for m in out),
                key=lambda m: (m[0], m[1], m[2]),
            )
            next_times = [t for _out, times, _done in replies for t in times]
            if horizon >= until and not pending:
                break

        replies = broadcast("finish", [None] * max(1, layout.workers))
        cell_payloads = sorted(
            (p for payloads in replies for p in payloads),
            key=lambda p: p["index"],
        )
    finally:
        for worker in workers:
            worker.close()

    # -- deterministic merge -------------------------------------------
    trace: List[List[Any]] = []
    flights: List[Dict[str, Any]] = []
    per_cell: Dict[str, Dict[str, Any]] = {}
    busy_seconds: Dict[str, float] = {}
    for payload in cell_payloads:
        name = payload["name"]
        busy_seconds[name] = payload["busy_seconds"]
        for time, category, fields in payload["trace"]:
            trace.append([time, name, category, {k: v for k, v in fields}])
        for doc in payload["flights"]:
            flights.append({"cell": name, **doc})
        per_cell[name] = {
            "now": payload["now"],
            "events_processed": payload["events_processed"],
            "metrics": payload["metrics"],
            "artifacts": payload["artifacts"],
        }
    # Stable sort: records already appear in (cell, position) order, so
    # sorting by time alone keeps the (time, cell, position) total order.
    trace.sort(key=lambda rec: rec[0])
    return PartitionResult(
        seed=seed,
        until=until,
        lookahead=config.lookahead,
        cells=names,
        windows=windows,
        partitions=config.partitions,
        workers=layout.workers,
        metrics=merge_metric_snapshots([p["metrics"] for p in cell_payloads]),
        trace=trace,
        flights=flights,
        per_cell=per_cell,
        busy_seconds=busy_seconds,
    )
