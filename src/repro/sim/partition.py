"""Distributed kernel driver: run independent cells on worker processes.

The paper's platform is *decentralized* — each physical node emulates
the network for its own vnodes — yet one :class:`~repro.sim.kernel.
Simulator` runs everything in a single Python process. This module is
the scale-out seam: a model is decomposed into **cells** (independent
fragments, each with its own simulator, derived seed and packet-id
stream), the cells are spread over worker processes in contiguous
blocks, every cell is built, run to ``until`` and finished, and the
per-cell outputs are merged.

Cells never exchange state: each is independent by construction, so a
partitioned model answers a different question than the same model run
as one simulator (``fig10_cells`` is four sub-swarms, not the paper's
single swarm). Coupling cells — one swarm split at the switch hop —
would need its own synchronisation seam and is not provided.

Determinism contract
--------------------
The cell decomposition is part of the *experiment definition* (chosen
by the model/config), while ``SimConfig.partitions`` is only a cap on
worker processes. Everything a cell computes is a function of the cell
alone — its derived seed (BLAKE2b, ``derive_seed(seed, "cell/<name>")``)
and its own packet-id stream (:func:`repro.net.packet.swap_id_stream`)
— so the merged result is **byte-identical for every worker count**,
including ``partitions=1`` (the single-process run). The subprocess A/B
tests and the ``runtime-smoke`` CI job enforce exactly this.
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

#: Namespace of the per-cell derived seeds (``cell/<name>``).
_SEED_NAMESPACE = "cell"


# ----------------------------------------------------------------------
# Public cell surface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One cell of a partitioned model.

    ``build(handle)`` runs once in the owning worker before the cell
    runs; it constructs the cell's model on ``handle.sim`` and returns
    an opaque model object kept alive for the run.
    ``finish(handle, model)`` runs after the cell reached ``until`` (or
    stopped itself) and returns the cell's JSON-ready artifacts. Both
    callables must be picklable under the ``spawn`` start method
    (module-level functions / ``functools.partial``); under ``fork``
    closures also work.
    """

    name: str
    build: Callable[["CellHandle"], Any]
    finish: Optional[Callable[["CellHandle", Any], Dict[str, Any]]] = None


class CellHandle:
    """What a cell's builder sees: its name, its index in the cell
    list, its simulator and its derived seed.

    Nothing leaves a cell mid-run: direct object sharing between cells
    (the style the in-process network layers use across an emulated
    wire) is exactly what a cell boundary forbids.
    """

    def __init__(self, name: str, index: int, sim: Simulator, seed: int) -> None:
        self.name = name
        self.index = index
        self.sim = sim
        #: The cell's derived root seed (``derive_seed(root, "cell/<name>")``).
        self.seed = seed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellHandle({self.name!r}, t={self.sim.now:.6f})"


# ----------------------------------------------------------------------
# Worker side (also the inline partitions=1 engine)
# ----------------------------------------------------------------------
def _in_cell(ids, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
    """Run one slice of cell code with the cell's packet-id stream
    swapped in; return its result and the CPU seconds it took."""
    prev = _packet.swap_id_stream(ids)
    t0 = time.process_time()
    try:
        return fn(*args), time.process_time() - t0
    finally:
        _packet.swap_id_stream(prev)


def _run_cells(
    cells: Sequence[Tuple[int, CellSpec]],
    seed: int,
    config: SimConfig,
    observe: bool,
    until: float,
) -> List[Dict[str, Any]]:
    """Build every cell, run each to ``until``, finish each — in the
    given order — and return one payload per cell.

    The one engine of a partitioned run: called directly when running
    inline, or inside a :class:`~repro.runtime.executor.CommandWorker`
    process otherwise, so the worker count cannot change semantics.
    """
    cell_config = config.replace(partitions=1)
    specs = [spec for _index, spec in cells]
    handles: List[CellHandle] = []
    probe_labels: List[str] = []
    for index, spec in cells:
        cell_seed = derive_seed(seed, f"{_SEED_NAMESPACE}/{spec.name}")
        sim = Simulator(seed=cell_seed, observe=observe, config=cell_config)
        handles.append(CellHandle(spec.name, index, sim, cell_seed))
        if _telemetry.active():
            # Wall-side progress probe, sampled by the owning
            # process's heartbeat thread — never by the sim itself.
            probe_labels.append(_telemetry.register_sim(sim, f"cell/{spec.name}"))
    # The cell's private packet-id stream, swapped in around every slice
    # of cell code so ids are a function of the cell alone.
    ids = [itertools.count(1) for _ in handles]
    # CPU seconds this process spent building and running each cell:
    # wall-only diagnostics, reported outside the deterministic result
    # surface (``bench_dist`` computes the critical path from them).
    busy = [0.0] * len(handles)
    try:
        models = []
        for i, handle in enumerate(handles):
            model, busy[i] = _in_cell(ids[i], specs[i].build, handle)
            models.append(model)
        for i, handle in enumerate(handles):
            busy[i] += _in_cell(ids[i], handle.sim.run, until)[1]
        payloads = []
        for i, handle in enumerate(handles):
            spec, sim = specs[i], handle.sim
            artifacts = (
                _in_cell(ids[i], spec.finish, handle, models[i])[0]
                if spec.finish is not None
                else {}
            )
            payloads.append(
                {
                    "name": spec.name,
                    "index": handle.index,
                    "now": sim.now,
                    "events_processed": sim.events_processed,
                    "metrics": sim.metrics.snapshot(),
                    "trace": [
                        [rec.time, rec.category, [list(kv) for kv in rec.fields]]
                        for rec in sim.trace.select()
                    ],
                    "flights": sim.flight.as_list() if sim.flight.enabled else [],
                    "artifacts": artifacts,
                    "busy_seconds": busy[i],
                }
            )
        return payloads
    finally:
        for label in probe_labels:
            _telemetry.unregister_probe(label)


def _worker_factory(payload):
    """Module-level :class:`CommandWorker` factory (spawn-picklable):
    the worker answers one ``run`` command for the cells it owns."""
    cells, seed, config_doc, observe = payload
    config = SimConfig.from_dict(config_doc)

    def handle(command: str, until: float) -> List[Dict[str, Any]]:
        if command != "run":
            raise SimulationError(f"unknown partition command {command!r}")
        return _run_cells(cells, seed, config, observe, until)

    return handle


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
    cells: List[str]
    partitions: int
    workers: int
    metrics: Dict[str, Dict[str, Any]]
    trace: List[List[Any]]  # [time, cell, category, {field: value}]
    flights: List[Dict[str, Any]]
    per_cell: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per-cell CPU seconds (build + run) in the owning worker.
    #: Wall-clock diagnostics — excluded from the deterministic
    #: comparison surface, consumed by ``benchmarks/bench_dist.py``.
    busy_seconds: Dict[str, float] = field(default_factory=dict)

    #: Every run is one pass to ``until``. Kept only because the
    #: ``swarm_partitioned`` benchmark's ``layout_pinned`` check
    #: (``perf/workloads.py``) reads ``merged.windows``; delete it with
    #: that check.
    windows = 1

    def layout(self) -> Dict[str, Any]:
        """The N-invariant partition layout (for manifests)."""
        return {"cells": list(self.cells)}

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
    """Build ``cells``, run each to ``until`` and merge their outputs.

    ``config.partitions`` caps the worker processes (1 = run every
    cell inline in this process — no subprocesses at all); cells are
    assigned to workers in contiguous blocks
    (:meth:`PartitionLayout.block`). The result is byte-identical for
    every ``partitions`` value.
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

    if layout.workers == 1:
        cell_payloads = _run_cells(list(enumerate(cells)), seed, config, observe, until)
    else:
        from repro.runtime.executor import CommandWorker, receive_all

        emitter = _telemetry.get_emitter()
        workers: List[Any] = []
        try:
            # Workers start inside the guarded region: when worker k
            # fails to start, workers 0..k-1 are closed rather than left
            # blocked. Live telemetry is inherited from the ambient
            # emitter: they heartbeat over their command pipes and this
            # process relays the events to whatever hub/pipe it is
            # itself wired to.
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
            # Fan the command out before collecting any reply; replies
            # are multiplexed so one slow worker never blinds the
            # others' telemetry streams.
            for worker in workers:
                worker.send("run", until)
            # Blocks come back in worker order, so the payloads are
            # already in cell-index order.
            cell_payloads = [p for payloads in receive_all(workers) for p in payloads]
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
        cells=names,
        partitions=config.partitions,
        workers=layout.workers,
        metrics=merge_metric_snapshots([p["metrics"] for p in cell_payloads]),
        trace=trace,
        flights=flights,
        per_cell=per_cell,
        busy_seconds=busy_seconds,
    )
