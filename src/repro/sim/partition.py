"""Layout and merge for independent cells (``fig10_cells``).

The paper's platform is *decentralized*: each physical node emulates
the network for its own vnodes. ``fig10_cells``
(:func:`repro.experiments.fig10_scalability.run_fig10_partitioned`)
splits a swarm into **cells** — independent sub-swarms, each with its
own simulator and derived seed (``derive_seed(seed, "cell/<name>")``)
— and runs every cell as one point of an
:class:`~repro.runtime.plan.ExecutionPlan`. No message ever crosses a
cell, so running them is a sweep; this module holds the two pieces
that are specific to cells:

* :func:`merge_cells` folds the per-cell point results into one
  :class:`PartitionResult` (metrics merged by
  :func:`merge_metric_snapshots`, trace records sorted by time);
* :class:`PartitionLayout` is the contiguous block of cells a worker
  count would give each worker, which the critical-path estimates of
  ``perf/`` and ``benchmarks/bench_dist.py`` sum CPU seconds over.

Everything a cell computes is a function of the cell alone, so the
merged result is **byte-identical for every worker count**, including
one (every cell inline in the calling process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class PartitionLayout:
    """Contiguous assignment of cell indices to worker processes.

    ``requested`` is the ``partitions=`` cap; ``assignments`` holds one
    non-empty tuple of cell indices per worker. Asking for more workers
    than there are cells degrades to one cell per worker — never an
    empty worker, never an error. The runtime hands each cell to the
    next free worker instead; this block shape is the model the
    critical-path estimates use.
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
    per_cell: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per-cell CPU seconds (build + run) in the process that ran it.
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
            "per_cell": self.per_cell,
        }
        if not deterministic_only:
            doc["partitions"] = self.partitions
            doc["workers"] = self.workers
            doc["busy_seconds"] = self.busy_seconds
        return doc


def merge_cells(
    payloads: Sequence[Dict[str, Any]],
    seed: int,
    until: float,
    partitions: int,
    workers: int,
) -> PartitionResult:
    """Merge per-cell payloads, given in cell order, into one result.

    A payload holds the cell's ``name``, final ``now``,
    ``events_processed``, metrics ``snapshot``, ``trace`` rows
    (``[time, category, [[field, value], ...]]``), ``artifacts`` and
    ``busy_seconds``.
    """
    trace: List[List[Any]] = []
    per_cell: Dict[str, Dict[str, Any]] = {}
    busy_seconds: Dict[str, float] = {}
    for payload in payloads:
        name = payload["name"]
        busy_seconds[name] = payload["busy_seconds"]
        for time, category, fields in payload["trace"]:
            trace.append([time, name, category, {k: v for k, v in fields}])
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
        cells=[payload["name"] for payload in payloads],
        partitions=partitions,
        workers=workers,
        metrics=merge_metric_snapshots([p["metrics"] for p in payloads]),
        trace=trace,
        per_cell=per_cell,
        busy_seconds=busy_seconds,
    )
