"""Figures 10 and 11: the 5754-client scalability run.

Paper setup: 5760 virtual nodes (5754 clients, 4 seeders, one tracker)
on 180 physical nodes (32 vnodes per pnode); 16 MB file; clients
started every 0.25 s; finished clients keep seeding. Figure 10 plots
the progress of every 50th client; Figure 11 the number of completed
clients over time. Expected shape: "most clients finish their
downloads nearly at the same time" — a steep completion ramp.

The full-scale run is minutes of wall time; ``run_fig10`` scales every
dimension with one ``scale`` parameter (1.0 = paper scale) while
keeping the 32-vnodes-per-pnode folding. For scaled runs the block
size is raised to one block per piece, trading request granularity for
event count (documented in DESIGN.md).

``fig10_cells`` (:func:`run_fig10_partitioned`) is a different
experiment: the same client count split into independent sub-swarm
cells that never exchange a packet, each run as one point of an
:class:`~repro.runtime.plan.ExecutionPlan` and merged by
:func:`repro.sim.partition.merge_cells`. It is not the paper's single
swarm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import Table
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.core.collector import completion_curve, progress_series
from repro.core.report import sample_progress
from repro.errors import ExperimentError
from repro.experiments.api import RunRequest, RunResult
from repro.obs import telemetry
from repro.sim.config import SimConfig
from repro.sim.kernel import Simulator
from repro.sim.partition import PartitionResult, merge_cells
from repro.sim.rng import derive_seed
from repro.units import KB, MB

Series = List[Tuple[float, float]]

#: Default cell count of the partitioned decomposition. Fixed by the
#: experiment definition, NOT by ``partitions`` — the worker-process
#: cap must never change what is computed.
DEFAULT_CELLS = 4


@dataclass(frozen=True)
class Fig10Result:
    clients: int
    pnodes: int
    vnodes_per_pnode: int
    selected_progress: Dict[str, Series]  # Figure 10
    completion: Series  # Figure 11
    first_completion: float
    last_completion: float
    median_completion: float
    #: N-invariant partition layout (the cell names) for
    #: ``fig10_cells``; None for the single-swarm run.
    partition: Optional[Dict[str, Any]] = None

    @property
    def bulk_window(self) -> float:
        """Seconds between the 10th and 90th percentile completions —
        how long the *bulk* of the swarm takes to drain."""
        if not self.completion:
            return 0.0
        times = [t for t, _ in self.completion]
        lo = times[int(0.10 * (len(times) - 1))]
        hi = times[int(0.90 * (len(times) - 1))]
        return hi - lo

    @property
    def ramp_steepness(self) -> float:
        """1 − bulk_window / last_completion: 'most clients finish
        their downloads nearly at the same time' shows up as a value
        close to 1 (80% of the swarm drains in a small slice of the
        experiment's duration)."""
        if not self.completion or self.last_completion <= 0:
            return 0.0
        return 1.0 - self.bulk_window / self.last_completion


def run_fig10(
    scale: float = 0.1,
    stagger: float = 0.25,
    file_size: int = 16 * MB,
    seed: int = 0,
    max_time: float = 30000.0,
    select_every: int = 50,
    fluid: bool = False,
) -> Fig10Result:
    """Run the scalability experiment at ``scale`` x 5754 clients as
    one swarm on one simulator."""
    leechers = max(10, round(5754 * scale))
    pnodes = max(1, -(-(leechers + 5) // 32))  # keep 32 vnodes per pnode
    config = SwarmConfig(
        leechers=leechers,
        seeders=4,
        file_size=file_size,
        # One block per piece keeps the event count tractable at scale.
        piece_length=256 * KB,
        block_size=256 * KB,
        stagger=stagger,
        num_pnodes=pnodes,
        seed=seed,
        prefix="10.0.0.0/8",
        fluid=fluid,
    )
    swarm = Swarm(config)
    last = swarm.run(max_time=max_time)
    trace = swarm.sim.trace
    completion = completion_curve(trace)
    times = [t for t, _ in completion]
    selected = sample_progress(trace, every=max(1, min(select_every, leechers // 10)))
    return Fig10Result(
        clients=leechers,
        pnodes=pnodes,
        vnodes_per_pnode=-(-(leechers + 5) // pnodes),
        selected_progress=selected,
        completion=completion,
        first_completion=times[0],
        last_completion=last,
        median_completion=times[len(times) // 2],
    )


# -- fig10_cells: independent sub-swarms, one sweep point per cell -----


def _run_cell(request: RunRequest) -> RunResult:
    """Build, run and finish one ``fig10_cells`` sub-swarm.

    The cell is a self-contained swarm (own simulator, tracker and
    address block, leechers occupying its slice of the global stagger
    slots) that never exchanges traffic with another cell. Its output
    is a function of ``request`` alone, whichever process runs it and
    whatever ran there before.
    """
    p = request.kwargs
    name = p["name"]
    sim = Simulator(seed=request.seed, config=SimConfig(fluid=p["fluid"]))
    # Wall-side progress probe, sampled by this process's heartbeat.
    probe = telemetry.register_sim(sim, f"cell/{name}") if telemetry.active() else None
    try:
        started = time.process_time()
        swarm = Swarm(
            SwarmConfig(
                leechers=p["leechers"],
                seeders=4,
                file_size=p["file_size"],
                piece_length=256 * KB,
                block_size=256 * KB,
                stagger=p["stagger"],
                stagger_offset=p["stagger_offset"],
                num_pnodes=p["pnodes"],
                seed=request.seed,
                prefix=p["prefix"],
            ),
            sim=sim,
        )
        done_at: Dict[str, float] = {}
        target = len(swarm.leechers)

        def on_complete(rec) -> None:
            done_at[rec.get("node")] = rec.time
            if len(done_at) >= target:
                sim.stop()

        sim.trace.subscribe("bt.complete", on_complete)
        swarm.launch()
        sim.run(p["until"])
        busy_seconds = time.process_time() - started
        if len(done_at) < target:
            raise ExperimentError(
                f"cell {name!r} did not complete: {len(done_at)}/{target} "
                f"leechers done by t={sim.now:.0f}s"
            )
        payload = {
            "name": name,
            "now": sim.now,
            "events_processed": sim.events_processed,
            "metrics": sim.metrics.snapshot(),
            "trace": [
                [rec.time, rec.category, [list(kv) for kv in rec.fields]]
                for rec in sim.trace.select()
            ],
            "artifacts": {
                "completion_times": sorted(done_at.values()),
                "progress": progress_series(sim.trace),
                "clients": target,
                "pnodes": p["pnodes"],
            },
            "busy_seconds": busy_seconds,
        }
    finally:
        if probe is not None:
            telemetry.unregister_probe(probe)
    return RunResult.ok(request, artifacts=payload)


def _leecher_split(leechers: int, cells: int) -> List[int]:
    """Near-even deterministic split (first ``leechers % cells`` cells
    take the extra client)."""
    base, extra = divmod(leechers, cells)
    return [base + (1 if i < extra else 0) for i in range(cells)]


def run_fig10_partitioned(
    scale: float = 0.1,
    stagger: float = 0.25,
    file_size: int = 16 * MB,
    seed: int = 0,
    max_time: float = 30000.0,
    select_every: int = 50,
    partitions: int = 1,
    cells: Optional[int] = None,
    fluid: bool = False,
) -> Tuple[Fig10Result, PartitionResult]:
    """The ``fig10_cells`` run: ``scale`` x 5754 clients split into
    ``cells`` independent sub-swarms, each with its own tracker and
    address block, on up to ``partitions`` worker processes.

    Each cell is one point of an :class:`~repro.runtime.plan.
    ExecutionPlan` run by :func:`~repro.runtime.executor.execute_plan`
    with one attempt (a failed cell raises :class:`ExperimentError`
    once every cell has finished); ``partitions=1`` runs them inline.
    Returns the figure result plus the merged :class:`PartitionResult`
    (metrics/trace — the byte-identity comparison surface of the A/B
    tests). The result depends on the cell count — part of the
    experiment definition — but **not** on ``partitions``:
    ``partitions=1`` and ``partitions=8`` are byte-identical.
    """
    import multiprocessing

    from repro.runtime import ExecutionPlan, execute_plan

    leechers = max(10, round(5754 * scale))
    num_cells = DEFAULT_CELLS if cells is None else cells
    if num_cells < 1:
        raise ExperimentError(f"cells must be >= 1, got {num_cells}")
    if not isinstance(partitions, int) or partitions < 1:
        raise ExperimentError(f"partitions must be an integer >= 1, got {partitions!r}")
    num_cells = min(num_cells, leechers)  # every cell needs a leecher
    points: List[RunRequest] = []
    offset = 0
    for i, count in enumerate(_leecher_split(leechers, num_cells)):
        name = f"swarm{i}"
        params = {
            "name": name,
            "leechers": count,
            "stagger_offset": offset,
            "pnodes": max(1, -(-(count + 5) // 32)),  # 32 vnodes/pnode per cell
            "prefix": f"10.{i}.0.0/16",
            "file_size": file_size,
            "stagger": stagger,
            "until": max_time,
            "fluid": fluid,
        }
        points.append(
            RunRequest.make("fig10_cells", params, seed=derive_seed(seed, f"cell/{name}"))
        )
        offset += count
    # A daemonic process (a sweep worker running this point) cannot
    # start workers of its own: its cells run inline.
    workers = 1 if multiprocessing.current_process().daemon else min(partitions, num_cells)
    outcome = execute_plan(
        ExecutionPlan("fig10_cells", tuple(points), base_seed=seed),
        parallel=0 if workers == 1 else workers,
        runner=_run_cell,
        max_attempts=1,
    )
    if outcome.failed:
        failed = outcome.failed[0]
        raise ExperimentError(f"{failed.request.kwargs['name']}: {failed.error}")
    merged = merge_cells(
        [result.artifacts for result in outcome.results],
        seed=seed,
        until=max_time,
        partitions=partitions,
        workers=workers,
    )

    all_times = sorted(
        t
        for name in merged.cells
        for t in merged.per_cell[name]["artifacts"]["completion_times"]
    )
    completion = [(t, float(i + 1)) for i, t in enumerate(all_times)]
    # Figure 10 sampling over the union of cells: qualify node names by
    # cell (vnode names repeat per cell), order by start time, keep
    # every k-th — the same rule sample_progress applies to one trace.
    all_progress: Dict[str, Series] = {}
    for name in merged.cells:
        for node, series in merged.per_cell[name]["artifacts"]["progress"].items():
            all_progress[f"{name}:{node}"] = series
    every = max(1, min(select_every, leechers // 10))
    ordered = sorted(all_progress.items(), key=lambda item: item[1][0][0])
    selected = {
        node: series
        for i, (node, series) in enumerate(ordered, start=1)
        if i % every == 0
    }
    total_pnodes = sum(cell["artifacts"]["pnodes"] for cell in merged.per_cell.values())
    total_vnodes = leechers + num_cells * 5  # +4 seeders +1 tracker per cell
    result = Fig10Result(
        clients=leechers,
        pnodes=total_pnodes,
        vnodes_per_pnode=-(-total_vnodes // total_pnodes),
        selected_progress=selected,
        completion=completion,
        first_completion=all_times[0],
        last_completion=all_times[-1],
        median_completion=all_times[len(all_times) // 2],
        partition=merged.layout(),
    )
    return result, merged


def print_report(result: Fig10Result) -> str:
    what = (
        "Figures 10/11: scalability run"
        if result.partition is None
        else f"fig10_cells: {len(result.partition['cells'])} independent sub-swarms"
    )
    table = Table(
        ["metric", "value"],
        title=(
            f"{what}, {result.clients} clients on {result.pnodes} pnodes "
            f"(~{result.vnodes_per_pnode} vnodes/pnode)"
        ),
    )
    table.add_row("first completion (s)", result.first_completion)
    table.add_row("median completion (s)", result.median_completion)
    table.add_row("last completion (s)", result.last_completion)
    table.add_row("bulk (p10-p90) window (s)", result.bulk_window)
    table.add_row("completion ramp steepness", result.ramp_steepness)
    table.add_row("selected clients plotted", len(result.selected_progress))
    if result.partition is not None:
        table.add_row("partition cells", len(result.partition["cells"]))
    return table.render()


# -- sweep artifacts and the per-point entries (RunRequest -> RunResult) --


def artifacts(result: Fig10Result) -> dict:
    out = {
        "clients": result.clients,
        "pnodes": result.pnodes,
        "first_completion": result.first_completion,
        "median_completion": result.median_completion,
        "last_completion": result.last_completion,
        "bulk_window": result.bulk_window,
        "ramp_steepness": result.ramp_steepness,
    }
    if result.partition is not None:
        out["partition"] = result.partition
    return out


def run_fig10_cells(**kwargs: Any) -> Fig10Result:
    """The figure-level result of :func:`run_fig10_partitioned`."""
    return run_fig10_partitioned(**kwargs)[0]


#: The registry checks a request's parameters against this signature.
run_fig10_cells.__wrapped__ = run_fig10_partitioned


def _point(run_fn, request: RunRequest) -> RunResult:
    """One sweep point at a single ``scale`` (fraction of the paper's
    5754 clients); the aggregate shows how the completion ramp evolves
    with swarm size."""
    kwargs = {"scale": 0.01, "seed": request.seed, **request.kwargs}
    result = run_fn(**kwargs)
    return RunResult.ok(
        request,
        value=result,
        artifacts=artifacts(result),
        report=(
            f"scale={kwargs['scale']}: {result.clients} clients on "
            f"{result.pnodes} pnodes, last completion "
            f"{result.last_completion:.0f}s, steepness {result.ramp_steepness:.2f}"
        ),
    )


def run_point(request: RunRequest) -> RunResult:
    """One ``fig10`` sweep point (one swarm)."""
    return _point(run_fig10, request)


def run_cells_point(request: RunRequest) -> RunResult:
    """One ``fig10_cells`` sweep point (a ``partitions=`` parameter
    caps the worker processes of its cells)."""
    return _point(run_fig10_cells, request)


#: The registry checks a sweep point's parameters against these signatures.
run_point.__wrapped__ = run_fig10
run_cells_point.__wrapped__ = run_fig10_cells
