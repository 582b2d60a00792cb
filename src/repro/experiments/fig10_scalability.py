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
cells that never exchange a packet, run by :mod:`repro.sim.partition`
on worker processes. It is not the paper's single swarm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import Table
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.core.collector import completion_curve, progress_series
from repro.core.report import sample_progress
from repro.errors import ExperimentError
from repro.experiments.api import RunRequest, RunResult
from repro.sim.config import SimConfig
from repro.sim.partition import CellHandle, CellSpec, PartitionResult, run_partitioned
from repro.units import KB, MB

Series = List[Tuple[float, float]]

#: Default cell count of the partitioned decomposition. Fixed by the
#: experiment definition, NOT by ``partitions`` — the worker-process
#: cap must never change what is computed (see repro.sim.partition).
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


# -- fig10_cells: independent sub-swarms (repro.sim.partition) ---------


def _build_fig10_cell(
    handle: CellHandle,
    leechers: int,
    seeders: int,
    file_size: int,
    stagger: float,
    stagger_offset: int,
    num_pnodes: int,
    prefix: str,
) -> Dict[str, Any]:
    """Build one independent sub-swarm on the cell's simulator.

    Each cell is a self-contained swarm (own tracker, own address
    block, leechers occupying its slice of the global stagger slots);
    cells never exchange traffic.
    """
    cfg = SwarmConfig(
        leechers=leechers,
        seeders=seeders,
        file_size=file_size,
        piece_length=256 * KB,
        block_size=256 * KB,
        stagger=stagger,
        stagger_offset=stagger_offset,
        num_pnodes=num_pnodes,
        seed=handle.seed,
        prefix=prefix,
    )
    swarm = Swarm(cfg, sim=handle.sim)
    state: Dict[str, Any] = {"swarm": swarm, "done_at": {}}
    target = len(swarm.leechers)

    def on_complete(rec) -> None:
        state["done_at"][rec.get("node")] = rec.time
        if len(state["done_at"]) >= target:
            handle.sim.stop()

    swarm.sim.trace.subscribe("bt.complete", on_complete)
    swarm.launch()
    return state


def _finish_fig10_cell(handle: CellHandle, state: Dict[str, Any]) -> Dict[str, Any]:
    swarm = state["swarm"]
    done_at = state["done_at"]
    target = len(swarm.leechers)
    if len(done_at) < target:
        raise ExperimentError(
            f"cell {handle.name!r} did not complete: {len(done_at)}/{target} "
            f"leechers done by t={handle.sim.now:.0f}s"
        )
    return {
        "completion_times": sorted(done_at.values()),
        "progress": progress_series(swarm.sim.trace),
        "clients": target,
        "pnodes": swarm.config.num_pnodes,
    }


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

    Returns the figure result plus the merged :class:`PartitionResult`
    (metrics/trace/flights — the byte-identity comparison surface of
    the A/B tests). The result depends on the cell count — part of the
    experiment definition — but **not** on ``partitions``:
    ``partitions=1`` and ``partitions=8`` are byte-identical.
    """
    leechers = max(10, round(5754 * scale))
    num_cells = DEFAULT_CELLS if cells is None else cells
    if num_cells < 1:
        raise ExperimentError(f"cells must be >= 1, got {num_cells}")
    num_cells = min(num_cells, leechers)  # every cell needs a leecher
    splits = _leecher_split(leechers, num_cells)
    specs: List[CellSpec] = []
    offset = 0
    pnodes_per_cell: List[int] = []
    for i, count in enumerate(splits):
        pnodes = max(1, -(-(count + 5) // 32))  # 32 vnodes/pnode per cell
        pnodes_per_cell.append(pnodes)
        specs.append(
            CellSpec(
                name=f"swarm{i}",
                build=partial(
                    _build_fig10_cell,
                    leechers=count,
                    seeders=4,
                    file_size=file_size,
                    stagger=stagger,
                    stagger_offset=offset,
                    num_pnodes=pnodes,
                    prefix=f"10.{i}.0.0/16",
                ),
                finish=_finish_fig10_cell,
            )
        )
        offset += count
    merged = run_partitioned(
        specs,
        until=max_time,
        seed=seed,
        config=SimConfig(partitions=partitions, fluid=fluid),
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
    total_pnodes = sum(pnodes_per_cell)
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


# -- unified entry points (RunRequest -> RunResult) --------------------


def _artifacts(result: Fig10Result) -> dict:
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


def _execute(run_fn, request: RunRequest, point: bool) -> RunResult:
    kwargs = request.kwargs
    kwargs.setdefault("seed", request.seed)
    if point:
        kwargs.setdefault("scale", 0.01)
    if run_fn is run_fig10_cells and request.partitions is not None:
        kwargs.setdefault("partitions", request.partitions)
    if request.fluid is not None:
        kwargs.setdefault("fluid", request.fluid)
    result = run_fn(**kwargs)
    report = (
        f"scale={kwargs['scale']}: {result.clients} clients on "
        f"{result.pnodes} pnodes, last completion "
        f"{result.last_completion:.0f}s, steepness {result.ramp_steepness:.2f}"
        if point
        else print_report(result)
    )
    return RunResult.ok(request, value=result, artifacts=_artifacts(result), report=report)


def run(request: RunRequest) -> RunResult:
    """``fig10`` entry point under the unified protocol (one swarm;
    ``request.partitions`` is ignored like on every unpartitioned
    experiment)."""
    return _execute(run_fig10, request, point=False)


def run_point(request: RunRequest) -> RunResult:
    """One ``fig10`` sweep point: the scalability run at a single
    ``scale`` (fraction of the paper's 5754 clients); the aggregate
    shows how the completion ramp evolves with swarm size."""
    return _execute(run_fig10, request, point=True)


def run_cells(request: RunRequest) -> RunResult:
    """``fig10_cells`` entry point: ``request.partitions`` caps the
    worker processes."""
    return _execute(run_fig10_cells, request, point=False)


def run_cells_point(request: RunRequest) -> RunResult:
    """One ``fig10_cells`` sweep point at a single ``scale``."""
    return _execute(run_fig10_cells, request, point=True)
