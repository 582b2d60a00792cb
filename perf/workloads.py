"""The six end-to-end workloads.

Each workload is a closed batch run: a fixed amount of work, started
once, timed until it returns. ``config(variant)`` runs in the harness
and returns a plain JSON dict; that dict is all the child interpreter
(``perf/child.py``) receives. ``setup`` / ``run`` / ``report`` run in
the child and drive only public entry points of ``repro``:

* ``setup(cfg)``   — ``import repro`` → build testbed/topology → launch;
  everything a user pays before the run phase (counted as ``setup_s``);
* ``run(state)``   — the timed run phase, one call;
* ``report(state, wall_s)`` — simulated result, work units, operation
  counts, deterministic per-layer counts, wall-clock per-layer numbers
  and the output checks.

``repro`` is imported inside these methods, never at module import, so
the harness can list workloads without paying (or needing) the import.

Why these six (one line each is also in ``BENCHMARK.json``):

* ``swarm_chatty`` — fig8 shape. Sixteen REQUEST/PIECE exchanges per
  piece plus HAVE fan-out make control messages the event stream:
  ``net.tcp``, ``bittorrent`` and ``sim`` do the work.
* ``swarm_bulk`` — fig10 shape. Same stack, but one block per piece and
  heavy folding: payload-dominated, packet trains in ``net.pipe``.
* ``swarm_bulk_fluid`` — the same shape with ``fluid=True``:
  ``net.fluid`` replaces per-packet delivery, so a gain bought for
  packets at fluid's cost (or the reverse) shows. Its simulated result
  is judged against its packet-mode twin.
* ``ping_mesh`` — bare forwarding at the smallest packet over the full
  Figure-7 topology plus a large idle group: ``net.tcp`` and
  ``bittorrent`` do nothing, ``net.ipfw`` misses its flow cache on a
  quarter of 105k-rule evaluations, and set-up/RSS measure ``topology``.
* ``sweep_folding`` — fig9 as a 12-point sweep on two worker processes
  with a JSONL checkpoint: many short simulations, so ``runtime`` spawn,
  IPC, checkpoint and aggregation are visible.
* ``swarm_partitioned`` — one large run split over worker processes by
  ``sim.partition``: build/window/merge cost and cell imbalance.

Every batch is sized to run 5-7 s on the reference box, so that one call
of the benchmark driver can time a batch of each input variant
(``harness.VARIANTS``) and report their median inside its time budget.
"""

from __future__ import annotations

import os
import random
import resource
import time
from typing import Any, Dict, List, Optional

KB = 1024
MB = 1024 * 1024

#: Must all read 0 on every workload that does not turn fluid on.
FLUID_COUNTS = (
    "net.fluid.flows",
    "net.fluid.epochs",
    "net.fluid.byte_share",
    "net.fluid.demotions",
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(snapshot: Dict[str, Dict[str, Any]], payload_bytes: int) -> Dict[str, float]:
    """Per-layer deterministic counts out of a metrics snapshot
    (``sim.metrics.snapshot(include_wall=True)`` or a partition merge).

    Metrics the snapshot does not carry read 0: a partition merge drops
    the wall-flagged twins (flow-cache hits, train coalescing, lazy
    pipes), so those ratios are 0 on ``swarm_partitioned``.
    """

    def value(name: str, key: str = "value") -> float:
        metric = snapshot.get(name)
        return metric[key] if metric is not None else 0

    events = value("sim.kernel.events_processed")
    evals = value("net.ipfw.packets_evaluated")
    packets = value("net.pipe.packets_out")
    return {
        "sim.events": events,
        "sim.events_per_mb": _ratio(events, payload_bytes / MB),
        # The kernel sets this gauge only when run() returns, so today
        # it is the depth left at stop rather than a running peak.
        "sim.queue_depth_peak": value("sim.kernel.queue_depth", "peak"),
        "net.ipfw.evals": evals,
        "net.ipfw.cache_hit_ratio": _ratio(value("net.ipfw.flow_cache_hits"), evals),
        "net.ipfw.rules_scanned_per_eval": _ratio(
            value("net.ipfw.rules_scanned_total"), evals
        ),
        "net.ipfw.rules": value("net.ipfw.rules"),
        "net.pipe.packets": packets,
        "net.pipe.train_ratio": _ratio(value("net.pipe.train_coalesced"), packets),
        "net.pipe.drops": value("net.pipe.drops_loss") + value("net.pipe.drops_queue"),
        "net.fluid.flows": value("net.fluid.flows"),
        "net.fluid.epochs": value("net.fluid.epochs"),
        # Fluid-path wire bytes per delivered payload byte; headers,
        # endgame duplicates and re-sent segments count, so it can pass 1.
        "net.fluid.byte_share": _ratio(value("net.fluid.bytes"), payload_bytes),
        "net.fluid.demotions": value("net.fluid.demotions"),
        "net.tcp.segments": value("net.tcp.segments_sent"),
        "net.tcp.retransmissions": value("net.tcp.retransmissions"),
        "bittorrent.pieces": value("bt.client.pieces_completed"),
        "bittorrent.choke_rounds": value("bt.client.choke_rounds"),
        "bittorrent.corrupt_pieces": value("bt.client.corrupt_pieces"),
        "topology.pipes_materialized": value("topo.pipes_materialized"),
        "topology.lazy_pending": value("topo.lazy_pipes_pending"),
    }


def _fluid_off(counts: Dict[str, float]) -> bool:
    return all(counts[name] == 0 for name in FLUID_COUNTS)


class _Deploy:
    """Wall and RSS growth of one topology build (``topology`` layer)."""

    def __init__(self) -> None:
        self.rss0 = _maxrss_kb()
        self.t0 = time.perf_counter()

    def walls(self, vnodes: int) -> Dict[str, float]:
        seconds = time.perf_counter() - self.t0
        return {
            "topology.deploy_us_per_vnode": 1e6 * seconds / vnodes,
            "topology.rss_kb_per_vnode": (_maxrss_kb() - self.rss0) / vnodes,
        }


def _topology_size(compiler) -> Dict[str, int]:
    stats = compiler.stats()
    return {"topology.vnodes": stats["vnodes"], "topology.rules": stats["rules"]}


class Workload:
    """What the harness reads off every workload besides its methods."""

    name: str
    why: str
    work_unit: str
    #: Processes doing the work: 1, or the worker count.
    processes = 1

    def twin(self, cfg: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Config of the run whose simulated result is this one's
        reference, or ``None`` when the reference is the pinned value."""
        return None


class SwarmWorkload(Workload):
    """One ``Swarm`` run to completion (``Swarm`` / ``SwarmConfig``)."""

    work_unit = "MB"

    def __init__(self, name: str, why: str, **shape) -> None:
        self.name = name
        self.why = why
        self.shape = shape

    def config(self, variant: int) -> Dict[str, Any]:
        return {"seed": variant, "max_time": 30000.0, **self.shape}

    def twin(self, cfg: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        # A fluid run is judged against the same swarm in packet mode.
        return {**cfg, "fluid": False} if cfg.get("fluid") else None

    def setup(self, cfg):
        from repro.bittorrent.swarm import Swarm, SwarmConfig

        fields = {k: v for k, v in cfg.items() if k != "max_time"}
        deploy = _Deploy()
        swarm = Swarm(SwarmConfig(**fields))
        walls = deploy.walls(swarm.compiler.stats()["vnodes"])
        swarm.launch()
        return {"cfg": cfg, "swarm": swarm, "walls": walls, "error": None}

    def run(self, state) -> None:
        from repro.errors import ExperimentError

        try:
            state["swarm"].run(max_time=state["cfg"]["max_time"])
        except ExperimentError as exc:  # max_time hit: failed downloads
            state["error"] = str(exc)

    def report(self, state, wall_s: float) -> Dict[str, Any]:
        cfg, swarm = state["cfg"], state["swarm"]
        times = swarm.completion_times()
        leechers = cfg["leechers"]
        payload = swarm.total_payload_received()
        counts = layer_counts(swarm.metrics_snapshot(include_wall=True), payload)
        counts.update(_topology_size(swarm.compiler))
        checks = {
            "all_leechers_complete": len(times) == leechers and state["error"] is None,
            "payload_exact": payload == leechers * cfg["file_size"],
            "no_corrupt_pieces": counts["bittorrent.corrupt_pieces"] == 0,
            "no_retransmissions": counts["net.tcp.retransmissions"] == 0,
        }
        if cfg.get("fluid"):
            checks["fluid_engaged"] = counts["net.fluid.flows"] > 0
        else:
            checks["fluid_counts_zero"] = _fluid_off(counts)
        return {
            "result": times[-1] if times else 0.0,
            "work_units": payload / MB,
            "ops_attempted": leechers,
            "ops_failed": leechers - len(times),
            "counts": counts,
            "walls": state["walls"],
            "checks": checks,
            "error": state["error"],
        }


class PingMesh(Workload):
    """ICMP echoes over the Figure-7 topology plus an idle group
    (``Testbed`` + ``compile_topology`` + ``ping_process``)."""

    name = "ping_mesh"
    why = (
        "bare forwarding at the smallest packet: no tcp or bittorrent, flow-cache "
        "misses over 105k rules, and set-up/RSS of a lazy 52750-vnode topology"
    )
    work_unit = "echoes"

    def config(self, variant: int) -> Dict[str, Any]:
        return {
            "seed": variant,
            "scale": 1.0,
            "idle_vnodes": 50000,
            "num_pnodes": 32,
            "sources": 1500,
            "targets": 10,
            "echoes": 4,
            "size": 64,
        }

    def setup(self, cfg):
        from repro.net.ping import ping_process
        from repro.sim.process import Process
        from repro.topology.compiler import compile_topology
        from repro.topology.presets import figure7_topology
        from repro.units import mbps, ms
        from repro.virt.deployment import Testbed

        deploy = _Deploy()
        testbed = Testbed(num_pnodes=cfg["num_pnodes"], seed=cfg["seed"])
        spec = figure7_topology(scale=cfg["scale"])
        active_groups = list(spec.groups)
        if cfg["idle_vnodes"]:
            spec.add_group(
                "idle", "10.64.0.0/10", cfg["idle_vnodes"],
                down_bw=mbps(2), up_bw=mbps(1), latency=ms(30),
            )
        compiler = compile_topology(spec, testbed)
        walls = deploy.walls(compiler.stats()["vnodes"])

        active = [v for group in active_groups for v in compiler.vnodes(group)]
        rng = random.Random(cfg["seed"])
        sources = rng.sample(active, min(cfg["sources"], len(active)))

        def prober(src, targets):
            results = []
            for dst in targets:
                outcome = yield from ping_process(
                    src.pnode.stack, src.address, dst.address,
                    count=cfg["echoes"], interval=0.5, size=cfg["size"], timeout=10.0,
                )
                results.append(outcome)
            return results

        per_source = min(cfg["targets"], len(active))
        probes = [
            Process(
                testbed.sim,
                prober(src, rng.sample(active, per_source)),
                name=f"probe{i}",
                start_delay=0.01 * i,
            )
            for i, src in enumerate(sources)
        ]
        return {
            "testbed": testbed, "compiler": compiler, "probes": probes,
            "walls": walls, "expected": len(probes) * per_source * cfg["echoes"],
        }

    def run(self, state) -> None:
        state["testbed"].sim.run()

    def report(self, state, wall_s: float) -> Dict[str, Any]:
        sim = state["testbed"].sim
        outcomes = [o for probe in state["probes"] for o in (probe.result or [])]
        sent = sum(o.sent for o in outcomes)
        received = sum(o.received for o in outcomes)
        rtts = [rtt for o in outcomes for rtt in o.rtts]
        expected = state["expected"]
        counts = layer_counts(sim.metrics.snapshot(include_wall=True), 0)
        counts.update(_topology_size(state["compiler"]))
        return {
            "result": sum(rtts) / len(rtts) if rtts else 0.0,
            "work_units": float(received),
            "ops_attempted": expected,
            "ops_failed": expected - received,
            "counts": counts,
            "walls": state["walls"],
            "checks": {
                "every_echo_answered": received == sent == expected,
                "no_pipe_drops": counts["net.pipe.drops"] == 0,
                "tcp_idle": counts["net.tcp.segments"] == 0,
                "bittorrent_idle": counts["bittorrent.pieces"] == 0,
                "fluid_counts_zero": _fluid_off(counts),
            },
            "error": None,
        }


def timed_point(request):
    """Sweep-point runner: fig9's public ``run_point`` plus the CPU the
    point cost its worker (feeds ``runtime.efficiency``)."""
    from repro.experiments import fig9_folding

    start = time.process_time()
    result = fig9_folding.run_point(request)
    result.artifacts["point_cpu_s"] = time.process_time() - start
    return result


class SweepFolding(Workload):
    """fig9 folding validation as a parallel sweep (``ExecutionPlan`` +
    ``execute_plan`` with a JSONL checkpoint)."""

    name = "sweep_folding"
    why = (
        "12 short fig9 simulations on 2 worker processes with a checkpoint: runtime "
        "spawn, IPC and aggregation are visible, and folding must not change bytes"
    )
    processes = 2
    work_unit = "points"

    def config(self, variant: int) -> Dict[str, Any]:
        return {
            "base_seed": variant,
            "leechers": 24,
            "seeders": 4,
            "file_size": 3 * MB,
            "stagger": 10.0,
            "pnode_counts": [28, 14, 7, 4, 2, 1],
            "replications": 2,
            "workers": 2,
            "max_time": 20000.0,
        }

    def setup(self, cfg):
        from repro.runtime import ExecutionPlan

        plan = ExecutionPlan.build(
            "fig9",
            grid={"num_pnodes": cfg["pnode_counts"]},
            base_params={
                "leechers": cfg["leechers"],
                "seeders": cfg["seeders"],
                "file_size": cfg["file_size"],
                "stagger": cfg["stagger"],
                "max_time": cfg["max_time"],
            },
            replications=cfg["replications"],
            base_seed=cfg["base_seed"],
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        checkpoint = os.path.join(OUT_DIR, f"sweep_folding.{os.getpid()}.jsonl")
        return {"cfg": cfg, "plan": plan, "checkpoint": checkpoint, "outcome": None}

    def run(self, state) -> None:
        from repro.runtime import execute_plan

        state["outcome"] = execute_plan(
            state["plan"],
            parallel=state["cfg"]["workers"],
            runner=timed_point,
            checkpoint_path=state["checkpoint"],
        )

    def report(self, state, wall_s: float) -> Dict[str, Any]:
        from repro.runtime import load_checkpoint

        cfg, plan, outcome = state["cfg"], state["plan"], state["outcome"]
        try:
            checkpointed = len(load_checkpoint(state["checkpoint"]))
        finally:
            if os.path.exists(state["checkpoint"]):
                os.remove(state["checkpoint"])
        done = outcome.completed
        lasts = [r.artifacts["last_completion"] for r in done]
        final_bytes = {r.artifacts["final_bytes"] for r in done}
        point_cpu = sum(r.artifacts["point_cpu_s"] for r in done)
        workers = cfg["workers"]
        return {
            "result": sum(lasts) / len(lasts) if lasts else 0.0,
            "work_units": float(len(done)),
            "ops_attempted": len(plan),
            "ops_failed": len(plan) - len(done),
            "counts": {
                "runtime.points": len(done),
                "runtime.retries": outcome.retried,
                "runtime.failed": len(outcome.failed),
            },
            "walls": {
                "runtime.efficiency": _ratio(point_cpu, workers * wall_s),
                # Wall not explained by perfectly parallel point work:
                # spawn, IPC, checkpoint writes and the uneven tail.
                "runtime.overhead_s": wall_s - point_cpu / workers,
            },
            "checks": {
                "no_failed_points": not outcome.failed,
                "no_retried_points": outcome.retried == 0,
                "final_bytes_equal_across_foldings": final_bytes
                == {float(cfg["leechers"] * cfg["file_size"])},
                "checkpoint_holds_every_point": checkpointed == len(plan),
            },
            "error": outcome.failed[0].error if outcome.failed else None,
        }


class SwarmPartitioned(Workload):
    """Partitioned fig10 (``run_fig10_partitioned``), 4 cells on 2 workers."""

    name = "swarm_partitioned"
    why = (
        "one large run split into 4 cells on 2 worker processes: sim.partition "
        "build/window/merge cost and cell imbalance, honest wall next to critical path"
    )
    processes = 2
    work_unit = "MB"

    #: The layout this decomposition must keep producing.
    PINNED_CELLS = ["swarm0", "swarm1", "swarm2", "swarm3"]
    PINNED_WINDOWS = 1

    def config(self, variant: int) -> Dict[str, Any]:
        return {
            "seed": variant,
            "scale": 0.03,
            "partitions": 2,
            "cells": 4,
            "file_size": 8 * MB,
            "stagger": 0.25,
            "max_time": 30000.0,
        }

    def setup(self, cfg):
        from repro.experiments import fig10_scalability  # noqa: F401 — the import is the set-up

        return {"cfg": cfg, "value": None, "error": None}

    def run(self, state) -> None:
        from repro.errors import ExperimentError
        from repro.experiments.fig10_scalability import run_fig10_partitioned
        from repro.runtime.executor import WorkerCrashed

        try:
            state["value"] = run_fig10_partitioned(**state["cfg"])
        except (ExperimentError, WorkerCrashed) as exc:  # a cell hit max_time
            state["error"] = str(exc).splitlines()[0]

    def report(self, state, wall_s: float) -> Dict[str, Any]:
        from repro.sim.partition import PartitionLayout

        cfg = state["cfg"]
        if state["value"] is None:
            return {
                "result": 0.0, "work_units": 0.0,
                "ops_attempted": cfg["cells"], "ops_failed": cfg["cells"],
                "counts": {}, "walls": {},
                "checks": {"all_cells_complete": False},
                "error": state["error"],
            }
        result, merged = state["value"]
        pieces = -(-cfg["file_size"] // (256 * KB))
        counts = layer_counts(merged.metrics, result.clients * cfg["file_size"])
        counts["topology.vnodes"] = result.clients + 5 * len(merged.cells)
        counts["topology.rules"] = counts["net.ipfw.rules"]
        counts["sim.partition.windows"] = merged.windows

        layout = PartitionLayout.block(len(merged.cells), cfg["partitions"])
        per_worker: List[float] = [
            sum(merged.busy_seconds[merged.cells[i]] for i in group)
            for group in layout.assignments
        ]
        critical = max(per_worker)
        completions = merged.metrics["bt.swarm.completions"]["value"]
        return {
            "result": result.last_completion,
            "work_units": counts["bittorrent.pieces"] * 256 * KB / MB,
            "ops_attempted": len(merged.cells),
            "ops_failed": 0,
            "counts": counts,
            "walls": {
                "sim.partition.critical_path_s": critical,
                "sim.partition.overhead_s": wall_s - critical,
                "sim.partition.imbalance": critical / (sum(per_worker) / len(per_worker)),
            },
            "checks": {
                "all_cells_complete": completions == result.clients,
                "payload_exact": counts["bittorrent.pieces"] == result.clients * pieces,
                "no_corrupt_pieces": counts["bittorrent.corrupt_pieces"] == 0,
                "no_retransmissions": counts["net.tcp.retransmissions"] == 0,
                "fluid_counts_zero": _fluid_off(counts),
                "layout_pinned": merged.cells == self.PINNED_CELLS
                and merged.windows == self.PINNED_WINDOWS
                and merged.workers == len(layout.assignments),
            },
            "error": None,
        }


_BULK = dict(
    seeders=4, piece_length=256 * KB, block_size=256 * KB,
    stagger=0.25, prefix="10.0.0.0/8",
)

WORKLOADS = {
    w.name: w
    for w in (
        SwarmWorkload(
            "swarm_chatty",
            "fig8 shape, 16 KB blocks: control messages are the event stream, so "
            "net.tcp, bittorrent and sim do the work",
            leechers=80, seeders=4, file_size=4 * MB, stagger=5.0, num_pnodes=16,
        ),
        SwarmWorkload(
            "swarm_bulk",
            "fig10 shape, one 256 KB block per piece, 32 vnodes per pnode: payload-"
            "dominated, packet trains in net.pipe and segment handling in net.tcp",
            leechers=115, num_pnodes=4, file_size=5 * MB, **_BULK,
        ),
        SwarmWorkload(
            "swarm_bulk_fluid",
            "swarm_bulk's shape with fluid=True: net.fluid replaces per-packet delivery, "
            "so a gain for packets at fluid's cost (or the reverse) shows",
            leechers=40, num_pnodes=2, file_size=8 * MB, fluid=True, **_BULK,
        ),
        PingMesh(),
        SweepFolding(),
        SwarmPartitioned(),
    )
}
