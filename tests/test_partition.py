"""Tests for the partitioned kernel (:mod:`repro.sim.partition`),
the :class:`SimConfig` surface and the :class:`CommandWorker` runner.

The load-bearing property everywhere: ``partitions=N`` is a pure
execution knob. The cell decomposition is fixed by the model, so the
merged result must be byte-identical for every worker count — including
the degenerate ones (one worker, more workers than cells, an idle
cell).
"""

import dataclasses
import json
import pathlib
import subprocess
import sys
import warnings
from functools import partial

import pytest

import repro
from repro.errors import SimulationError
from repro.runtime.executor import CommandWorker, WorkerCrashed
from repro.sim import SimConfig, Simulator
from repro.sim.partition import (
    CellSpec,
    PartitionLayout,
    merge_metric_snapshots,
    run_partitioned,
)

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


# ----------------------------------------------------------------------
# Module-level cell builders (spawn-picklable via functools.partial)
# ----------------------------------------------------------------------
def _build_counter(handle, events=3, spacing=1.0):
    """An uncoupled cell: a few self-scheduled ticks, one metric."""
    ticks = handle.sim.metrics.counter("cell.ticks")
    state = {"times": []}

    def tick():
        state["times"].append(handle.sim.now)
        ticks.inc()
        if len(state["times"]) < events:
            handle.sim.schedule(spacing, tick)

    handle.sim.schedule(spacing, tick)
    return state


def _build_idle(handle):
    """A cell with zero events — the 'partition with zero vnodes' case."""
    return None


def _build_mini_swarm(handle):
    """A one-leecher BitTorrent swarm on the cell's simulator — real
    net-layer traffic, so flight recording has hops to capture."""
    from repro.bittorrent.swarm import Swarm, SwarmConfig

    cfg = SwarmConfig(
        leechers=1, seeders=1, file_size=256 * 1024, stagger=1.0,
        num_pnodes=1, seed=handle.seed,
    )
    swarm = Swarm(cfg, sim=handle.sim)
    handle.sim.trace.subscribe(
        "bt.complete", lambda rec: handle.sim.stop()
    )
    swarm.launch()
    return swarm


def _finish_mini_swarm(handle, swarm):
    return {"completions": swarm.completion_times()}


def _finish_state(handle, state):
    return {"state": state, "end": handle.sim.now}


def _daemonic_ab(conn):
    """Run a partitions=2 workload from inside a daemonic process.

    Regression for the sweep-executor nesting bug: a daemonic parent
    cannot spawn CommandWorker children, so run_partitioned must
    degrade to inline execution (byte-identical by contract) instead
    of crashing with "daemonic processes are not allowed to have
    children".
    """
    try:
        specs = [
            CellSpec(f"c{i}", partial(_build_counter, events=3 + i),
                     _finish_state)
            for i in range(3)
        ]
        conn.send(("ok", _ab_result(specs, 2)))
    except BaseException as exc:  # pragma: no cover - failure reporting
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _ab_result(specs, partitions):
    merged = run_partitioned(
        specs, until=100.0, config=SimConfig(partitions=partitions)
    )
    return json.dumps(merged.as_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# SimConfig
# ----------------------------------------------------------------------
class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.partitions == 1
        assert cfg.flight is False and cfg.fluid is False
        assert len(dataclasses.fields(cfg)) == 3

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimConfig(partitions=0)

    def test_round_trip(self):
        cfg = SimConfig(flight=True, partitions=4)
        assert SimConfig.from_dict(cfg.as_dict()) == cfg
        assert SimConfig.from_dict({"partitions": 2, "junk": 1}).partitions == 2

    def test_replace(self):
        cfg = SimConfig().replace(partitions=3)
        assert cfg.partitions == 3
        assert SimConfig().partitions == 1  # frozen original untouched

    def test_simulator_takes_config(self):
        config = SimConfig(fluid=True)
        sim = Simulator(seed=1, config=config)
        assert sim.config is config
        assert sim.fluid is not None

    def test_canonical_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Simulator(seed=1, config=SimConfig())


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
class TestPartitionLayout:
    def test_block_shapes(self):
        assert PartitionLayout.block(4, 2).assignments == ((0, 1), (2, 3))
        assert PartitionLayout.block(5, 2).assignments == ((0, 1, 2), (3, 4))
        assert PartitionLayout.block(3, 1).assignments == ((0, 1, 2),)

    def test_more_partitions_than_cells_degrades(self):
        layout = PartitionLayout.block(2, 8)
        assert layout.workers == 2
        assert layout.assignments == ((0,), (1,))

    def test_validation(self):
        with pytest.raises(SimulationError):
            PartitionLayout.block(0, 1)
        with pytest.raises(SimulationError):
            PartitionLayout.block(4, 0)


# ----------------------------------------------------------------------
# Driver semantics
# ----------------------------------------------------------------------
class TestPartitionProtocol:
    def test_idle_cell_is_harmless(self):
        specs = [
            CellSpec("busy", partial(_build_counter, events=3), _finish_state),
            CellSpec("idle", _build_idle),
        ]
        for n in (1, 2):
            merged = run_partitioned(
                specs, until=50.0, config=SimConfig(partitions=n)
            )
            assert merged.per_cell["idle"]["events_processed"] == 0
            assert merged.per_cell["busy"]["artifacts"]["state"]["times"] == [
                1.0, 2.0, 3.0,
            ]

    def test_partitions_above_cell_count_degrade(self):
        specs = [
            CellSpec(name, _build_counter, _finish_state) for name in ("A", "B")
        ]
        merged = run_partitioned(
            specs, until=100.0, config=SimConfig(partitions=8)
        )
        assert merged.partitions == 8
        assert merged.workers == 2  # one worker per cell, never more

    def test_uncoupled_cells_run_in_one_window(self):
        specs = [
            CellSpec(f"c{i}", partial(_build_counter, events=2), _finish_state)
            for i in range(3)
        ]
        merged = run_partitioned(specs, until=50.0, config=SimConfig())
        assert merged.layout() == {"cells": ["c0", "c1", "c2"]}
        for name in merged.cells:
            assert merged.per_cell[name]["artifacts"]["end"] == 50.0

    def test_duplicate_cell_names_rejected(self):
        specs = [
            CellSpec("A", _build_idle),
            CellSpec("A", _build_idle),
        ]
        with pytest.raises(SimulationError, match="duplicate"):
            run_partitioned(specs, until=10.0)

    def test_nonpositive_until_rejected(self):
        with pytest.raises(SimulationError, match="positive until"):
            run_partitioned([CellSpec("A", _build_idle)], until=0.0)


# ----------------------------------------------------------------------
# Determinism across worker counts (in-process)
# ----------------------------------------------------------------------
class TestWorkerCountInvariance:
    def test_uncoupled_byte_identical_1_2_3(self):
        specs = [
            CellSpec(f"c{i}",
                     partial(_build_counter, events=3 + i, spacing=0.5 + i),
                     _finish_state)
            for i in range(4)
        ]
        docs = {n: _ab_result(specs, n) for n in (1, 2, 3)}
        assert docs[1] == docs[2] == docs[3]

    def test_flight_records_byte_identical_and_cell_tagged(self):
        """Per-packet flights (hop-by-hop, the most granular stream the
        platform records) merge cell-tagged and worker-count invariant."""
        specs = [
            CellSpec("s0", _build_mini_swarm, _finish_mini_swarm),
            CellSpec("s1", _build_mini_swarm, _finish_mini_swarm),
        ]
        docs = {}
        for n in (1, 2):
            merged = run_partitioned(
                specs, until=5000.0,
                config=SimConfig(partitions=n, flight=True),
            )
            assert merged.flights, "flight recording produced nothing"
            assert {f["cell"] for f in merged.flights} == {"s0", "s1"}
            for name in ("s0", "s1"):
                assert merged.per_cell[name]["artifacts"]["completions"]
            docs[n] = json.dumps(merged.as_dict(), sort_keys=True)
        assert docs[1] == docs[2]

    def test_daemonic_parent_degrades_to_inline(self):
        """partitions=2 inside a daemonic process (the sweep-executor
        nesting case) must not crash and must match the inline result."""
        import multiprocessing

        specs = [
            CellSpec(f"c{i}", partial(_build_counter, events=3 + i),
                     _finish_state)
            for i in range(3)
        ]
        expected = _ab_result(specs, 1)
        recv, send = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_daemonic_ab, args=(send,), daemon=True
        )
        proc.start()
        send.close()
        try:
            assert recv.poll(60), "daemonic child produced no reply"
            status, payload = recv.recv()
        finally:
            proc.join(10)
        assert status == "ok", payload
        assert payload == expected

    def test_merged_metrics_sum_counters(self):
        specs = [
            CellSpec(f"c{i}", partial(_build_counter, events=2 + i))
            for i in range(3)
        ]
        merged = run_partitioned(specs, until=50.0, config=SimConfig())
        assert merged.metrics["cell.ticks"]["value"] == 2 + 3 + 4


# ----------------------------------------------------------------------
# Metric-snapshot merge
# ----------------------------------------------------------------------
class TestMergeMetrics:
    def test_counters_and_gauges_sum(self):
        a = {
            "c": {"kind": "counter", "value": 3},
            "g": {"kind": "gauge", "value": 1, "peak": 5},
        }
        b = {
            "c": {"kind": "counter", "value": 4},
            "g": {"kind": "gauge", "value": 2, "peak": 7},
        }
        merged = merge_metric_snapshots([a, b])
        assert merged["c"]["value"] == 7
        assert merged["g"] == {"kind": "gauge", "value": 3, "peak": 12}

    def test_histograms_fold(self):
        h1 = {"kind": "histogram", "edges": [1, 2], "counts": [1, 0, 2],
              "count": 3, "sum": 4.0, "min": 0.5, "max": 3.0}
        h2 = {"kind": "histogram", "edges": [1, 2], "counts": [0, 1, 1],
              "count": 2, "sum": 3.5, "min": 1.5, "max": 4.0}
        merged = merge_metric_snapshots([{"h": h1}, {"h": h2}])
        assert merged["h"]["counts"] == [1, 1, 3]
        assert merged["h"]["count"] == 5
        assert merged["h"]["min"] == 0.5 and merged["h"]["max"] == 4.0

    def test_kind_mismatch_rejected(self):
        with pytest.raises(SimulationError, match="kind mismatch"):
            merge_metric_snapshots([
                {"m": {"kind": "counter", "value": 1}},
                {"m": {"kind": "gauge", "value": 1, "peak": 1}},
            ])

    def test_edge_mismatch_rejected(self):
        h = {"kind": "histogram", "edges": [1], "counts": [0, 0],
             "count": 0, "sum": 0.0, "min": None, "max": None}
        with pytest.raises(SimulationError, match="edge mismatch"):
            merge_metric_snapshots(
                [{"h": h}, {"h": {**h, "edges": [2]}}]
            )

    def test_order_independent(self):
        a = {"c": {"kind": "counter", "value": 3}}
        b = {"c": {"kind": "counter", "value": 4}}
        assert merge_metric_snapshots([a, b]) == merge_metric_snapshots([b, a])


# ----------------------------------------------------------------------
# CommandWorker
# ----------------------------------------------------------------------
def _echo_factory(payload):
    def handle(command, arg):
        if command == "boom":
            raise ValueError("worker-side failure")
        return (payload, command, arg)

    return handle


class TestCommandWorker:
    def test_request_round_trip(self):
        worker = CommandWorker(_echo_factory, init_payload="init")
        try:
            assert worker.request("cmd", 42) == ("init", "cmd", 42)
        finally:
            worker.close()

    def test_worker_exception_surfaces_with_traceback(self):
        worker = CommandWorker(_echo_factory)
        try:
            with pytest.raises(WorkerCrashed, match="worker-side failure"):
                worker.request("boom", None)
        finally:
            worker.close()

    def test_close_is_idempotent(self):
        worker = CommandWorker(_echo_factory)
        worker.close()
        worker.close()


# ----------------------------------------------------------------------
# fig10 subprocess A/B: the acceptance proof
# ----------------------------------------------------------------------
#: Runs a reduced-scale partitioned fig10 and prints the merged
#: PartitionResult document plus the figure-level summary. Any
#: worker-count (or hash-seed) dependence shows up as a byte diff.
FIG10_AB_SCRIPT = """
import json, sys
from repro.experiments.fig10_scalability import run_fig10_partitioned

result, merged = run_fig10_partitioned(
    scale=0.004, stagger=0.25, seed=7, partitions=int(sys.argv[1])
)
doc = {
    "merged": merged.as_dict(),
    "clients": result.clients,
    "pnodes": result.pnodes,
    "first": result.first_completion,
    "last": result.last_completion,
    "partition": result.partition,
}
print(json.dumps(doc, sort_keys=True))
"""


def _run_fig10_child(partitions: int, hash_seed: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", FIG10_AB_SCRIPT, str(partitions)],
        capture_output=True,
        text=True,
        timeout=600,
        env={
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC_DIR,
        },
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_fig10_partitioned_byte_identical_across_workers_and_hash_seeds():
    """Acceptance proof: the merged fig10 document is byte-identical
    between partitions=1 (inline) and partitions=2 (subprocess workers),
    under two different hash seeds."""
    one_a = _run_fig10_child(partitions=1, hash_seed="1")
    two_a = _run_fig10_child(partitions=2, hash_seed="1")
    assert one_a == two_a
    four_a = _run_fig10_child(partitions=4, hash_seed="1")
    assert four_a == one_a
    one_b = _run_fig10_child(partitions=1, hash_seed="31337")
    assert one_b == one_a
    doc = json.loads(one_a)
    assert doc["merged"]["per_cell"]
    assert doc["partition"]["cells"] == [
        "swarm0", "swarm1", "swarm2", "swarm3",
    ]


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestPartitionsCli:
    def test_run_partitions_flag(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig10_cells", "--partitions", "2", "scale=0.004"]) == 0
        out = capsys.readouterr().out
        assert "partition cells" in out


class TestFig10IgnoresPartitions:
    """``fig10`` is one swarm: ``--partitions`` must not switch it to
    the cell decomposition, whose checkpoint key it would share."""

    @pytest.mark.parametrize("runner", ["execute", "point_runner"])
    def test_partitions_do_not_change_fig10(self, runner):
        from repro.experiments import RunRequest, get_experiment

        execute = getattr(get_experiment("fig10"), runner)
        plain = RunRequest.make("fig10", {"scale": 0.004}, seed=7)
        split = RunRequest.make("fig10", {"scale": 0.004}, seed=7, partitions=1)
        assert plain.key == split.key
        assert execute(plain).artifacts == execute(split).artifacts

    def test_cells_have_their_own_key(self):
        from repro.experiments import RunRequest, get_experiment

        request = RunRequest.make("fig10_cells", {"scale": 0.004}, seed=7, partitions=2)
        assert request.key != RunRequest.make("fig10", {"scale": 0.004}, seed=7).key
        result = get_experiment("fig10_cells").point_runner(request)
        assert result.artifacts["partition"] == {
            "cells": ["swarm0", "swarm1", "swarm2", "swarm3"],
        }
