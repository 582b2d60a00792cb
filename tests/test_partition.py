"""Tests for ``fig10_cells`` as a plan of cell points
(:func:`run_fig10_partitioned`), the layout and merge left in
:mod:`repro.sim.partition`, the :class:`SimConfig` surface and the
one-shot :class:`CommandWorker`.

The load-bearing property everywhere: ``partitions=N`` only decides
how many processes run the cells. The cell decomposition is fixed by
the experiment, so the merged result must be byte-identical for every
worker count — including the degenerate ones (one worker, more workers
than cells, a daemonic parent).
"""

import dataclasses
import json
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
from repro.errors import ExperimentError, SimulationError
from repro.experiments.fig10_scalability import run_fig10_partitioned
from repro.runtime import executor
from repro.runtime.executor import CommandWorker, WorkerCrashed
from repro.sim import SimConfig, Simulator
from repro.sim.partition import PartitionLayout, merge_metric_snapshots

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)

CELLS = ["swarm0", "swarm1", "swarm2", "swarm3"]


def _cells(partitions, **kwargs):
    """A reduced-scale fig10_cells run (4 cells of 5-6 leechers)."""
    return run_fig10_partitioned(scale=0.004, seed=7, partitions=partitions, **kwargs)


def _doc(merged):
    return json.dumps(merged.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def inline_run():
    return _cells(1)


def _daemonic_run(conn):
    """Run a partitions=2 fig10_cells from inside a daemonic process.

    Regression for the sweep-executor nesting bug: a daemonic parent
    cannot start worker children, so the cells must run inline
    (byte-identical by contract) instead of crashing with "daemonic
    processes are not allowed to have children".
    """
    try:
        _result, merged = _cells(2)
        conn.send(("ok", (merged.workers, _doc(merged))))
    except BaseException as exc:  # pragma: no cover - failure reporting
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# SimConfig
# ----------------------------------------------------------------------
class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.flight is False and cfg.fluid is False
        assert len(dataclasses.fields(cfg)) == 2

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
# Cells as plan points
# ----------------------------------------------------------------------
class TestPartitionProtocol:
    def test_partitions_above_cell_count_degrade(self):
        _result, merged = _cells(8, cells=2)
        assert merged.partitions == 8
        assert merged.workers == 2  # one worker per cell, never more
        assert merged.cells == ["swarm0", "swarm1"]

    def test_partitions_below_one_rejected(self):
        with pytest.raises(ExperimentError, match="partitions must be"):
            _cells(0)

    def test_uncoupled_cells_run_in_one_window(self, inline_run):
        result, merged = inline_run
        assert merged.layout() == {"cells": CELLS} == result.partition
        assert merged.windows == 1
        # Each cell stops at its own last completion.
        for name in merged.cells:
            cell = merged.per_cell[name]
            assert cell["now"] == max(cell["artifacts"]["completion_times"])

    def test_nonpositive_until_rejected(self):
        with pytest.raises(ExperimentError, match="swarm0: .*did not complete"):
            _cells(1, max_time=0.0)


# ----------------------------------------------------------------------
# Determinism across worker counts (in-process)
# ----------------------------------------------------------------------
class TestWorkerCountInvariance:
    def test_uncoupled_byte_identical_1_2_3(self, inline_run):
        expected = _doc(inline_run[1])
        for partitions in (2, 3):
            _result, merged = _cells(partitions)
            assert merged.workers == partitions
            assert _doc(merged) == expected

    def test_daemonic_parent_degrades_to_inline(self, inline_run):
        """partitions=2 inside a daemonic process (the sweep-executor
        nesting case) must not crash and must match the inline result."""
        import multiprocessing

        recv, send = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_daemonic_run, args=(send,), daemon=True
        )
        proc.start()
        send.close()
        try:
            assert recv.poll(120), "daemonic child produced no reply"
            status, payload = recv.recv()
        finally:
            proc.join(10)
        assert status == "ok", payload
        assert payload == (1, _doc(inline_run[1]))

    def test_merged_metrics_sum_counters(self, inline_run):
        result, merged = inline_run
        name = "bt.swarm.completions"
        per_cell = [merged.per_cell[c]["metrics"][name]["value"] for c in CELLS]
        assert merged.metrics[name]["value"] == sum(per_cell) == result.clients


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
    def handle():
        if payload == "boom":
            raise ValueError("worker-side failure")
        return ("echo", payload)

    return handle


def _reply(worker):
    """Pump the worker's pipe until its one reply arrives."""
    while True:
        for _worker, reply in executor._pump([worker]):
            return reply


class TestCommandWorker:
    def test_request_round_trip(self):
        worker = CommandWorker(_echo_factory, init_payload=42)
        try:
            assert _reply(worker) == ("echo", 42)
        finally:
            worker.close()

    def test_worker_exception_surfaces_with_traceback(self):
        worker = CommandWorker(_echo_factory, init_payload="boom")
        try:
            reply = _reply(worker)
        finally:
            worker.close()
        assert isinstance(reply, WorkerCrashed)
        assert reply.error == "ValueError: worker-side failure"
        assert "Traceback" in str(reply)

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

        assert main(["run", "fig10_cells", "partitions=2", "scale=0.004"]) == 0
        out = capsys.readouterr().out
        assert "partition cells" in out


class TestFig10IgnoresPartitions:
    """``fig10`` is one swarm: it takes no ``partitions`` parameter
    (``run fig10 partitions=2`` is an error line, see test_cli), and
    the cell decomposition never shares its checkpoint key."""

    def test_cells_have_their_own_key(self):
        from repro.experiments import RunRequest, get_experiment

        params = {"scale": 0.004, "partitions": 2}
        request = RunRequest.make("fig10_cells", params, seed=7)
        assert request.key != RunRequest.make("fig10", {"scale": 0.004}, seed=7).key
        result = get_experiment("fig10_cells").point_runner(request)
        assert result.artifacts["partition"] == {"cells": CELLS}
