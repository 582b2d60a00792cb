"""Tests for the live telemetry bus (:mod:`repro.obs.telemetry`).

Two properties carry all the weight:

* **Determinism quarantine** — telemetry is wall-clock-only; every
  deterministic output (sweep aggregates, ``fig10_cells`` documents)
  is byte-identical with telemetry on or off, under two different
  ``PYTHONHASHSEED`` values, across all four execution shapes
  (inline, ``--parallel N``, ``fig10_cells partitions=N``, fluid).
* **Liveness** — heartbeats and lifecycle events actually flow out of
  running workers and ``fig10_cells`` cells mid-run, the stall watchdog
  names a wedged source before any timeout fires, and the checkpoint
  carries enough lifecycle history for ``--resume`` to report prior
  failures.
"""

import io
import json
import os
import pathlib
import subprocess
import sys
import time
import urllib.request

import pytest

import repro
from repro.analysis.export import validate_prom_exposition
from repro.experiments import RunRequest, RunResult
from repro.obs import telemetry
from repro.obs.telemetry import (
    NULL_EMITTER,
    CallbackEmitter,
    Heartbeat,
    TelemetryHub,
    parse_listen,
    read_events,
    render_health,
    serve_http,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.runtime import (
    ATTEMPT_ENV,
    CommandWorker,
    ExecutionPlan,
    execute_plan,
    load_checkpoint,
    load_checkpoint_events,
)
from repro.runtime import executor
from repro.runtime.checkpoint import CheckpointWriter
from repro.experiments.fig10_scalability import run_fig10_partitioned
from repro.sim import Simulator

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


# ----------------------------------------------------------------------
# Module-level runners / cell builders (fork- and spawn-friendly)
# ----------------------------------------------------------------------
def double_runner(request: RunRequest) -> RunResult:
    return RunResult.ok(request, artifacts={"x2": request.kwargs["x"] * 2})


def flaky_runner(request: RunRequest) -> RunResult:
    if int(os.environ.get(ATTEMPT_ENV, "1")) < 2:
        raise ValueError("injected failure")
    return double_runner(request)


def failing_runner(request: RunRequest) -> RunResult:
    raise RuntimeError("this point never succeeds")


def slow_runner(request: RunRequest) -> RunResult:
    time.sleep(float(request.kwargs.get("sleep", 0.4)))
    return double_runner(request)


def probing_runner(request: RunRequest) -> RunResult:
    """Registers a probe while telemetry is live and sends one
    heartbeat through the ambient emitter, as a cell runner does."""
    if telemetry.active():
        label = telemetry.register_probe(
            "cell/toy",
            lambda: {"label": "cell/toy", "sim_time": 1.0,
                     "events": 1, "queue_depth": 0},
        )
        try:
            Heartbeat(telemetry.get_emitter()).beat()
        finally:
            telemetry.unregister_probe(label)
    return double_runner(request)


def _wedged_factory(seconds):
    """CommandWorker factory whose probe never advances — the wedged
    fixture the stall watchdog must catch (also exercised by CI's
    runtime-smoke job)."""
    telemetry.register_probe(
        "cell/wedged",
        lambda: {"label": "cell/wedged", "sim_time": 0.0,
                 "events": 1, "queue_depth": 7},
    )

    def handler():
        time.sleep(seconds)
        return "done"

    return handler


# ----------------------------------------------------------------------
# Emitters and probes
# ----------------------------------------------------------------------
class TestEmitters:
    def test_telemetry_is_off_by_default(self):
        assert telemetry.get_emitter() is NULL_EMITTER
        assert not telemetry.active()
        NULL_EMITTER.emit("anything", x=1)  # no-op, no error

    def test_callback_emitter_stamps_events(self):
        seen = []
        emitter = CallbackEmitter(seen.append, "w1", {"point": "k"})
        emitter.emit("heartbeat", seq=3)
        (event,) = seen
        assert event["kind"] == "heartbeat"
        assert event["source"] == "w1"
        assert event["point"] == "k"
        assert event["seq"] == 3
        assert event["ts"] == pytest.approx(time.time(), abs=30.0)

    def test_sink_exceptions_are_swallowed(self):
        def bad_sink(event):
            raise OSError("pipe closed")

        CallbackEmitter(bad_sink, "w1").emit("heartbeat")  # must not raise

    def test_use_emitter_restores_previous(self):
        emitter = CallbackEmitter(lambda e: None, "scoped")
        with telemetry.use_emitter(emitter):
            assert telemetry.get_emitter() is emitter
            assert telemetry.active()
        assert telemetry.get_emitter() is NULL_EMITTER


class TestProbes:
    def teardown_method(self):
        telemetry.clear_probes()

    def test_register_sim_reads_progress_counters(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        telemetry.register_sim(sim, "cell/a")
        (sample,) = telemetry.sample_probes()
        assert sample["label"] == "cell/a"
        assert sample["events"] == sim.events_processed
        assert sample["sim_time"] == pytest.approx(sim.now)

    def test_dead_sim_is_pruned(self):
        import gc

        sim = Simulator(seed=1)
        telemetry.register_sim(sim, "cell/doomed")
        del sim
        gc.collect()  # the kernel holds internal cycles
        assert telemetry.sample_probes() == []
        assert telemetry.sample_probes() == []  # pruned, stays empty

    def test_process_gauges_are_positive(self):
        gauges = telemetry.process_gauges()
        assert set(gauges) == {"rss_bytes", "cpu_seconds"}
        assert gauges["rss_bytes"] > 0
        assert gauges["cpu_seconds"] > 0


# ----------------------------------------------------------------------
# Hub state folding
# ----------------------------------------------------------------------
class TestHubFolding:
    def test_point_lifecycle_counters(self):
        hub = TelemetryHub()
        ex = hub.emitter("executor")
        ex.emit("run_started", experiment="toy", points=2, parallel=2)
        ex.emit("point_started", key="a", attempt=1)
        ex.emit("point_started", key="b", attempt=1)
        ex.emit("point_crashed", key="b", attempt=1, error="boom")
        ex.emit("point_retried", key="b", attempt=1, error="boom")
        ex.emit("point_finished", key="a", attempt=1, status="ok")
        health = hub.health()
        assert health["run"]["experiment"] == "toy"
        assert health["points"]["total"] == 2
        assert health["points"]["done"] == 1
        assert health["points"]["retried"] == 1
        assert health["points"]["crashed"] == 1
        assert health["points"]["running"] == ["b"]
        assert hub.points["b"]["error"] == "boom"

    def test_heartbeat_folds_probes_into_worker_health(self):
        hub = TelemetryHub()
        w = hub.emitter("sweep/pid1")
        w.emit("heartbeat", seq=0, rss_bytes=1.0, cpu_seconds=0.5,
               probes=[{"label": "cell/a", "sim_time": 10.0,
                        "events": 100, "queue_depth": 3}],
               point="toy|x=1")
        time.sleep(0.01)
        w.emit("heartbeat", seq=1, rss_bytes=2.0, cpu_seconds=0.6,
               probes=[{"label": "cell/a", "sim_time": 25.0,
                        "events": 400, "queue_depth": 5}],
               point="toy|x=1")
        worker = hub.health()["workers"]["sweep/pid1"]
        assert worker["beats"] == 2
        assert worker["events"] == 400
        assert worker["sim_time"] == 25.0
        assert worker["queue_depth"] == 5
        assert worker["rss_bytes"] == 2.0
        assert worker["events_per_sec"] > 0
        assert worker["point"] == "toy|x=1"
        assert worker["probes"]["cell/a"]["events"] == 400

    def test_run_finished_is_reported(self):
        hub = TelemetryHub()
        hub.emitter("executor").emit(
            "run_finished", completed=4, failed=0, wall_seconds=1.5
        )
        assert hub.health()["finished"]["completed"] == 4
        assert "finished: 4 ok" in render_health(hub.health())

    def test_flight_log_is_replayable(self, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        with TelemetryHub(path=log) as hub:
            e = hub.emitter("w")
            e.emit("run_started", experiment="toy", points=1)
            e.emit("point_started", key="a", attempt=1)
            e.emit("point_finished", key="a", attempt=1, status="ok")
            e.emit("run_finished", completed=1, failed=0, wall_seconds=0.1)
        replay = TelemetryHub()
        with log.open() as fh:
            for event in read_events(fh):
                replay.ingest(event)
        assert replay.events_seen == 4
        assert replay.health()["points"]["done"] == 1
        assert replay.finished is not None

    def test_malformed_events_never_raise(self):
        hub = TelemetryHub()
        hub.ingest({"kind": "heartbeat", "probes": "not-a-list"})
        hub.ingest({"no": "kind"})
        assert hub.events_seen == 2


# ----------------------------------------------------------------------
# Stall watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_no_heartbeat_stall(self):
        hub = TelemetryHub(stall_after=1.0)
        hub.ingest({"ts": time.time() - 10.0, "kind": "heartbeat",
                    "source": "w0", "probes": []})
        (stall,) = hub.check_stalls(emit=False)
        assert stall["source"] == "w0"
        assert stall["reason"] == "no_heartbeat"
        assert stall["idle_seconds"] > 1.0

    def test_no_progress_stall_names_wedged_probe(self):
        hub = TelemetryHub(stall_after=1.0)
        probe = {"label": "cell/w", "sim_time": 5.0, "events": 9,
                 "queue_depth": 1}
        # First beat (long ago) anchors the advance clock; the second
        # (now) shows the worker alive but its counters frozen.
        hub.ingest({"ts": time.time() - 10.0, "kind": "heartbeat",
                    "source": "w0", "probes": [probe]})
        hub.ingest({"ts": time.time(), "kind": "heartbeat",
                    "source": "w0", "probes": [dict(probe)]})
        (stall,) = hub.check_stalls(emit=False)
        assert stall["reason"] == "no_progress"
        assert stall["probes"] == ["cell/w"]
        assert "STALLED w0" in render_health(hub.health())

    def test_non_heartbeating_sources_are_exempt(self):
        # The executor's lifecycle stream never heartbeats — it made no
        # liveness promise, so a long-running point must not flag it.
        hub = TelemetryHub(stall_after=0.5)
        hub.ingest({"ts": time.time() - 60.0, "kind": "point_started",
                    "source": "executor", "key": "a", "attempt": 1})
        assert hub.check_stalls(emit=False) == []

    def test_stall_event_fires_once_per_episode(self, tmp_path):
        log = tmp_path / "t.jsonl"
        hub = TelemetryHub(path=log, stall_after=0.5)
        hub.ingest({"ts": time.time() - 5.0, "kind": "heartbeat",
                    "source": "w0", "probes": []})
        assert len(hub.check_stalls()) == 1
        assert len(hub.check_stalls()) == 1  # still stalled, not re-logged
        kinds = [e["kind"] for e in map(json.loads, log.read_text().splitlines())]
        assert kinds.count("stall") == 1
        # Progress re-arms the episode; a fresh wedge logs again.
        hub.ingest({"ts": time.time(), "kind": "point_finished",
                    "source": "w0", "key": "a", "attempt": 1, "status": "ok"})
        assert hub.check_stalls() == []
        hub.close()

    def test_wedged_command_worker_is_flagged_mid_call(self, tmp_path):
        """Integration fixture (what CI's runtime-smoke drives): a
        worker wedged inside a handler keeps heartbeating with frozen
        counters, and the watchdog names it before the call returns."""
        log = tmp_path / "t.jsonl"
        hub = TelemetryHub(path=log, stall_after=0.3)
        hub.start_watchdog(interval=0.05)
        worker = CommandWorker(
            _wedged_factory,
            1.2,
            name="repro-wedged",
            telemetry=True,
            on_telemetry=hub.ingest,
            heartbeat_interval=0.05,
        )
        try:
            # The pump drains the heartbeat stream while the handler
            # sleeps; the watchdog thread flags the stall meanwhile.
            replies = []
            while not replies:
                replies = executor._pump([worker])
            assert replies == [(worker, "done")]
        finally:
            worker.close()
            hub.close()
        events = [json.loads(line) for line in log.read_text().splitlines()]
        stalls = [e for e in events if e["kind"] == "stall"]
        assert stalls, "watchdog never fired on the wedged worker"
        assert stalls[0]["source"] == "repro-wedged"
        assert stalls[0]["reason"] == "no_progress"
        assert stalls[0]["probes"] == ["cell/wedged"]
        assert hub.workers["repro-wedged"]["beats"] >= 3


# ----------------------------------------------------------------------
# Prometheus exposition + HTTP egress
# ----------------------------------------------------------------------
def _fed_hub():
    hub = TelemetryHub()
    ex = hub.emitter("executor")
    ex.emit("run_started", experiment="toy", points=3, parallel=2)
    ex.emit("point_started", key="a", attempt=1)
    ex.emit("point_finished", key="a", attempt=1, status="ok")
    hub.emitter("sweep/pid7").emit(
        "heartbeat", seq=0, rss_bytes=1048576.0, cpu_seconds=0.25,
        probes=[{"label": "cell/a", "sim_time": 3.0, "events": 42,
                 "queue_depth": 2}],
    )
    return hub


class TestPrometheus:
    def test_exposition_is_valid(self):
        assert validate_prom_exposition(TelemetryHub().prometheus()) == []
        assert validate_prom_exposition(_fed_hub().prometheus()) == []

    def test_families_and_labels(self):
        text = _fed_hub().prometheus()
        assert "# TYPE repro_run_points_done_total counter" in text
        assert "repro_run_points_done_total 1" in text
        assert 'repro_worker_rss_bytes{worker="sweep/pid7"} 1048576' in text
        assert 'repro_worker_events_total{worker="sweep/pid7"} 42' in text


class TestHttpEndpoint:
    def test_health_and_metrics_served_live(self):
        hub = _fed_hub()
        server = serve_http(hub, "127.0.0.1:0")
        host, port = server.server_address[0], server.server_address[1]
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(f"{base}/health", timeout=10) as resp:
                assert resp.headers["Content-Type"] == "application/json"
                health = json.loads(resp.read())
            assert health["points"]["done"] == 1
            assert "sweep/pid7" in health["workers"]
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                metrics = resp.read().decode()
            assert validate_prom_exposition(metrics) == []
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope", timeout=10)
            assert err.value.code == 404
        finally:
            server.shutdown()

    def test_parse_listen(self):
        assert parse_listen("8080") == ("127.0.0.1", 8080)
        assert parse_listen(9090) == ("127.0.0.1", 9090)
        assert parse_listen("0.0.0.0:9091") == ("0.0.0.0", 9091)

    def test_parse_listen_rejects_garbage(self):
        with pytest.raises(ValueError, match=r"expected \[HOST:\]PORT"):
            parse_listen("notaport")
        with pytest.raises(ValueError, match=r"expected \[HOST:\]PORT"):
            parse_listen("host:")

    def test_cli_rejects_bad_listen_spec(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig6", "--listen", "notaport", "rule_count=0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected [HOST:]PORT" in err
        assert "Traceback" not in err


# ----------------------------------------------------------------------
# watch: replay/follow the flight log
# ----------------------------------------------------------------------
class TestWatch:
    def _write_log(self, path):
        hub = TelemetryHub(path=path)
        e = hub.emitter("executor")
        e.emit("run_started", experiment="toy", points=2, parallel=1)
        e.emit("point_started", key="a", attempt=1)
        e.emit("point_finished", key="a", attempt=1, status="ok")
        e.emit("point_finished", key="b", attempt=1, status="ok")
        e.emit("run_finished", completed=2, failed=0, wall_seconds=0.2)
        hub.close()

    def test_watch_once_renders_summary(self, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        self._write_log(log)
        out = io.StringIO()
        assert telemetry.watch(str(log), follow=False, out=out) == 0
        text = out.getvalue()
        assert "run toy: 2/2 points done" in text
        assert "finished: 2 ok, 0 failed" in text

    def test_watch_accepts_directory_target(self, tmp_path):
        self._write_log(tmp_path / "telemetry.jsonl")
        out = io.StringIO()
        assert telemetry.watch(str(tmp_path), follow=False, out=out) == 0

    def test_watch_follow_waits_for_run_finished(self, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        self._write_log(log)
        out = io.StringIO()
        rc = telemetry.watch(str(log), interval=0.05, follow=True,
                             out=out, max_wait=30.0)
        assert rc == 0

    def test_missing_log_returns_2(self, tmp_path):
        assert telemetry.watch(str(tmp_path / "nope.jsonl"), follow=False) == 2

    def test_cli_watch_once(self, tmp_path, capsys):
        from repro.__main__ import main

        log = tmp_path / "telemetry.jsonl"
        self._write_log(log)
        assert main(["watch", str(log), "--once"]) == 0
        assert "run toy" in capsys.readouterr().out

    def test_read_events_skips_torn_tail(self, tmp_path):
        log = tmp_path / "t.jsonl"
        log.write_text('{"kind":"run_started","ts":1}\n{"kind":"hear')
        with log.open() as fh:
            assert [e["kind"] for e in read_events(fh)] == ["run_started"]
            with log.open("a") as append:
                append.write('tbeat","ts":2}\n')
            assert [e["kind"] for e in read_events(fh)] == ["heartbeat"]


# ----------------------------------------------------------------------
# Executor integration: lifecycle events, heartbeats, resume reports
# ----------------------------------------------------------------------
PLAN = ExecutionPlan.build("toy", grid={"x": [1, 2, 3]})


class TestExecutorTelemetry:
    def test_lifecycle_events_reach_hub_and_log(self, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        with TelemetryHub(path=log) as hub:
            outcome = execute_plan(
                PLAN, parallel=2, runner=double_runner, telemetry=hub,
                heartbeat_interval=0.05,
            )
        assert not outcome.failed
        assert hub.run_info["experiment"] == "toy"
        assert hub.run_info["points"] == 3
        assert hub.counters["started"] == 3
        assert hub.counters["finished"] == 3
        assert hub.finished["completed"] == 3
        kinds = [json.loads(line)["kind"]
                 for line in log.read_text().splitlines()]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert kinds.count("point_finished") == 3

    def test_pool_workers_heartbeat_with_point_label(self, tmp_path):
        plan = ExecutionPlan.build(
            "toy", grid={"x": [1, 2]}, base_params={"sleep": 0.3}
        )
        with TelemetryHub() as hub:
            execute_plan(plan, parallel=2, runner=slow_runner,
                         telemetry=hub, heartbeat_interval=0.05)
        sweep_workers = {
            source: doc for source, doc in hub.workers.items()
            if source.startswith("sweep/pid")
        }
        assert len(sweep_workers) >= 1
        for doc in sweep_workers.values():
            assert doc["beats"] >= 2
            assert doc["point"] in {p.key for p in plan}
            assert doc["rss_bytes"] > 0

    def test_inline_mode_streams_through_ambient_emitter(self):
        with TelemetryHub() as hub:
            execute_plan(PLAN, parallel=0, runner=double_runner,
                         telemetry=hub)
        assert hub.counters["finished"] == 3
        # The ambient emitter was scoped to the run and restored after.
        assert telemetry.get_emitter() is NULL_EMITTER

    def test_workers_relay_to_the_ambient_emitter_without_a_hub(self):
        plan = ExecutionPlan.build(
            "toy", grid={"x": [1, 2]}, base_params={"sleep": 0.3}
        )
        with TelemetryHub() as hub:
            with telemetry.use_emitter(hub.emitter("main")):
                outcome = execute_plan(plan, parallel=2, runner=slow_runner,
                                       heartbeat_interval=0.05)
        assert not outcome.failed
        beating = {
            source for source, doc in hub.workers.items()
            if source.startswith("sweep/pid") and doc["beats"] >= 1
        }
        assert len(beating) == 2

    def test_inline_points_keep_the_ambient_emitter_without_a_hub(self):
        with TelemetryHub() as hub:
            with telemetry.use_emitter(hub.emitter("main")):
                execute_plan(PLAN, parallel=0, runner=probing_runner)
        assert "cell/toy" in hub.workers["main"]["probes"]

    def test_retry_lifecycle_is_streamed(self):
        with TelemetryHub() as hub:
            outcome = execute_plan(
                PLAN, parallel=2, runner=flaky_runner,
                retry_backoff=0.01, telemetry=hub,
            )
        assert not outcome.failed
        assert hub.counters["crashed"] == 3
        assert hub.counters["retried"] == 3
        assert hub.counters["finished"] == 3

    def test_checkpoint_events_round_trip(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        writer = CheckpointWriter(ck)
        writer.event({"kind": "point_started", "key": "a", "attempt": 1})
        writer.event({"kind": "unserializable", "bad": object()})  # dropped
        writer.close()
        events = load_checkpoint_events(ck)
        assert [e["kind"] for e in events] == ["point_started"]
        assert load_checkpoint(ck) == {}  # event lines are not results

    def test_resume_reports_prior_failures(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        plan = ExecutionPlan.build("toy", grid={"x": [5]})
        broken = execute_plan(
            plan, parallel=1, runner=failing_runner,
            max_attempts=2, retry_backoff=0.01, checkpoint_path=ck,
        )
        assert broken.failed
        assert broken.prior_failures == []  # not a resume
        with TelemetryHub() as hub:
            fixed = execute_plan(
                plan, parallel=1, runner=double_runner,
                checkpoint_path=ck, resume=True, telemetry=hub,
            )
        assert not fixed.failed
        kinds = sorted(f["kind"] for f in fixed.prior_failures)
        assert kinds == ["point_crashed", "point_crashed",
                         "point_failed", "point_retried"]
        assert all(f["key"] == plan.points[0].key
                   for f in fixed.prior_failures)
        assert all("RuntimeError" in f["error"] for f in fixed.prior_failures)
        # Failure history is diagnostics: present only in the
        # non-deterministic document, absent from the A/B surface.
        assert "prior_failures" not in fixed.document(deterministic_only=True)
        doc = fixed.document(deterministic_only=False)
        assert len(doc["prior_failures"]) == 4

    def test_cli_resume_prints_prior_failures(self, tmp_path, capsys):
        from repro.__main__ import main

        ck = tmp_path / "ck.jsonl"
        args = ["sweep", "fig6", "--parallel", "0", "rule_count=0,300",
                "pings_per_point=1", "--checkpoint", str(ck)]
        assert main(args) == 0
        capsys.readouterr()
        # Splice a failure record into the checkpoint, as an
        # interrupted earlier campaign would have left behind.
        with ck.open("a") as fh:
            fh.write(json.dumps({"event": {
                "kind": "point_failed", "source": "executor",
                "key": "ghost", "attempt": 3, "error": "Boom: gone",
            }}) + "\n")
        assert main([*args, "--resume"]) == 0
        err = capsys.readouterr().err
        assert "prior point_failed: ghost (attempt 3): Boom: gone" in err


# ----------------------------------------------------------------------
# Partition integration: cell probes and worker heartbeats
# ----------------------------------------------------------------------
class TestPartitionTelemetry:
    def test_partition_workers_relay_heartbeats(self):
        with TelemetryHub() as hub:
            with telemetry.use_emitter(hub.emitter("main")):
                _result, merged = run_fig10_partitioned(
                    scale=0.004, seed=7, partitions=2
                )
        assert merged.workers == 2
        cells = {
            source: doc for source, doc in hub.workers.items()
            if source.startswith("sweep/pid")
        }
        assert len(cells) >= 2
        assert all(doc["beats"] >= 1 for doc in cells.values())
        # Each worker's stream is labelled with the cell point it ran.
        names = {dict(json.loads(doc["point"])[1])["name"] for doc in cells.values()}
        assert names <= set(merged.cells)

    def test_inline_cells_register_progress_probes(self):
        # partitions=1 runs the cells in this process; a concurrent
        # pulse (as the CLI runs for single experiments) samples their
        # ``cell/<name>`` probes into the hub.
        for attempt in range(3):
            with TelemetryHub() as hub:
                pulse = Heartbeat(hub.emitter("main"), interval=0.005).start()
                try:
                    with telemetry.use_emitter(hub.emitter("main")):
                        run_fig10_partitioned(scale=0.004, seed=7, partitions=1)
                finally:
                    pulse.stop()
            probes = hub.workers.get("main", {}).get("probes", {})
            # events_processed commits when run() returns; the sim
            # clock is the live mid-run progress signal.
            if probes.get("cell/swarm0", {}).get("sim_time", 0.0) > 0:
                break
        assert "cell/swarm0" in probes
        assert probes["cell/swarm0"]["sim_time"] > 0

    def test_no_telemetry_means_no_probe_registration(self, monkeypatch):
        registered = []
        monkeypatch.setattr(telemetry, "register_probe",
                            lambda label, fn: registered.append(label))
        run_fig10_partitioned(scale=0.004, seed=7, partitions=1)
        assert [label for label in registered if label.startswith("cell/")] == []


# ----------------------------------------------------------------------
# The acceptance proof: byte-identity on-vs-off, across shapes and
# hash seeds, in fresh interpreters
# ----------------------------------------------------------------------
AB_SCRIPT = """
import json, os, sys

shape = os.environ["REPRO_AB_SHAPE"]
telemetry_on = os.environ["REPRO_AB_TELEMETRY"] == "1"
scratch = os.environ["REPRO_AB_SCRATCH"]

from repro.obs.telemetry import TelemetryHub, use_emitter, NULL_EMITTER

hub = None
if telemetry_on:
    hub = TelemetryHub(path=os.path.join(scratch, "telemetry.jsonl"))
    hub.start_watchdog(interval=0.1)

if shape in ("inline", "parallel"):
    from repro.analysis.export import sweep_json
    from repro.runtime import ExecutionPlan, execute_plan, registry_runner

    plan = ExecutionPlan.build(
        "fig6",
        grid={"rule_count": (0, 300)},
        base_params={"pings_per_point": 1},
    )
    outcome = execute_plan(
        plan,
        parallel=0 if shape == "inline" else 2,
        runner=registry_runner,
        telemetry=hub,
        heartbeat_interval=0.05,
    )
    print(sweep_json(outcome, deterministic_only=True))
elif shape in ("partitions", "fluid"):
    from repro.experiments.fig10_scalability import run_fig10_partitioned

    emitter = hub.emitter("main") if hub is not None else NULL_EMITTER
    with use_emitter(emitter):
        _result, merged = run_fig10_partitioned(
            scale=0.004, seed=7, partitions=2, fluid=shape == "fluid"
        )
    print(json.dumps(merged.as_dict(), sort_keys=True))
else:
    raise SystemExit(f"unknown shape {shape!r}")

if hub is not None:
    hub.close()
"""


def _run_ab_child(shape, telemetry_on, hash_seed, scratch):
    scratch.mkdir(parents=True, exist_ok=True)
    result = subprocess.run(
        [sys.executable, "-c", AB_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
        env={
            "PYTHONHASHSEED": hash_seed,
            "REPRO_AB_SHAPE": shape,
            "REPRO_AB_TELEMETRY": "1" if telemetry_on else "0",
            "REPRO_AB_SCRATCH": str(scratch),
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC_DIR,
        },
    )
    assert result.returncode == 0, result.stderr
    log = scratch / "telemetry.jsonl"
    if telemetry_on:
        # The comparison is only meaningful if telemetry actually ran.
        assert log.exists() and log.stat().st_size > 0
        log.unlink()
    else:
        assert not log.exists()
    return result.stdout


@pytest.mark.parametrize("shape", ["inline", "parallel", "partitions", "fluid"])
def test_ab_telemetry_on_vs_off_byte_identical(shape, tmp_path):
    """The tentpole acceptance proof: for every execution shape, the
    deterministic output is byte-identical with telemetry streaming
    (flight log + watchdog live) and with it off, under two different
    hash seeds — the bus cannot perturb what it observes."""
    off_1 = _run_ab_child(shape, False, "1", tmp_path / "a")
    on_1 = _run_ab_child(shape, True, "1", tmp_path / "b")
    assert on_1 == off_1
    on_2 = _run_ab_child(shape, True, "31337", tmp_path / "c")
    assert on_2 == on_1
    off_2 = _run_ab_child(shape, False, "31337", tmp_path / "d")
    assert off_2 == off_1
    # Sanity: the child produced a real document.
    doc = json.loads(off_1)
    assert doc
