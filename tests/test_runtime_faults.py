"""Fault injection against the one worker-process seam
(:mod:`repro.runtime.executor`): killed workers, half-closed pipes,
torn checkpoints, a worker that cannot start. Every case must end in a
named error or a correct resume — never a hang, never a stray child."""

import json
import multiprocessing
import os
import pathlib
import signal
import stat
import time
from functools import partial

import pytest

from repro.experiments import RunRequest, RunResult
from repro.obs import telemetry
from repro.obs.telemetry import TelemetryHub
from repro.runtime import (
    CommandWorker,
    ExecutionPlan,
    execute_plan,
    load_checkpoint_events,
)
from repro.runtime import executor
from repro.runtime.executor import WorkerCrashed
from repro.sim import SimConfig
from repro.sim.partition import CellSpec, run_partitioned


def _no_children_left():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Module-level runners, cell builders and handler factories
# ----------------------------------------------------------------------
def square_runner(request: RunRequest) -> RunResult:
    x = request.kwargs["x"]
    return RunResult.ok(request, artifacts={"square": x * x})


def sigkill_once_runner(request: RunRequest) -> RunResult:
    """SIGKILLs its own worker mid-run, once per point."""
    marker = pathlib.Path(request.kwargs["marker_dir"]) / f"killed-{request.kwargs['x']}"
    if not marker.exists():
        marker.write_text("about to be killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return square_runner(request)


def word_then_exit_runner(request: RunRequest) -> RunResult:
    """Sends one telemetry tuple, then dies without a reply."""
    telemetry.get_emitter().emit("last_words", x=request.kwargs["x"])
    os._exit(0)


def _half_close_factory(_payload):
    def handle(_command, _arg):
        # One telemetry tuple, then the command pipe (a socketpair:
        # the only sockets this child holds) is closed while the
        # process stays alive.
        telemetry.get_emitter().emit("last_words")
        for fd in range(3, 256):
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.close(fd)
            except OSError:
                pass
        time.sleep(60.0)

    return handle


def _build_ticks(handle, kill_at=None):
    def tick():
        if kill_at is not None and handle.sim.now >= kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        handle.sim.schedule(1.0, tick)

    handle.sim.schedule(1.0, tick)
    return None


# ----------------------------------------------------------------------
# Killed workers
# ----------------------------------------------------------------------
class TestKilledWorkers:
    def test_partition_worker_sigkilled_mid_window(self):
        specs = [
            CellSpec("A", _build_ticks),
            CellSpec("B", partial(_build_ticks, kill_at=5.0)),
        ]
        start = time.monotonic()
        with pytest.raises(WorkerCrashed) as caught:
            run_partitioned(specs, until=50.0, config=SimConfig(partitions=2))
        assert time.monotonic() - start < 10.0
        assert "repro-partition-1" in str(caught.value)
        assert "exitcode -9" in str(caught.value)
        assert caught.value.error == "worker crashed (exitcode -9)"
        assert _no_children_left()  # the sibling was closed, not orphaned

    def test_sweep_point_sigkilled_is_retried_and_aggregate_matches(self, tmp_path):
        plan = ExecutionPlan.build(
            "toy", grid={"x": [1, 2, 3]}, base_params={"marker_dir": str(tmp_path)}
        )
        ck = tmp_path / "ck.jsonl"
        faulty = execute_plan(
            plan, parallel=2, runner=sigkill_once_runner, retry_backoff=0.01,
            checkpoint_path=ck,
        )
        assert not faulty.failed
        assert all(r.attempts == 2 for r in faulty.results)
        crashes = [e for e in load_checkpoint_events(ck)
                   if e["kind"] == "point_crashed"]
        assert [e["error"] for e in crashes] == ["worker crashed (exitcode -9)"] * 3
        # The markers exist now, so the same runner is fault-free.
        clean = execute_plan(plan, parallel=2, runner=sigkill_once_runner)
        assert all(r.attempts == 1 for r in clean.results)
        assert faulty.json() == clean.json()
        assert _no_children_left()


# ----------------------------------------------------------------------
# A telemetry tuple, then the pipe closes without a reply
# ----------------------------------------------------------------------
class TestPipeClosedWithoutReply:
    def test_command_worker_reports_a_crash(self, monkeypatch):
        # The child stays alive behind its closed pipe: keep the wait
        # for its exit code short.
        monkeypatch.setattr(executor, "_REAP_SECONDS", 0.3)
        seen = []
        worker = CommandWorker(
            _half_close_factory, name="repro-half-closed",
            telemetry=True, on_telemetry=seen.append, heartbeat_interval=30.0,
        )
        start = time.monotonic()
        try:
            with pytest.raises(WorkerCrashed, match="repro-half-closed: worker crashed"):
                worker.request("go")
            with pytest.raises(WorkerCrashed, match="no longer running"):
                worker.send("again")
        finally:
            worker.close()
        assert time.monotonic() - start < 10.0
        assert "last_words" in [e["kind"] for e in seen]
        assert _no_children_left()  # close() killed the survivor

    def test_sweep_point_reports_a_crash(self, tmp_path):
        plan = ExecutionPlan.build("toy", grid={"x": [1, 2]})
        log = tmp_path / "telemetry.jsonl"
        with TelemetryHub(path=log) as hub:
            outcome = execute_plan(
                plan, parallel=2, runner=word_then_exit_runner,
                max_attempts=1, telemetry=hub,
            )
        assert [r.error for r in outcome.failed] == ["worker crashed (exitcode 0)"] * 2
        events = [json.loads(line) for line in log.read_text().splitlines()]
        words = [e for e in events if e["kind"] == "last_words"]
        assert sorted(e["x"] for e in words) == [1, 2]
        assert all(e["source"].startswith("sweep/pid") for e in words)
        assert _no_children_left()


# ----------------------------------------------------------------------
# A worker that cannot start
# ----------------------------------------------------------------------
def test_failed_worker_start_leaves_no_sibling_behind():
    """Worker 1's cell group cannot be pickled under spawn, so its
    start raises; worker 0 (already running) must be closed."""
    specs = [
        CellSpec("A", _build_ticks),
        CellSpec("B", lambda handle: None),
    ]
    with pytest.raises(Exception, match="[Pp]ickle") as caught:
        run_partitioned(
            specs, until=5.0, config=SimConfig(partitions=2), mp_context="spawn"
        )
    # ``caught`` keeps the traceback, hence run_partitioned's frame and
    # its workers, alive: only an explicit close can have ended them.
    assert _no_children_left()
    assert caught.traceback


# ----------------------------------------------------------------------
# Torn checkpoint
# ----------------------------------------------------------------------
def test_checkpoint_truncated_mid_line_resumes_exactly_the_torn_point(tmp_path):
    plan = ExecutionPlan.build("toy", grid={"x": [1, 2, 3, 4]})
    ck = tmp_path / "ck.jsonl"
    first = execute_plan(plan, parallel=0, runner=square_runner, checkpoint_path=ck)
    assert len(load_checkpoint_events(ck)) == 8  # started + finished per point

    # Tear the last line (the result of x=4) in half, as a crash
    # mid-write would.
    raw = ck.read_bytes()
    last = raw.rstrip(b"\n").rsplit(b"\n", 1)[1]
    assert json.loads(last)["result"]["request"]["params"] == {"x": 4}
    ck.write_bytes(raw[: len(raw) - len(last) // 2 - 1])

    ran = []

    def recording_runner(request):
        ran.append(request.kwargs["x"])
        return square_runner(request)

    second = execute_plan(
        plan, parallel=0, runner=recording_runner, checkpoint_path=ck, resume=True
    )
    assert ran == [4]
    assert second.resumed_points == 3
    assert second.json() == first.json()
    # The first line written after the resume (point_started) is not
    # glued to the torn fragment: both new events are readable.
    assert len(load_checkpoint_events(ck)) == 10

    def must_not_run(request):
        raise AssertionError("runner invoked for an already-checkpointed point")

    third = execute_plan(
        plan, parallel=0, runner=must_not_run, checkpoint_path=ck, resume=True
    )
    assert third.resumed_points == 4
    assert third.json() == first.json()
