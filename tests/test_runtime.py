"""Tests for the parallel experiment runtime (repro.runtime) and the
unified RunRequest/RunResult experiment API."""

import json
import os
import pathlib
import time

import pytest

from repro.__main__ import main
from repro.bittorrent.swarm import SwarmConfig
from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, RunRequest, RunResult, get_experiment
from repro.net import Firewall
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import ACTION_COUNT, ACTION_PIPE
from repro.net.packet import Packet
from repro.runtime import (
    ATTEMPT_ENV,
    ExecutionPlan,
    execute_plan,
    load_checkpoint,
    registry_runner,
)


# ----------------------------------------------------------------------
# Module-level runners (spawn-picklable; shared state via request params)
# ----------------------------------------------------------------------


def square_runner(request: RunRequest) -> RunResult:
    params = request.kwargs
    x = params["x"]
    return RunResult.ok(
        request, artifacts={"square": x * x, "seed_mod": request.seed % 97}
    )


def flaky_exception_runner(request: RunRequest) -> RunResult:
    """Raises on the first attempt, succeeds on the second."""
    if int(os.environ.get(ATTEMPT_ENV, "1")) < 2:
        raise ValueError("injected failure")
    return square_runner(request)


def crash_runner(request: RunRequest) -> RunResult:
    """Hard-kills its own worker process once per point (no exception,
    no result — the parent must detect the dead worker), then
    succeeds on the retry."""
    marker = pathlib.Path(request.kwargs["marker_dir"]) / f"crashed-{request.kwargs['x']}"
    if not marker.exists():
        marker.write_text("about to crash")
        os._exit(17)
    return square_runner(request)


def sleepy_runner(request: RunRequest) -> RunResult:
    time.sleep(float(request.kwargs.get("sleep", 30.0)))
    return square_runner(request)


def always_failing_runner(request: RunRequest) -> RunResult:
    raise RuntimeError("this point never succeeds")


def must_not_run(request: RunRequest) -> RunResult:
    raise AssertionError("runner invoked for an already-checkpointed point")


# ----------------------------------------------------------------------
# RunRequest / RunResult protocol
# ----------------------------------------------------------------------


class TestRunRequest:
    def test_round_trip(self):
        req = RunRequest.make("fig6", {"rule_count": 10}, seed=3, replication=2)
        again = RunRequest.from_dict(json.loads(json.dumps(req.as_dict())))
        assert again == req
        assert again.key == req.key

    def test_key_is_order_independent(self):
        a = RunRequest.make("x", {"b": 1, "a": 2})
        b = RunRequest.make("x", {"a": 2, "b": 1})
        assert a.key == b.key

    def test_key_distinguishes_replications(self):
        a = RunRequest.make("x", {}, replication=0)
        b = RunRequest.make("x", {}, replication=1)
        assert a.key != b.key

    def test_result_round_trip_drops_value(self):
        req = RunRequest.make("x", {"a": 1})
        res = RunResult.ok(req, value=object(), artifacts={"m": 1.5}, report="r")
        doc = res.as_dict()
        again = RunResult.from_dict(doc)
        assert again.request == req
        assert again.artifacts == {"m": 1.5}
        assert again.value is None


class TestRegistryProtocol:
    def test_every_entry_has_execute(self):
        for entry in EXPERIMENTS.values():
            assert callable(entry.execute), entry.id
            assert callable(entry.point_runner), entry.id

    def test_execute_small_experiment(self):
        entry = get_experiment("fig3")
        result = entry.execute(RunRequest.make("fig3", {"instances": 10}, seed=1))
        assert result.is_ok
        assert result.artifacts["instances"] == 10
        assert "Figure 3" in result.report

    def test_seedless_run_function(self):
        # The adapter must not inject seed= into run functions that
        # take none (e.g. the deterministic rule-lookup ablation).
        entry = get_experiment("abl-rule-lookup")
        result = entry.execute(
            RunRequest.make("abl-rule-lookup", {"vnode_counts": (10,)}, seed=3)
        )
        assert result.is_ok
        assert "hash-indexed" in result.report

    def test_unknown_parameter_names_accepted_ones(self):
        with pytest.raises(ExperimentError) as info:
            get_experiment("fig6").execute(RunRequest.make("fig6", {"bogus": 1}))
        message = str(info.value)
        assert "bogus" in message and "pings_per_point" in message

    def test_fig6_point_entry(self):
        entry = get_experiment("fig6")
        result = entry.point_runner(
            RunRequest.make("fig6", {"rule_count": 500, "pings_per_point": 1})
        )
        assert result.artifacts["rule_count"] == 500
        # Linear path pays for the filler rules; the indexed path does not.
        assert result.artifacts["rtt_avg_ms"] > result.artifacts["rtt_avg_indexed_ms"]


# ----------------------------------------------------------------------
# ExecutionPlan
# ----------------------------------------------------------------------


class TestExecutionPlan:
    def test_grid_cross_product(self):
        plan = ExecutionPlan.build(
            "toy", grid={"a": [1, 2], "b": [10, 20]}, replications=2
        )
        assert len(plan) == 8
        assert {p.params for p in plan} == {
            (("a", 1), ("b", 10)),
            (("a", 1), ("b", 20)),
            (("a", 2), ("b", 10)),
            (("a", 2), ("b", 20)),
        }

    def test_seeds_are_deterministic_and_distinct(self):
        plan1 = ExecutionPlan.build("toy", grid={"x": [1, 2]}, replications=3)
        plan2 = ExecutionPlan.build("toy", grid={"x": [1, 2]}, replications=3)
        assert [p.seed for p in plan1] == [p.seed for p in plan2]
        assert len({p.seed for p in plan1}) == len(plan1)

    def test_base_seed_changes_point_seeds(self):
        a = ExecutionPlan.build("toy", grid={"x": [1]}, base_seed=0)
        b = ExecutionPlan.build("toy", grid={"x": [1]}, base_seed=1)
        assert a.points[0].seed != b.points[0].seed

    def test_explicit_seed_list(self):
        plan = ExecutionPlan.build("toy", seeds=[5, 6, 7])
        assert [p.seed for p in plan] == [5, 6, 7]
        assert [p.replication for p in plan] == [0, 1, 2]


# ----------------------------------------------------------------------
# Executor: determinism, retry, timeout, resume
# ----------------------------------------------------------------------


PLAN = ExecutionPlan.build("toy", grid={"x": [1, 2, 3, 4]})


class TestParallelDeterminism:
    def test_parallel_matches_inline_byte_for_byte(self):
        inline = execute_plan(PLAN, parallel=0, runner=square_runner)
        pooled = execute_plan(PLAN, parallel=3, runner=square_runner)
        assert inline.json() == pooled.json()
        assert [r.artifacts["square"] for r in pooled.results] == [1, 4, 9, 16]

    def test_parallel_levels_agree(self):
        one = execute_plan(PLAN, parallel=1, runner=square_runner)
        four = execute_plan(PLAN, parallel=4, runner=square_runner)
        assert one.json() == four.json()

    def test_fig6_parallel_matches_serial(self):
        plan = ExecutionPlan.build(
            "fig6",
            grid={"rule_count": [0, 400]},
            base_params={"pings_per_point": 1},
        )
        serial = execute_plan(plan, parallel=1, runner=registry_runner)
        parallel = execute_plan(plan, parallel=2, runner=registry_runner)
        assert serial.json() == parallel.json()

    def test_default_runner_uses_point_functions(self):
        # README's library example: fig6's grid key is rule_count, which
        # only the per-point function takes, so the default runner must
        # go through it.
        plan = ExecutionPlan.build("fig6", grid={"rule_count": (0, 10000, 20000)},
                                   base_params={"pings_per_point": 1}, replications=2)
        outcome = execute_plan(plan, parallel=0, runner=registry_runner)
        assert not outcome.failed and outcome.retried == 0
        assert sorted(r.artifacts["rule_count"] for r in outcome.results) == [
            0, 0, 10000, 10000, 20000, 20000,
        ]

    def test_nondeterministic_doc_carries_runtime_metrics(self):
        outcome = execute_plan(PLAN, parallel=2, runner=square_runner)
        doc = outcome.document(deterministic_only=False)
        assert doc["runtime_metrics"]["runtime.points_completed"]["value"] == 4
        assert "wall_time_seconds" in doc["manifest"]


class TestFaultTolerance:
    def test_exception_is_retried(self):
        outcome = execute_plan(
            PLAN, parallel=2, runner=flaky_exception_runner, retry_backoff=0.01
        )
        assert not outcome.failed
        assert all(r.attempts == 2 for r in outcome.results)
        assert outcome.metrics["runtime.points_retried"]["value"] == 4

    def test_worker_crash_is_retried(self, tmp_path):
        plan = ExecutionPlan.build(
            "toy", grid={"x": [1, 2]}, base_params={"marker_dir": str(tmp_path)}
        )
        outcome = execute_plan(
            plan, parallel=2, runner=crash_runner, retry_backoff=0.01
        )
        assert not outcome.failed
        assert [r.artifacts["square"] for r in outcome.results] == [1, 4]
        assert all(r.attempts == 2 for r in outcome.results)

    def test_exhausted_retries_record_failure(self):
        outcome = execute_plan(
            ExecutionPlan.build("toy", grid={"x": [1]}),
            parallel=1,
            runner=always_failing_runner,
            max_attempts=2,
            retry_backoff=0.01,
        )
        assert len(outcome.failed) == 1
        failed = outcome.failed[0]
        assert failed.status == "failed"
        assert "RuntimeError" in failed.error
        assert failed.attempts == 2
        assert outcome.metrics["runtime.points_failed"]["value"] == 1

    def test_inline_mode_retries_too(self):
        outcome = execute_plan(
            PLAN, parallel=0, runner=flaky_exception_runner, retry_backoff=0.0
        )
        assert not outcome.failed
        assert all(r.attempts == 2 for r in outcome.results)

    def test_timeout_kills_worker_and_fails_point(self):
        plan = ExecutionPlan.build("toy", grid={"x": [1]}, base_params={"sleep": 30.0})
        start = time.monotonic()
        outcome = execute_plan(
            plan,
            parallel=1,
            runner=sleepy_runner,
            timeout=0.3,
            max_attempts=1,
        )
        assert time.monotonic() - start < 20.0  # did not wait for the sleep
        assert len(outcome.failed) == 1
        assert "timeout" in outcome.failed[0].error
        assert outcome.metrics["runtime.points_timeout"]["value"] == 1


class TestCheckpointResume:
    def test_checkpoint_written_incrementally(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        execute_plan(PLAN, parallel=2, runner=square_runner, checkpoint_path=ck)
        docs = [json.loads(line) for line in ck.read_text().splitlines()]
        results = [d for d in docs if "key" in d]
        events = [d["event"] for d in docs if "event" in d]
        assert len(results) == 4
        # Lifecycle events ride along in the same file (one started +
        # one finished per point) without disturbing resume.
        kinds = [e["kind"] for e in events]
        assert kinds.count("point_started") == 4
        assert kinds.count("point_finished") == 4
        done = load_checkpoint(ck)
        assert set(done) == {p.key for p in PLAN}

    def test_resume_skips_completed_points(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        first = execute_plan(
            PLAN, parallel=0, runner=square_runner, checkpoint_path=ck
        )
        resumed = execute_plan(
            PLAN, parallel=0, runner=must_not_run, checkpoint_path=ck, resume=True
        )
        assert resumed.resumed_points == 4
        assert resumed.json() == first.json()

    def test_partial_checkpoint_resumes_only_missing(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        half = ExecutionPlan.build("toy", grid={"x": [1, 2]})
        execute_plan(half, parallel=0, runner=square_runner, checkpoint_path=ck)
        full = execute_plan(
            PLAN, parallel=2, runner=square_runner, checkpoint_path=ck, resume=True
        )
        assert full.resumed_points == 2
        assert not full.failed
        # Resumed output equals a from-scratch run: determinism survives resume.
        scratch = execute_plan(PLAN, parallel=0, runner=square_runner)
        assert full.json() == scratch.json()

    def test_failed_points_are_retried_on_resume(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        plan = ExecutionPlan.build("toy", grid={"x": [7]})
        broken = execute_plan(
            plan,
            parallel=1,
            runner=always_failing_runner,
            max_attempts=1,
            checkpoint_path=ck,
        )
        assert len(broken.failed) == 1
        fixed = execute_plan(
            plan, parallel=1, runner=square_runner, checkpoint_path=ck, resume=True
        )
        assert not fixed.failed
        assert fixed.resumed_points == 0
        assert fixed.results[0].artifacts["square"] == 49

    def test_crash_mid_sweep_then_resume_completes(self, tmp_path):
        """The acceptance scenario: a worker dies mid-sweep; retry +
        resume still complete the whole sweep."""
        ck = tmp_path / "sweep.jsonl"
        plan = ExecutionPlan.build(
            "toy", grid={"x": [1, 2, 3]}, base_params={"marker_dir": str(tmp_path)}
        )
        # First run: every point hard-crashes once, max_attempts=1, so
        # the sweep ends with failures — like an interrupted campaign.
        first = execute_plan(
            plan, parallel=2, runner=crash_runner, max_attempts=1, checkpoint_path=ck
        )
        assert first.failed
        # Resume: crashed points retry (markers exist now) and succeed.
        second = execute_plan(
            plan,
            parallel=2,
            runner=crash_runner,
            max_attempts=2,
            checkpoint_path=ck,
            resume=True,
        )
        assert not second.failed
        assert [r.artifacts["square"] for r in second.results] == [1, 4, 9]


# ----------------------------------------------------------------------
# Seed sweep port (experiments/sweep.py on the runtime)
# ----------------------------------------------------------------------


class TestSweepSwarmPort:
    CONFIG = SwarmConfig(
        leechers=2, seeders=1, file_size=256 * 1024, stagger=1.0, num_pnodes=2
    )

    def test_inline_matches_legacy_semantics(self):
        result = __import__(
            "repro.experiments.sweep", fromlist=["sweep_swarm"]
        ).sweep_swarm(self.CONFIG, seeds=[1, 2], max_time=20000.0)
        assert result.seeds == (1, 2)
        assert len(result.values) == 2
        assert all(v > 0 for v in result.values)

    def test_parallel_equals_inline(self):
        from repro.experiments.sweep import sweep_swarm

        inline = sweep_swarm(self.CONFIG, seeds=[1, 2], max_time=20000.0, parallel=0)
        pooled = sweep_swarm(self.CONFIG, seeds=[1, 2], max_time=20000.0, parallel=2)
        assert inline == pooled


# ----------------------------------------------------------------------
# CLI: python -m repro sweep
# ----------------------------------------------------------------------


FAST_SWEEP = ["rule_count=0,300", "pings_per_point=1"]


class TestSweepCli:
    def test_parallel_output_is_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sweep", "fig6", "--parallel", "2", *FAST_SWEEP, "--out", str(out1)]) == 0
        assert main(["sweep", "fig6", "--parallel", "1", *FAST_SWEEP, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["sweep"]["experiment_id"] == "fig6"
        assert [p["artifacts"]["rule_count"] for p in doc["points"]] == [0, 300]
        assert "rtt_avg_ms" in doc["summary"]

    def test_stdout_json_when_no_out(self, capsys):
        assert main(["sweep", "fig6", "--parallel", "0", *FAST_SWEEP]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["manifest"]["extra"]["kind"] == "sweep"

    def test_resume_via_cli(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        args = ["sweep", "fig6", "--parallel", "0", *FAST_SWEEP, "--checkpoint", str(ck)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main([*args, "--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "2 resumed" in captured.err

    def test_unknown_experiment(self, capsys):
        assert main(["sweep", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_replications_derive_distinct_seeds(self, capsys):
        assert main(
            ["sweep", "fig6", "--parallel", "0", "--replications", "2",
             "rule_count=0", "pings_per_point=1"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        seeds = [p["request"]["seed"] for p in doc["points"]]
        assert len(seeds) == 2 and seeds[0] != seeds[1]


# ----------------------------------------------------------------------
# Firewall(indexed=True)
# ----------------------------------------------------------------------


def _count_packet() -> Packet:
    return Packet(
        src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.0.0.2"), proto="icmp", size=64
    )


class TestIndexedIpfw:
    def test_indexed_flag_changes_accounting_not_verdict(self):
        linear = Firewall("lin")
        indexed = Firewall("idx", indexed=True)
        for fw in (linear, indexed):
            for _ in range(100):
                fw.add(ACTION_COUNT, src=IPv4Network("172.16.0.0/16"))
        pkt = _count_packet()
        v_lin = linear.evaluate(pkt, "out")
        v_idx = indexed.evaluate(pkt, "out")
        assert v_lin.allowed == v_idx.allowed
        assert v_lin.scanned == 100  # full linear walk
        assert v_idx.scanned == 2 + 100  # probes + candidates examined

    def test_indexed_constructor_flag(self):
        fw = Firewall(indexed=True)
        assert isinstance(fw, Firewall)
        assert fw.indexed is True

    def test_runtime_flip(self):
        fw = Firewall("flip")
        for _ in range(50):
            fw.add(ACTION_COUNT, src=IPv4Network("172.16.0.0/16"))
        assert fw.evaluate(_count_packet(), "out").scanned == 50
        fw.indexed = True
        assert fw.evaluate(_count_packet(), "out").scanned == 52

    def test_fig6_reports_both_paths(self):
        from repro.experiments.fig6_rule_scaling import print_report, run_fig6

        result = run_fig6(rule_counts=(0, 500), pings_per_point=1)
        assert result.indexed_rtts is not None
        report = print_report(result)
        assert "indexed" in report
        # Indexed path must stay flat while the linear path grows.
        linear_growth = result.rtts[1][0] - result.rtts[0][0]
        indexed_growth = result.indexed_rtts[1][0] - result.indexed_rtts[0][0]
        assert linear_growth > 10 * abs(indexed_growth)
