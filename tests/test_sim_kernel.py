"""Tests for the discrete-event kernel (repro.sim.kernel / event)."""

import gc
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.event import EventQueue, PRIORITY_HIGH, PRIORITY_LOW
from repro.sim.kernel import RUN_GC_THRESHOLD


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        out = []
        q.push(3.0, out.append, ("c",))
        q.push(1.0, out.append, ("a",))
        q.push(2.0, out.append, ("b",))
        while q:
            ev = q.pop()
            ev.callback(*ev.args)
        assert out == ["a", "b", "c"]

    def test_same_time_fifo(self):
        q = EventQueue()
        evs = [q.push(1.0, lambda: None, ()) for _ in range(10)]
        popped = [q.pop() for _ in range(10)]
        assert [e.seq for e in popped] == [e.seq for e in evs]

    def test_priority_breaks_ties(self):
        q = EventQueue()
        q.push(1.0, lambda: "normal", ())
        high = q.push(1.0, lambda: "high", (), priority=PRIORITY_HIGH)
        q.push(1.0, lambda: "low", (), priority=PRIORITY_LOW)
        assert q.pop() is high

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_len_counts_live_events(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None, ())
        q.push(2.0, lambda: None, ())
        assert len(q) == 2
        ev.cancel()
        q.note_cancelled()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None, ())
        q.push(2.0, lambda: None, ())
        ev.cancel()
        q.note_cancelled()
        assert q.peek_entry()[0] == 2.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_entry() is None


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.5

    def test_schedule_at_absolute(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(2.0, lambda: None)

    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        # Remaining event still pending and runs on the next run().
        sim.run()
        assert fired == [1, 10]
        assert sim.now == 10.0

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_until_advances_clock_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_until_advances_clock_when_queue_drains(self):
        # Regression guard for the while/else clock-advance path: the
        # queue drains *before* the horizon, and the clock must still
        # land exactly on `until` (not on the last event's time).
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        assert sim.pending == 0

    def test_run_until_clock_exact_on_early_stop(self):
        # Early stop (pending event beyond the horizon): clock must be
        # exactly `until`, bit-for-bit, with the future event intact.
        sim = Simulator()
        sim.schedule(0.3, lambda: None)
        sim.schedule(9.7, lambda: None)
        until = 0.1 + 0.2  # deliberately not representable as a clean float
        sim.run(until=until)
        assert sim.now == until
        assert sim.pending == 1

    def test_run_until_in_past_does_not_rewind_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        sim.run(until=2.0)  # horizon already passed: no-op, no rewind
        assert sim.now == 5.0

    def test_run_until_in_past_with_pending_events_does_not_rewind_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 10)
        sim.schedule(20.0, fired.append, 20)
        sim.run(until=10.0)
        assert (sim.now, fired, sim.pending) == (10.0, [10], 1)
        sim.run(until=5.0)  # behind the clock: processes nothing
        assert (sim.now, fired, sim.pending) == (10.0, [10], 1)
        with pytest.raises(SimulationError):
            sim.schedule_at(7.0, lambda: None)
        sim.run()
        assert (sim.now, fired) == (20.0, [10, 20])

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        sim.cancel(ev)
        sim.run()
        assert fired == []
        assert sim.pending == 0

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending == 0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        out = []

        def first():
            out.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            out.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert out == [("first", 1.0), ("second", 3.0)]

    def test_max_events_limit(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(sim.now)
            sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run(max_events=5)
        assert len(count) == 5

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_step_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_run_not_reentrant(self):
        sim = Simulator()

        def bad():
            sim.run()

        sim.schedule(0.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_inside_run_rejected(self):
        # A nested step() would pop the t=10 event past the horizon.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.step)
        sim.schedule(10.0, fired.append, 10)
        with pytest.raises(SimulationError, match="step"):
            sim.run(until=5.0)
        assert fired == []
        assert sim.now == 1.0
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_zero_delay_event_fires_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.0]

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_live_event_at_infinity_does_not_hang(self):
        """A live event at ``+inf`` (and a timed wait whose timeout is
        infinite) sorts after every finite one: ``run(until=...)`` stops
        at the horizon, and a full ``run()`` ends with the clock at
        ``inf``. Run in a child so that a hang fails instead of stalling
        the suite."""
        script = """
from repro.sim import Simulator
from repro.sim.process import Process, Signal, TIMEOUT

sim = Simulator()
fired = []
sim.schedule(float("inf"), fired.append, "inf")
sim.schedule(1.0, fired.append, 1.0)

def waiter():
    fired.append((yield (Signal(sim, "never"), float("inf"))))

Process(sim, waiter())
sim.run(until=5.0)
assert (fired, sim.now, sim.pending) == ([1.0], 5.0, 2), (fired, sim.now)
sim.run()
assert fired == [1.0, "inf", TIMEOUT] and sim.now == float("inf"), fired
print("ok")
"""
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        try:
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=60,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
            )
        except subprocess.TimeoutExpired:
            pytest.fail("the kernel hung on an event at +inf")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestCollectorPolicy:
    """``run()`` batches the cyclic collector's young passes and gives
    the caller's thresholds back however it ends."""

    @pytest.fixture(autouse=True)
    def caller_thresholds(self):
        saved = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        yield
        gc.set_threshold(*saved)

    def test_young_threshold_is_raised_only_inside_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
        sim.run()
        assert seen == [(RUN_GC_THRESHOLD, 10, 10)]
        assert gc.get_threshold() == (700, 10, 10)

    def test_thresholds_restored_when_a_callback_raises(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.get_threshold() == (700, 10, 10)

    def test_thresholds_restored_around_a_nested_run(self):
        outer, inner = Simulator(), Simulator()
        seen = []
        inner.schedule(1.0, lambda: seen.append(("inner", gc.get_threshold())))
        outer.schedule(1.0, inner.run)
        outer.schedule(2.0, lambda: seen.append(("outer", gc.get_threshold())))
        outer.run()
        assert seen == [
            ("inner", (RUN_GC_THRESHOLD, 10, 10)),
            ("outer", (RUN_GC_THRESHOLD, 10, 10)),
        ]
        assert gc.get_threshold() == (700, 10, 10)

    def test_a_higher_or_disabled_threshold_is_kept(self):
        for young in (RUN_GC_THRESHOLD * 2, 0):
            gc.set_threshold(young, 10, 10)
            sim = Simulator()
            seen = []
            sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
            sim.run()
            assert seen == [(young, 10, 10)]
            assert gc.get_threshold() == (young, 10, 10)
