"""Tests for generator-based processes, signals and resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Resource, Simulator
from repro.sim.process import Interrupt, Process, Signal, TIMEOUT


@pytest.fixture
def sim():
    return Simulator(seed=7)


class TestSignal:
    def test_trigger_delivers_value(self, sim):
        sig = Signal(sim)
        got = []
        sig.wait_callback(got.append)
        sig.trigger(42)
        assert got == [42]

    def test_wait_after_trigger_fires_immediately(self, sim):
        sig = Signal(sim)
        sig.trigger("v")
        got = []
        sig.wait_callback(got.append)
        assert got == ["v"]

    def test_double_trigger_raises(self, sim):
        sig = Signal(sim)
        sig.trigger()
        with pytest.raises(SimulationError):
            sig.trigger()

    def test_idempotent_signal_allows_retrigger(self, sim):
        sig = Signal(sim, idempotent=True)
        sig.trigger(1)
        sig.trigger(2)
        assert sig.value == 1

    def test_remove_callback(self, sim):
        sig = Signal(sim)
        got = []
        sig.wait_callback(got.append)
        sig.remove_callback(got.append)
        sig.trigger("x")
        assert got == []


class TestProcess:
    def test_sleep_advances_time(self, sim):
        marks = []

        def proc():
            marks.append(sim.now)
            yield 2.0
            marks.append(sim.now)
            yield 3.0
            marks.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert marks == [0.0, 2.0, 5.0]

    def test_return_value_captured(self, sim):
        def proc():
            yield 1.0
            return "result"

        p = Process(sim, proc())
        sim.run()
        assert p.result == "result"
        assert not p.alive

    def test_start_delay(self, sim):
        marks = []

        def proc():
            marks.append(sim.now)
            yield 0.0

        Process(sim, proc(), start_delay=4.5)
        sim.run()
        assert marks == [4.5]

    def test_wait_signal_receives_value(self, sim):
        sig = Signal(sim)
        got = []

        def waiter():
            value = yield sig
            got.append((sim.now, value))

        Process(sim, waiter())
        sim.schedule(3.0, sig.trigger, "payload")
        sim.run()
        assert got == [(3.0, "payload")]

    def test_wait_already_triggered_signal(self, sim):
        sig = Signal(sim)
        sig.trigger("early")
        got = []

        def waiter():
            value = yield sig
            got.append(value)

        Process(sim, waiter())
        sim.run()
        assert got == ["early"]

    def test_join_other_process(self, sim):
        def inner():
            yield 5.0
            return 99

        def outer(inner_proc):
            result = yield inner_proc
            return (sim.now, result)

        ip = Process(sim, inner())
        op = Process(sim, outer(ip))
        sim.run()
        assert op.result == (5.0, 99)

    def test_timeout_wait_expires(self, sim):
        sig = Signal(sim)
        got = []

        def waiter():
            value = yield (sig, 2.0)
            got.append((sim.now, value))

        Process(sim, waiter())
        sim.run()
        assert got == [(2.0, TIMEOUT)]

    def test_timeout_wait_signal_first(self, sim):
        sig = Signal(sim)
        got = []

        def waiter():
            value = yield (sig, 10.0)
            got.append((sim.now, value))

        Process(sim, waiter())
        sim.schedule(1.0, sig.trigger, "fast")
        sim.run()
        assert got == [(1.0, "fast")]
        # The timeout timer must have been cancelled.
        assert sim.pending == 0

    def test_yield_bad_target_raises(self, sim):
        def proc():
            yield object()

        Process(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_needs_generator(self, sim):
        def not_a_gen():
            return 1

        with pytest.raises(SimulationError):
            Process(sim, not_a_gen)  # type: ignore[arg-type]

    def test_interrupt_during_sleep(self, sim):
        got = []

        def proc():
            try:
                yield 100.0
            except Interrupt as i:
                got.append((sim.now, i.cause))

        p = Process(sim, proc())
        sim.schedule(3.0, p.interrupt, "wakeup")
        sim.run()
        assert got == [(3.0, "wakeup")]

    def test_interrupt_dead_process_noop(self, sim):
        def proc():
            yield 0.0

        p = Process(sim, proc())
        sim.run()
        p.interrupt()
        sim.run()

    def test_kill_stops_process(self, sim):
        marks = []

        def proc():
            marks.append("start")
            yield 10.0
            marks.append("never")

        p = Process(sim, proc())
        sim.schedule(1.0, p.kill)
        sim.run()
        assert marks == ["start"]
        assert not p.alive

    def test_interrupt_disarms_timed_wait(self, sim):
        sig = Signal(sim)
        got = []

        def proc():
            try:
                yield (sig, 5.0)
            except Interrupt:
                got.append(("interrupted", sim.now))
            got.append(((yield 100.0), sim.now))

        p = Process(sim, proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        # The old 5 s timer must not cut the 100 s sleep short, nor
        # resume the process a second time.
        assert got == [("interrupted", 1.0), (None, 101.0)]
        assert not p.alive

    def test_kill_disarms_timed_wait(self, sim):
        sig = Signal(sim)

        def proc():
            yield (sig, 5.0)

        p = Process(sim, proc())
        sim.schedule(1.0, p.kill)
        sim.run()
        assert sim.now == 1.0 and sim.pending == 0
        assert sig._waiters == []

    def test_done_signal_fires(self, sim):
        def proc():
            yield 1.0
            return "ok"

        p = Process(sim, proc())
        got = []
        p.done.wait_callback(got.append)
        sim.run()
        assert got == ["ok"]


class TestChannel:
    def test_put_then_get(self, sim):
        ch = Channel(sim)
        got = []

        def consumer():
            got.append((yield ch.get()))

        ch.put("a")
        Process(sim, consumer())
        sim.run()
        assert got == ["a"]

    def test_get_blocks_until_put(self, sim):
        ch = Channel(sim)
        got = []

        def consumer():
            item = yield ch.get()
            got.append((item, sim.now))

        Process(sim, consumer())
        sim.schedule(5.0, ch.put, "late")
        sim.run()
        assert got == [("late", 5.0)]

    def test_fifo_ordering(self, sim):
        ch = Channel(sim)
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield ch.get()))

        for x in (1, 2, 3):
            ch.put(x)
        Process(sim, consumer())
        sim.run()
        assert got == [1, 2, 3]

    def test_multiple_getters_fifo(self, sim):
        ch = Channel(sim)
        got = []

        def consumer(tag):
            got.append((tag, (yield ch.get())))

        Process(sim, consumer("first"))
        Process(sim, consumer("second"))
        sim.run(until=1.0)
        ch.put("x")
        ch.put("y")
        sim.run()
        assert got == [("first", "x"), ("second", "y")]

    def test_try_get(self, sim):
        ch = Channel(sim)
        assert ch.try_get() is None
        ch.put(5)
        assert ch.try_get() == 5

    def test_close_wakes_getters_with_none(self, sim):
        ch = Channel(sim)
        got = []

        def consumer():
            got.append((yield ch.get()))

        Process(sim, consumer())
        sim.schedule(1.0, ch.close)
        sim.run()
        assert got == [None]

    def test_get_after_close_returns_none(self, sim):
        ch = Channel(sim)
        ch.close()
        got = []

        def consumer():
            got.append((yield ch.get()))

        Process(sim, consumer())
        sim.run()
        assert got == [None]

    def test_put_on_closed_raises(self, sim):
        ch = Channel(sim)
        ch.close()
        with pytest.raises(SimulationError):
            ch.put(1)

    def test_subscriber_that_closes_mid_backlog_gets_none_once_and_nothing_after(self, sim):
        ch = Channel(sim)
        ch.put(1)
        ch.put(2)
        got = []

        def on_item(item):
            got.append(item)
            if item == 1:
                ch.close()

        ch.subscribe(on_item)
        assert got == [1, None]


class TestResource:
    def test_capacity_enforced(self, sim):
        res = Resource(sim, capacity=2)
        order = []

        def user(tag, hold):
            yield res.acquire()
            order.append((tag, sim.now))
            yield hold
            res.release()

        Process(sim, user("a", 3.0))
        Process(sim, user("b", 3.0))
        Process(sim, user("c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 0.0), ("c", 3.0)]

    def test_try_acquire(self, sim):
        res = Resource(sim, capacity=1)
        assert res.try_acquire() is True
        assert res.try_acquire() is False
        res.release()
        assert res.try_acquire() is True

    def test_release_unheld_raises(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=1).release()

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_waiting_count(self, sim):
        res = Resource(sim, capacity=1)

        def user():
            yield res.acquire()
            yield 10.0
            res.release()

        Process(sim, user())
        Process(sim, user())
        sim.run(until=1.0)
        assert res.waiting == 1
