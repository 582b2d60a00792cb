"""Equivalence of the event queue and kernel with the reference heap.

The queue's free list and the kernel's inlined run loop must be
*observationally invisible*: the queue and the plain ``heapq`` queue of
``tests/reference/heap_kernel.py`` must produce the identical
``(time, priority, seq)`` total order and the identical cancellation
semantics on *any* schedule, and the simulator must run a schedule
exactly as the reference run loop does. These property-style tests
drive both through the same randomized push/pop/cancel sequences and
demand byte-equal outcomes.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.event import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    EventQueue,
)
from repro.sim.kernel import Simulator
from tests.reference.heap_kernel import HeapKernel, HeapQueue

PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)

#: The unit of the schedules' spans, in seconds: short-delay traffic
#: lives within one, swarm timers thousands of them away.
WINDOW = 256 * 1e-3


def _noop() -> None:
    pass


def _random_times(rng: random.Random, n: int, span: float):
    """``n`` times in [0, span] with deliberate collisions (~10%)."""
    times = []
    for _ in range(n):
        if times and rng.random() < 0.1:
            times.append(rng.choice(times))  # exact duplicate time
        else:
            times.append(rng.random() * span)
    return times


def _drain(queue):
    order = []
    while queue:
        ev = queue.pop()
        order.append((ev.time, ev.priority, ev.seq))
    return order


def _cancel(heap_q, heap_ev, sim_q, sim_ev):
    """Cancel the same event on the reference and the product queue
    (cancelling twice is a no-op on both)."""
    heap_q.cancel(heap_ev)
    if not sim_ev.cancelled:
        sim_ev.cancel()
        sim_q.note_cancelled()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "span",
    [
        0.5 * WINDOW,  # dense: loopback, rule-scan and pipe delays
        40 * WINDOW,  # seconds apart
        2000 * WINDOW,  # swarm-timer territory
        500_000 * WINDOW,  # hours-wide horizon
    ],
)
def test_pop_order_identical_on_random_schedules(seed, span):
    rng = random.Random(seed)
    times = _random_times(rng, 2000, span)
    prios = [rng.choice(PRIORITIES) for _ in times]

    heap_q = HeapQueue()
    sim_q = EventQueue()
    for t, p in zip(times, prios):
        heap_q.push(t, _noop, (), p)
        sim_q.push(t, _noop, (), p)

    heap_order = _drain(heap_q)
    sim_order = _drain(sim_q)
    assert sim_order == heap_order
    # The order really is the (time, priority, seq) total order.
    assert heap_order == sorted(heap_order)
    assert len(heap_order) == len(times)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_cancellation_semantics_identical(seed):
    rng = random.Random(seed)
    times = _random_times(rng, 1500, 10 * WINDOW)
    prios = [rng.choice(PRIORITIES) for _ in times]

    heap_q = HeapQueue()
    sim_q = EventQueue()
    heap_evs, sim_evs = [], []
    for t, p in zip(times, prios):
        heap_evs.append(heap_q.push(t, _noop, (), p))
        sim_evs.append(sim_q.push(t, _noop, (), p))

    # Cancel the same 30% on both queues (tombstones on both, dropped
    # when they reach the top).
    doomed = rng.sample(range(len(times)), k=len(times) * 3 // 10)
    for i in doomed:
        _cancel(heap_q, heap_evs[i], sim_q, sim_evs[i])

    assert len(heap_q) == len(sim_q) == len(times) - len(doomed)
    heap_order = _drain(heap_q)
    sim_order = _drain(sim_q)
    assert sim_order == heap_order
    cancelled_keys = {(times[i], prios[i], i) for i in doomed}
    assert not cancelled_keys & set(heap_order)


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_interleaved_push_pop_identical(seed):
    """Steady-state shape: pops interleaved with pushes of later times."""
    rng = random.Random(seed)
    heap_q = HeapQueue()
    sim_q = EventQueue()
    # Both queues see the *same* decision stream: seed both identically.
    for t in _random_times(rng, 64, WINDOW):
        heap_q.push(t, _noop, (), PRIORITY_NORMAL)
        sim_q.push(t, _noop, (), PRIORITY_NORMAL)

    heap_order, sim_order = [], []
    now = 0.0
    for _ in range(3000):
        a = heap_q.pop()
        b = sim_q.pop()
        heap_order.append((a.time, a.priority, a.seq))
        sim_order.append((b.time, b.priority, b.seq))
        now = a.time
        # Reschedule forward (never into the past), mixed short/long.
        if len(heap_q) < 2048:
            for _k in range(rng.choice((0, 1, 1, 2))):
                dt = rng.random() * (WINDOW if rng.random() < 0.8 else 20 * WINDOW)
                p = rng.choice(PRIORITIES)
                heap_q.push(now + dt, _noop, (), p)
                sim_q.push(now + dt, _noop, (), p)
        if not heap_q:
            break
    assert sim_order == heap_order


def test_dense_window_beyond_sparse_run_max():
    """Many events packed into one short span far from t=0; order must
    still match."""
    n = 1536
    base = 50 * WINDOW  # far from t=0
    heap_q = HeapQueue()
    sim_q = EventQueue()
    rng = random.Random(7)
    for _ in range(n):
        t = base + rng.random() * WINDOW * 0.9
        p = rng.choice(PRIORITIES)
        heap_q.push(t, _noop, (), p)
        sim_q.push(t, _noop, (), p)
    assert _drain(sim_q) == _drain(heap_q)


def test_pop_ready_until_horizon_identical():
    """``Simulator.run(until=h)`` fires exactly what the reference run
    loop fires before the horizon, leaves the same events pending, and
    picks up from there on the next ``run``."""

    def drive(sim):
        fired = []
        for i in range(100):
            sim.schedule(i * 0.01, lambda i=i: fired.append((sim.now, i)))
        sim.run(until=0.495)
        head = (list(fired), sim.now, sim.pending)
        sim.run()
        return head, fired, sim.now

    result = drive(Simulator(seed=0, observe=False))
    assert result == drive(HeapKernel())
    (fired, now, pending), _, _ = result
    assert fired and fired[-1][0] <= 0.495 and now == 0.495
    assert pending == 100 - len(fired)


def test_pop_from_empty_raises_on_both_paths():
    """A queue that never held anything and one holding only a
    tombstone both refuse to pop."""
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.pop()
    ev = q.push(0.0, _noop, (), PRIORITY_NORMAL)
    ev.cancel()
    q.note_cancelled()
    assert not q
    with pytest.raises(SimulationError):
        q.pop()


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_cancellation_of_events_migrated_across_a_resize(seed):
    """Cancel far-future events up front and pending events mid-drain;
    both queues must agree at every step."""
    rng = random.Random(seed)
    heap_q = HeapQueue()
    sim_q = EventQueue()
    heap_evs, sim_evs = [], []
    # Two regimes: a dense prefix within one window and a wide tail.
    times = [rng.random() * WINDOW for _ in range(400)]
    times += [WINDOW * (2 + rng.random() * 2000) for _ in range(1200)]
    for t in times:
        p = rng.choice(PRIORITIES)
        heap_evs.append(heap_q.push(t, _noop, (), p))
        sim_evs.append(sim_q.push(t, _noop, (), p))

    def cancel(i):
        _cancel(heap_q, heap_evs[i], sim_q, sim_evs[i])

    # Cancel some tail events before the drain starts.
    for i in rng.sample(range(400, 1600), 200):
        cancel(i)
    order = []
    popped = 0
    while sim_q:
        a = sim_q.pop()
        b = heap_q.pop()
        assert (a.time, a.priority, a.seq) == (b.time, b.priority, b.seq)
        order.append(a.seq)
        popped += 1
        # Periodically cancel a pending victim mid-drain.
        if popped % 97 == 0:
            cancel(rng.randrange(len(times)))
        assert len(sim_q) == len(heap_q)
    assert len(order) == len(set(order))


@pytest.mark.parametrize("seed", [30, 31])
def test_simulator_fast_and_slow_execute_identically(seed):
    """Full-kernel equivalence with the reference run loop: same
    callbacks, same clock, same order — including runtime cancellations
    and self-rescheduling timers."""

    def build_and_run(sim):
        rng = random.Random(seed)
        log = []
        handles = {}

        def fire(tag):
            log.append((round(sim.now, 9), tag))
            r = rng.random()
            if r < 0.45 and tag < 4000:
                dt = rng.random() * (0.1 if r < 0.3 else 5.0)
                handles[tag + 1000] = sim.schedule(dt, fire, tag + 1000)
            elif r < 0.55:
                # Cancel some still-pending handle (idempotent).
                if handles:
                    victim = rng.choice(sorted(handles))
                    sim.cancel(handles.pop(victim))

        for i in range(300):
            handles[i] = sim.schedule(rng.random() * 2.0, fire, i)
        sim.run(until=50.0)
        return log, sim.events_processed, sim.now

    result = build_and_run(Simulator(seed=seed, observe=False))
    assert result == build_and_run(HeapKernel())
    assert result[1] > 300  # the workload actually rescheduled


def test_ping_shaped_tombstones_execute_identically():
    """The ``ping_mesh`` shape: every echo arms a 10 s timeout that its
    reply cancels about a millisecond later, among 0-5 ms traffic. The
    heap is then mostly tombstones, and the kernel must still run the
    schedule exactly as the reference run loop does."""

    def build_and_run(sim):
        rng = random.Random(5)
        log = []
        peak = [0, 0]  # (heap entries, live) at the largest heap seen

        def reply(pinger, timer):
            log.append((round(sim.now, 9), "reply", pinger))
            sim.cancel(timer)
            if pinger < 20_000:
                sim.schedule(rng.random() * 0.005, echo, pinger + 50)

        def timeout(pinger):
            log.append((round(sim.now, 9), "timeout", pinger))

        def traffic(tag):
            log.append((round(sim.now, 9), "traffic", tag))
            if tag % 1000 < 400:
                sim.schedule(rng.random() * 0.005, traffic, tag + 1)

        def echo(pinger):
            log.append((round(sim.now, 9), "echo", pinger))
            timer = sim.schedule(10.0, timeout, pinger)
            if rng.random() < 0.99:
                sim.schedule(0.001 + rng.random() * 1e-4, reply, pinger, timer)
            entries = len(sim._queue._heap)
            if entries > peak[0]:
                peak[:] = [entries, sim.pending]

        for p in range(50):
            sim.schedule(rng.random() * 0.005, echo, p)
            sim.schedule(rng.random() * 0.005, traffic, p * 1000)
        sim.run(until=20.0)
        return log, sim.events_processed, sim.now, sim.pending, peak

    log, processed, now, pending, peak = build_and_run(Simulator(seed=0, observe=False))
    ref = build_and_run(HeapKernel())
    assert (log, processed, now, pending) == ref[:4]
    assert sum(1 for entry in log if entry[1] == "timeout") > 0
    # Tombstones outnumbered live entries at the heap's peak.
    assert peak[0] > 2 * peak[1], peak
