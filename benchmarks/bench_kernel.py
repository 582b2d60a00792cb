"""Event-dispatch microbenchmark: the simulator vs the reference heap kernel.

Pits the :class:`~repro.sim.kernel.Simulator` (one binary heap, event
free list, inlined dispatch loop) against the plain ``heapq`` kernel of
``tests/reference/heap_kernel.py``, which is the same data structure
with a peek/pop loop, on three schedules: a burst drain of 400 000
short-delay timers, steady-state self-rescheduling timers, and 200 000
timers over a wide horizon.

Both kernels execute the identical schedule (asserted on the processed
event counts); only wall clock differs. The gate is **>= 1.0x** on all
three: the optimised loop must not lose to its oracle. The burst and
the wide horizon (400k and 200k pending) are exactly where a calendar
queue beats a heap, and the simulator used to run one for them (3.5x /
1.6x); no workload has that shape — the heap peaks at 1 000–12 000
entries, tombstones included — so the kernel is now a heap and these
two cases measure its inlined loop only.

Every timing is the best of ``TIMING_ROUNDS`` runs: a single-shot
measurement is at the mercy of allocator/scheduler noise, which showed
up as an unexplained +14% ``wall_seconds`` drift between baseline
regenerations. The min is the standard low-noise estimator for
CPU-bound microbenchmarks. The simulator's and the reference's rounds
alternate, so drift on a shared host hits both sides alike: with one
data structure on both sides the margin is ~1.2x, about the size of
that drift.

Scale: ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies the event
counts — CI smoke runs use 0.1.
"""

import os
import time

from repro.sim.kernel import Simulator
from tests.reference.heap_kernel import HeapKernel

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0") or "1.0")

#: Burst drain of short-delay timers.
DRAIN_EVENTS = max(1000, int(400_000 * SCALE))
DRAIN_SPAN = 0.25  # seconds of sim time

#: Self-rescheduling timers, and timers over a wide horizon.
STEADY_EVENTS = max(1000, int(200_000 * SCALE))
STEADY_TIMERS = 2000
WIDE_EVENTS = max(1000, int(200_000 * SCALE))
WIDE_SPAN = 400.0

#: Gate, on every workload: the simulator must not lose to the reference.
MIN_SPEEDUP = 1.0

#: Each wall-clock number is the best of this many runs (noise floor).
TIMING_ROUNDS = 5


def _noop() -> None:
    pass


def best_pair(fn, rounds: int = TIMING_ROUNDS):
    """Minimum wall-clock of ``fn`` on the simulator and on the
    reference over ``rounds`` alternating runs (least-noise estimator:
    every source of interference only ever adds time)."""
    fast, slow = [], []
    for _ in range(rounds):
        fast.append(fn(True))
        slow.append(fn(False))
    return min(fast), min(slow)


def _kernel(fast: bool):
    """The simulator (``fast``) or the reference heap kernel."""
    return Simulator(seed=1, observe=False) if fast else HeapKernel()


def dispatch_burst(fast: bool, events: int = DRAIN_EVENTS, span: float = DRAIN_SPAN):
    """Schedule ``events`` short-delay timers, then drain them."""
    sim = _kernel(fast)
    dt = span / events
    schedule = sim.schedule
    for i in range(events):
        schedule(i * dt, _noop)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.events_processed == events
    return wall


def dispatch_steady(fast: bool, events: int = STEADY_EVENTS, timers: int = STEADY_TIMERS):
    """Self-rescheduling timer wheel: push interleaved with pop."""
    sim = _kernel(fast)
    schedule = sim.schedule
    state = [0]

    def tick(delay: float) -> None:
        n = state[0] = state[0] + 1
        if n < events:
            schedule(delay, tick, delay)

    for i in range(timers):
        delay = 0.0001 * (1 + i % 97)
        schedule(delay, tick, delay)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.events_processed == events + timers - 1
    return wall


def dispatch_wide(fast: bool, events: int = WIDE_EVENTS, span: float = WIDE_SPAN):
    """Events spread over a wide horizon."""
    sim = _kernel(fast)
    dt = span / events
    schedule = sim.schedule
    for i in range(events):
        schedule(i * dt, _noop)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.events_processed == events
    return wall


def test_kernel_dispatch_speedup(benchmark, bench_json):
    # Warm-up both kernels once (interpreter/alloc caches).
    dispatch_burst(True, events=2000)
    dispatch_burst(False, events=2000)

    # ``wall_seconds`` (what compare.py tracks across regenerations) is
    # the multi-round mean of the gated fast-path burst; the speedup
    # metrics divide best-of-N timings so one noisy round cannot move
    # a recorded ratio.
    benchmark.pedantic(
        dispatch_burst, kwargs={"fast": True}, rounds=TIMING_ROUNDS, iterations=1
    )
    fast_wall, slow_wall = best_pair(dispatch_burst)
    speedup = slow_wall / fast_wall

    steady_fast, steady_slow = best_pair(dispatch_steady)
    wide_fast, wide_slow = best_pair(dispatch_wide)
    steady_speedup = steady_slow / steady_fast
    wide_speedup = wide_slow / wide_fast

    bench_json(
        "kernel",
        events=DRAIN_EVENTS,
        fast_wall_seconds=round(fast_wall, 6),
        slow_wall_seconds=round(slow_wall, 6),
        speedup=round(speedup, 3),
        events_per_second_fast=round(DRAIN_EVENTS / fast_wall),
        events_per_second_slow=round(DRAIN_EVENTS / slow_wall),
        steady_speedup=round(steady_speedup, 3),
        wide_speedup=round(wide_speedup, 3),
    )
    print(
        f"\nkernel dispatch: burst fast={fast_wall:.3f}s slow={slow_wall:.3f}s "
        f"-> {speedup:.2f}x | steady {steady_speedup:.2f}x | "
        f"wide {wide_speedup:.2f}x\n"
    )

    for name, value in (
        ("burst", speedup), ("steady", steady_speedup), ("wide", wide_speedup)
    ):
        assert value >= MIN_SPEEDUP, (
            f"{name} dispatch only {value:.2f}x over the reference heap "
            f"kernel (need >= {MIN_SPEEDUP}x)"
        )
