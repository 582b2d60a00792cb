"""Packet-train batching microbenchmark: batched pipes vs per-packet.

Pits ``SimConfig(fast=True)`` — where every shaped ``DummynetPipe``
coalesces back-to-back serialization events into packet-train events —
against ``SimConfig(fast=False)``, whose pipes schedule one kernel
event per delivery (the ``REPRO_SLOW_PATH`` reference twin).

The workload is the shape batching targets: per-pipe bursts, as when a
BitTorrent peer serializes a piece's worth of blocks down one access
link. Several pipes with staggered propagation delays each receive
waves of back-to-back packets; with distinct delays each pipe's train
drains as a contiguous block, exercising the inline-dispatch path (a
follower is delivered without ever touching the event queue when its
burned ``(time, priority, seq)`` key provably precedes the queue
head — see ``net/pipe.py``).

Both paths execute the identical schedule (asserted on delivery and
processed-event counts — trains fold their inline deliveries back into
``events_processed``). The recorded ``speedup`` is gated at **>= 1.0**
at full scale (batching must never lose) and by ``compare.py --gate``;
byte-identity of metrics/flight/trace is the job of the subprocess A/B
tests in ``tests/test_hotpath.py``, not this bench.

Every timing is the best of ``TIMING_ROUNDS`` runs (see
``bench_kernel.py`` on single-shot drift).

Scale: ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies the pipe
count — CI smoke runs use 0.1.
"""

import os
import time

from repro.net.packet import Packet
from repro.net.pipe import DummynetPipe
from repro.sim.config import SimConfig
from repro.sim.kernel import Simulator
from repro.net.addr import ip

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0") or "1.0")

#: Pipes with staggered delays; each receives WAVES bursts of BURST
#: back-to-back packets (BURST matches the train cap so one burst is
#: one maximal train).
N_PIPES = max(4, int(25 * SCALE))
BURST = 256
WAVES = 4
BANDWIDTH = 1e8  # bytes/s -> 15 us serialization per 1500 B packet
PACKET_BYTES = 1500

#: Gate: batching must never lose to the per-packet path.
MIN_SPEEDUP = 1.0

#: Each wall-clock number is the best of this many runs (noise floor).
TIMING_ROUNDS = 3

SRC = ip("10.0.0.1")
DST = ip("10.0.0.2")


def pipe_burst(fast: bool, pipes: int = N_PIPES, observe: bool = False):
    """Run the wave workload; returns (wall, delivered, events)."""
    sim = Simulator(seed=1, observe=observe, config=SimConfig(fast=fast))
    links = [
        DummynetPipe(
            sim, bandwidth=BANDWIDTH, delay=0.01 * (i + 1), name=f"p{i}"
        )
        for i in range(pipes)
    ]
    delivered = [0]

    def deliver(pkt: Packet) -> None:
        delivered[0] += 1

    def burst(pipe: DummynetPipe) -> None:
        transmit = pipe.transmit
        for _ in range(BURST):
            transmit(Packet(SRC, DST, "udp", PACKET_BYTES), deliver)

    for wave in range(WAVES):
        for link in links:
            sim.schedule_at(wave * 1.0, burst, link)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    expect = pipes * BURST * WAVES
    assert delivered[0] == expect, (delivered[0], expect)
    return wall, delivered[0], sim.events_processed


def best_of(fast: bool, rounds: int = TIMING_ROUNDS):
    runs = [pipe_burst(fast) for _ in range(rounds)]
    wall = min(r[0] for r in runs)
    return wall, runs[0][1], runs[0][2]


def test_pipe_train_speedup(benchmark, bench_json):
    # Warm-up both paths once (interpreter/alloc caches).
    pipe_burst(True, pipes=2)
    pipe_burst(False, pipes=2)

    benchmark.pedantic(
        pipe_burst, kwargs={"fast": True}, rounds=TIMING_ROUNDS, iterations=1
    )
    fast_wall, delivered, fast_events = best_of(True)
    slow_wall, _, slow_events = best_of(False)
    speedup = slow_wall / fast_wall

    # Trains are observationally invisible: inline deliveries fold back
    # into events_processed, so both paths report the same count.
    assert fast_events == slow_events, (fast_events, slow_events)

    # One observed (untimed) run for train telemetry: how much of the
    # delivery stream actually coalesced (wall-only counters — the
    # timed runs use observe=False and pay nothing for them).
    sim = Simulator(seed=1, observe=True, config=SimConfig(fast=True))
    link = DummynetPipe(sim, bandwidth=BANDWIDTH, delay=0.01, name="t")
    for _ in range(BURST):
        link.transmit(Packet(SRC, DST, "udp", PACKET_BYTES), lambda p: None)
    sim.run()
    coalesced = sim.metrics.get("net.pipe.train_coalesced").value
    trains = sim.metrics.get("net.pipe.trains").value

    bench_json(
        "pipe",
        packets=delivered,
        pipes=N_PIPES,
        fast_wall_seconds=round(fast_wall, 6),
        slow_wall_seconds=round(slow_wall, 6),
        speedup=round(speedup, 3),
        packets_per_second_fast=round(delivered / fast_wall),
        packets_per_second_slow=round(delivered / slow_wall),
        coalesced_fraction=round(coalesced / BURST, 3),
        trains=trains,
    )
    print(
        f"\npipe trains: fast={fast_wall:.3f}s slow={slow_wall:.3f}s "
        f"-> {speedup:.2f}x ({delivered} packets, {N_PIPES} pipes)\n"
    )

    if SCALE >= 1.0:
        assert speedup >= MIN_SPEEDUP, (
            f"batched pipe path only {speedup:.2f}x over per-packet "
            f"reference (need >= {MIN_SPEEDUP}x)"
        )
