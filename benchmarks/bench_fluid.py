"""Fluid-flow engine benchmark: steady-state bulk storm, fluid vs packet.

The workload is the regime :mod:`repro.net.fluid` targets: long-lived
bulk TCP transfers saturating shared access links. ``PAIRS``
connections between two stacks all traverse a chained two-pipe uplink
(access + ISP shaping, the classic dual-``ACTION_PIPE`` dummynet
configuration) and a chained two-pipe downlink, each pushing ``MSGS``
blocks of 16 KiB back to back — on the packet path that is a per-hop
kernel event per segment; on the fluid path the flows demote to the
max-min rate model and the whole storm advances by rate epochs plus
(mostly inline) delivery dispatch, with per-segment cost independent
of the hop count.

Three gated metrics (``compare.py --gate``, asserted here at full scale):

* ``events_ratio`` — packet-path ``events_processed`` over fluid-path
  ``events_processed`` on the storm (>= 10x: the point of the model is
  to collapse the per-packet event stream);
* ``speedup`` — packet wall over fluid wall, best of ``TIMING_ROUNDS``
  runs each (>= 2x; the packet path it is measured against costs a
  quarter less since it stopped building packet trains and closures);
* ``churn_epochs_per_s`` — rate epochs per wall second on the *churn*
  case. The storm keeps eight deep queues and sees a few hundred
  events; a swarm does the opposite — many fair flows with one block
  in flight each, idle at every delivery and active again at the next
  request, two epochs per block — and that is where the scheduler's
  own bookkeeping (agenda upkeep, per-epoch re-derivation) shows. The
  case also records ``agenda_peak`` and asserts, at every scale, that
  the agenda never holds more than one entry per block in flight.

A single uncontended pair is also run both ways and its delivery times
asserted **bit-identical** — the exactness class of the model's proof
obligation (the full twin matrix lives in ``tests/test_fluid.py``;
this is the cheap always-on anchor).

Scale: ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies the pair
and block counts — CI smoke runs use 0.1 (gates are asserted only at
full scale, but compare.py records whatever was measured).
"""

import os
import time

from repro.net.addr import IPv4Address
from repro.net.ipfw import ACTION_PIPE, DIR_IN, DIR_OUT
from repro.net.pipe import DummynetPipe
from repro.net.socket_api import Socket
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.sim import Simulator
from repro.sim.config import SimConfig
from repro.sim.process import Process
from repro.units import kbps, mbps

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0") or "1.0")

#: Concurrent bulk transfers sharing the shaped pipes; floored (like
#: bench_dist's swarm scale) so even CI smoke runs keep enough
#: steady-state work for the gated ratios to mean something.
PAIRS = max(4, int(8 * SCALE))
#: 16 KiB blocks per transfer.
MSGS = max(200, int(600 * SCALE))
BLOCK = 16384

#: Gates (full scale): the fluid path must collapse the event stream
#: and convert that into wall-clock.
MIN_EVENTS_RATIO = 10.0
MIN_SPEEDUP = 2.0

#: Churn case: fair flows with one block in flight each (the fig10-shape
#: swarm keeps ~180 heads live), and blocks per flow.
CHURN_FLOWS = max(24, int(160 * SCALE)) // 4 * 4
CHURN_BLOCKS = max(6, int(12 * SCALE))
#: Floor on the churn case's epochs per wall second (full scale reads
#: ~3000 on the reference box; the lazily-invalidated agenda read 1590).
#: An epoch costs O(active flows), so smaller scales only read higher.
MIN_CHURN_EPOCHS_PER_S = 2000.0

#: Each wall-clock number is the best of this many runs (see
#: bench_kernel.py on single-shot drift).
TIMING_ROUNDS = 3


def storm(fluid: bool, pairs: int = PAIRS, msgs: int = MSGS):
    """The shared-pipe bulk storm; returns (wall, delivered, events, end)."""
    sim = Simulator(seed=11, config=SimConfig(fluid=fluid))
    switch = Switch(sim)
    tx = NetworkStack(sim, "tx", switch=switch)
    tx.set_admin_address("192.168.77.1")
    rx = NetworkStack(sim, "rx", switch=switch)
    rx.set_admin_address("192.168.77.2")
    tx.add_address("10.7.0.1")
    rx.add_address("10.7.0.2")
    tx.fw.add_pipe(
        1, DummynetPipe(sim, bandwidth=mbps(8), delay=0.02, name="up")
    )
    tx.fw.add_pipe(
        2, DummynetPipe(sim, bandwidth=mbps(24), delay=0.005, name="isp")
    )
    tx.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.7.0.1"), direction=DIR_OUT)
    tx.fw.add(ACTION_PIPE, pipe=2, src=IPv4Address("10.7.0.1"), direction=DIR_OUT)
    rx.fw.add_pipe(
        1, DummynetPipe(sim, bandwidth=mbps(16), delay=0.01, name="down")
    )
    rx.fw.add_pipe(
        2, DummynetPipe(sim, bandwidth=mbps(32), delay=0.005, name="lan")
    )
    rx.fw.add(ACTION_PIPE, pipe=1, dst=IPv4Address("10.7.0.2"), direction=DIR_IN)
    rx.fw.add(ACTION_PIPE, pipe=2, dst=IPv4Address("10.7.0.2"), direction=DIR_IN)

    delivered = [0]

    def server(port: int):
        sock = Socket(rx)
        sock.bind(("10.7.0.2", port))
        sock.listen()
        conn = yield sock.accept()
        got = 0
        while got < msgs:
            msg = yield conn.recv()
            if msg is None:
                break
            got += 1
            delivered[0] += 1
        conn.close()

    def client(port: int):
        sock = Socket(tx)
        sock.bind(("10.7.0.1", 0))
        yield sock.connect(("10.7.0.2", port))
        for i in range(msgs):
            yield sock.send(("blk", i), BLOCK)
        sock.close()

    for k in range(pairs):
        Process(sim, server(5000 + k))
        Process(sim, client(5000 + k), start_delay=0.01 * (k + 1))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    expect = pairs * msgs
    assert delivered[0] == expect, (delivered[0], expect)
    return wall, delivered[0], sim.events_processed, sim.now


def churn(flows: int = CHURN_FLOWS, blocks: int = CHURN_BLOCKS):
    """``flows`` request/response transfers over four shared uplinks and
    four shared downlinks, one 16 KiB block in flight each; returns
    (wall, epochs, agenda_peak)."""
    sim = Simulator(seed=13, observe=True, config=SimConfig(fluid=True))
    switch = Switch(sim)
    per = flows // 4

    def group(name: str, net: int, g: int, bw: float, delay: float, direction):
        st = NetworkStack(sim, f"{name}{g}", switch=switch)
        st.set_admin_address(f"192.168.79.{net * 4 + g + 1}")
        st.fw.add_pipe(1, DummynetPipe(sim, bandwidth=bw, delay=delay, name=st.name))
        side = "src" if direction == DIR_OUT else "dst"
        for i in range(per):
            addr = f"10.{9 + net}.{g}.{i + 1}"
            st.add_address(addr)
            st.fw.add(
                ACTION_PIPE, pipe=1, direction=direction, **{side: IPv4Address(addr)}
            )
        return st

    tx = [group("ctx", 0, g, mbps(8), 0.02, DIR_OUT) for g in range(4)]
    rx = [group("crx", 1, g, mbps(12), 0.01, DIR_IN) for g in range(4)]
    received = [0]

    def server(stack, addr: str):
        sock = Socket(stack)
        sock.bind((addr, 7000))
        sock.listen()
        conn = yield sock.accept()
        for i in range(blocks):
            yield conn.recv()
            received[0] += 1
            conn.send(("req", i), 64)
        conn.close()

    def client(stack, addr: str, dst: str):
        sock = Socket(stack)
        sock.bind((addr, 0))
        yield sock.connect((dst, 7000))
        for i in range(blocks):
            yield sock.send(("blk", i), BLOCK)
            yield sock.recv()
        sock.close()

    for k in range(flows):
        g, i = k % 4, k // 4
        h = (g + i) % 4  # every uplink fans out over all four downlinks
        dst = f"10.10.{h}.{i + 1}"
        Process(sim, server(rx[h], dst))
        Process(sim, client(tx[g], f"10.9.{g}.{i + 1}", dst), start_delay=0.01 * (k + 1))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert received[0] == flows * blocks, (received[0], flows * blocks)
    assert sim.fluid.agenda_size == 0 and sim.booked == 0
    epochs = sim.metrics.get("net.fluid.epochs").value
    peak = int(sim.metrics.get("net.fluid.agenda_peak").peak)
    return wall, epochs, peak


def exact_pair(fluid: bool, msgs: int = 50):
    """One uncontended transfer — the exactness class. Returns
    (arrival-times tuple, end time, events)."""
    sim = Simulator(seed=5, config=SimConfig(fluid=fluid))
    switch = Switch(sim)
    a = NetworkStack(sim, "a", switch=switch)
    a.set_admin_address("192.168.78.1")
    b = NetworkStack(sim, "b", switch=switch)
    b.set_admin_address("192.168.78.2")
    a.add_address("10.8.0.1")
    b.add_address("10.8.0.2")
    a.fw.add_pipe(
        1, DummynetPipe(sim, bandwidth=kbps(512), delay=0.02, name="up")
    )
    a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.8.0.1"), direction=DIR_OUT)
    b.fw.add_pipe(
        1, DummynetPipe(sim, bandwidth=kbps(2048), delay=0.01, name="down")
    )
    b.fw.add(ACTION_PIPE, pipe=1, dst=IPv4Address("10.8.0.2"), direction=DIR_IN)

    arrivals = []

    def server():
        sock = Socket(b)
        sock.bind(("10.8.0.2", 5000))
        sock.listen()
        conn = yield sock.accept()
        got = 0
        while got < msgs:
            msg = yield conn.recv()
            if msg is None:
                break
            got += 1
            arrivals.append(sim.now)
        conn.close()

    def client():
        sock = Socket(a)
        sock.bind(("10.8.0.1", 0))
        yield sock.connect(("10.8.0.2", 5000))
        for i in range(msgs):
            yield sock.send(("blk", i), BLOCK)
        sock.close()

    Process(sim, server())
    Process(sim, client(), start_delay=0.1)
    sim.run()
    return tuple(arrivals), sim.now, sim.events_processed


def best_of(fluid: bool, rounds: int = TIMING_ROUNDS):
    runs = [storm(fluid) for _ in range(rounds)]
    wall = min(r[0] for r in runs)
    return wall, runs[0][1], runs[0][2], runs[0][3]


def test_fluid_storm_speedup(benchmark, bench_json):
    # Warm-up both paths (interpreter/alloc caches).
    storm(True, pairs=2, msgs=10)
    storm(False, pairs=2, msgs=10)

    # Exactness anchor: sole occupancy must be bit-identical.
    ap, endp, evp = exact_pair(False)
    af, endf, evf = exact_pair(True)
    assert ap == af and endp == endf, (
        "fluid exactness class diverged from the packet path"
    )
    exact_ratio = evp / max(evf, 1)

    benchmark.pedantic(
        storm, kwargs={"fluid": True}, rounds=TIMING_ROUNDS, iterations=1
    )
    fluid_wall, delivered, fluid_events, fluid_end = best_of(True)
    packet_wall, _, packet_events, packet_end = best_of(False)
    speedup = packet_wall / fluid_wall
    events_ratio = packet_events / max(fluid_events, 1)
    end_dev = abs(fluid_end - packet_end) / packet_end

    churn_runs = [churn() for _ in range(TIMING_ROUNDS)]
    churn_wall = min(r[0] for r in churn_runs)
    _, churn_epochs, agenda_peak = churn_runs[0]
    churn_epochs_per_s = churn_epochs / churn_wall
    # Live entries only: one per block in flight, whatever the scale
    # and however many epochs re-keyed the heads.
    assert agenda_peak <= CHURN_FLOWS, (agenda_peak, CHURN_FLOWS)
    assert churn_epochs >= CHURN_FLOWS * CHURN_BLOCKS, churn_epochs

    bench_json(
        "fluid",
        pairs=PAIRS,
        blocks=delivered,
        packet_wall_seconds=round(packet_wall, 6),
        fluid_wall_seconds=round(fluid_wall, 6),
        speedup=round(speedup, 3),
        packet_events=packet_events,
        fluid_events=fluid_events,
        events_ratio=round(events_ratio, 3),
        exact_pair_events_ratio=round(exact_ratio, 3),
        storm_end_deviation=round(end_dev, 6),
        churn_flows=CHURN_FLOWS,
        churn_epochs=churn_epochs,
        churn_wall_seconds=round(churn_wall, 6),
        churn_epochs_per_s=round(churn_epochs_per_s, 1),
        agenda_peak=agenda_peak,
    )
    print(
        f"\nfluid storm: packet={packet_wall:.3f}s fluid={fluid_wall:.3f}s "
        f"-> {speedup:.2f}x wall, {events_ratio:.1f}x events "
        f"({delivered} blocks, {PAIRS} pairs, end dev {end_dev * 100:.2f}%)\n"
        f"fluid churn: {churn_epochs} epochs over {CHURN_FLOWS} flows in "
        f"{churn_wall:.3f}s -> {churn_epochs_per_s:.0f} epochs/s, "
        f"agenda peak {agenda_peak}\n"
    )

    if SCALE >= 1.0:
        assert events_ratio >= MIN_EVENTS_RATIO, (
            f"fluid path only collapsed events {events_ratio:.1f}x "
            f"(need >= {MIN_EVENTS_RATIO}x)"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"fluid path only {speedup:.2f}x over the packet path "
            f"(need >= {MIN_SPEEDUP}x)"
        )
        assert churn_epochs_per_s >= MIN_CHURN_EPOCHS_PER_S, (
            f"churn case only {churn_epochs_per_s:.0f} epochs/s "
            f"(need >= {MIN_CHURN_EPOCHS_PER_S})"
        )
