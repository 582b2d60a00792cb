"""Packet-train batching: observational invisibility and bounds.

``DummynetPipe`` on the fast path coalesces back-to-back serialization
events into packet-train events (``net/pipe.py``). These tests pin the
contract down in-process: every delivery keeps the exact
``(time, priority, seq)`` identity the per-packet reference path would
have given it, so delivery timelines, ``events_processed``,
``pending`` and the clock agree with ``SimConfig(fast=False)`` under
every kernel interaction — horizons, ``stop()``, ``step()``,
``max_events`` budgets and mid-run ``reconfigure()``. The subprocess
A/B byte-identity proof (metrics + flight + trace under two hash
seeds) lives in ``tests/test_hotpath.py``.

Trains are one of two consumers of the kernel's booked-delivery
primitive (DESIGN.md, "Booked deliveries"); the last section drives
the same kernel interactions through both — a train and an exact-class
fluid flow — as one contract.
"""

import pytest

from repro.net import packet as packet_mod
from repro.net.addr import ip
from repro.net.packet import Packet
from repro.net.pipe import TRAIN_MAX_PACKETS, DummynetPipe
from repro.sim import SimConfig
from repro.sim.kernel import Simulator
from tests.test_fluid import _build_pair

SRC = ip("10.0.0.1")
DST = ip("10.0.0.2")


def _packet(size=1500, tag=None):
    return Packet(SRC, DST, "udp", size, payload=tag)


def _burst(pipe, n, size=1500, deliver=None):
    for i in range(n):
        pipe.transmit(_packet(size, tag=i), deliver)


def _run_twins(scenario):
    """Run ``scenario(sim, log)`` on a fast and a slow simulator and
    return both (log, sim) pairs. ``log`` records whatever the
    scenario appends — typically ``(sim.now, packet.payload)``."""
    results = []
    for fast in (True, False):
        sim = Simulator(seed=1, observe=True, config=SimConfig(fast=fast))
        log = []
        scenario(sim, log)
        results.append((log, sim))
    return results


def _trains(sim):
    return sim.metrics.get("net.pipe.trains").value


def _coalesced(sim):
    return sim.metrics.get("net.pipe.train_coalesced").value


# ----------------------------------------------------------------------
# Formation and bounds
# ----------------------------------------------------------------------
def test_back_to_back_burst_forms_one_train():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p")
    got = []
    _burst(pipe, 40, deliver=lambda p: got.append((sim.now, p.payload)))
    sim.run()
    assert [tag for _, tag in got] == list(range(40))
    assert _trains(sim) == 1
    assert _coalesced(sim) == 39
    assert sim.pending == 0 and sim.booked == 0


def test_train_bounded_by_bandwidth_delay_product():
    """Train bytes never exceed max(BDP, floor); overflow packets fall
    back to plain per-packet events (exact reference identity)."""
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    # BDP = 1e6 * 0.001 = 1 KB < 64 KiB floor -> cap is the floor.
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.001, name="p")
    assert pipe._train_cap == 64 * 1024
    got = []
    # 16 KiB packets: head + 3 followers fill the 64 KiB cap.
    _burst(pipe, 10, size=16 * 1024, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(10))
    assert _trains(sim) == 1
    assert _coalesced(sim) == 3  # 4 * 16 KiB == cap; the 5th overflows


def test_train_bounded_by_max_packets():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e9, delay=0.0, name="p")
    n = TRAIN_MAX_PACKETS + 50
    got = []
    _burst(pipe, n, size=64, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(n))
    assert _coalesced(sim) == TRAIN_MAX_PACKETS - 1  # head + 255 coalesced


def test_unshaped_pipe_never_batches():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=None, delay=0.01, name="p")
    got = []
    _burst(pipe, 20, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(20))
    assert _trains(sim) == 0 and _coalesced(sim) == 0


def test_batch_false_opts_out_on_fast_sim():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p", batch=False)
    got = []
    _burst(pipe, 20, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(20))
    assert _trains(sim) == 0 and _coalesced(sim) == 0


def test_slow_sim_never_batches_by_default():
    sim = Simulator(seed=1, config=SimConfig(fast=False))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p")
    _burst(pipe, 20, deliver=lambda p: None)
    sim.run()
    assert _trains(sim) == 0 and _coalesced(sim) == 0


# ----------------------------------------------------------------------
# Fast/slow twin equivalence under kernel interactions
# ----------------------------------------------------------------------
def _two_pipe_scenario(sim, log):
    """Two shaped pipes with interleaving arrival streams plus an
    unrelated timer — trains must re-materialise whenever another
    event precedes a follower."""
    a = DummynetPipe(sim, bandwidth=1e6, delay=0.010, name="a")
    b = DummynetPipe(sim, bandwidth=2e6, delay=0.011, name="b")

    def deliver(pkt):
        log.append((sim.now, pkt.payload))

    def tick(i):
        log.append((sim.now, f"tick{i}"))

    _burst(a, 30, deliver=deliver)
    for i in range(30):
        b.transmit(_packet(tag=100 + i), deliver)
    for i in range(5):
        sim.schedule(0.005 + i * 0.004, tick, i)
    sim.run()


def test_interleaved_pipes_timeline_identical():
    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(_two_pipe_scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    assert fast_sim.now == slow_sim.now
    assert _coalesced(fast_sim) > 0  # batching actually engaged


def test_horizon_splits_train_identically():
    """run(until=...) landing mid-train: the same deliveries happen on
    both paths, the rest stay pending, and a second run finishes them."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 50, deliver=lambda p: log.append((sim.now, p.payload)))
        # 1500 B @ 1e6 B/s = 1.5 ms each; horizon lands after ~20.
        sim.run(until=0.0307)
        log.append(("pending", sim.pending, sim.now))
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    marker = next(e for e in fast_log if e[0] == "pending")
    assert marker[1] == 30  # the horizon really split the burst


def test_stop_mid_train_identical():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))
            if pkt.payload == 9:
                sim.stop()

        _burst(pipe, 30, deliver=deliver)
        sim.run()
        log.append(("stopped", sim.pending, sim.now))
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    marker = next(e for e in fast_log if e[0] == "stopped")
    assert marker[1] == 20  # stop() really interrupted the train


def test_max_events_budget_identical():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 30, deliver=lambda p: log.append((sim.now, p.payload)))
        sim.run(max_events=12)
        log.append(("budget", sim.pending, sim.now))
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    marker = next(e for e in fast_log if e[0] == "budget")
    assert marker[1] == 18


def test_step_drains_one_delivery_at_a_time():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 10, deliver=lambda p: log.append((sim.now, p.payload)))
        while sim.step():
            log.append(("after-step", sim.pending))

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed == 10


def test_reconfigure_shrinking_delay_mid_burst_identical():
    """A reconfigure that shrinks the delay makes arrivals
    non-monotone; the batched path must fall back to plain events and
    still deliver in exact (time, priority, seq) order."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.5, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))

        def send(tag):
            pipe.transmit(_packet(tag=tag), deliver)

        for i in range(10):
            sim.schedule(i * 0.0001, send, i)
        # Shrink the delay while the burst is still arriving: packet 5+
        # can now arrive before earlier queued deliveries.
        sim.schedule(0.00045, pipe.reconfigure, None, 0.001)
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    # The non-monotone arrivals really happened (deliveries reordered
    # relative to send order).
    tags = [tag for _, tag in fast_log]
    assert tags != sorted(tags)


def test_reconfigure_flushes_live_train_accounting():
    """Regression: ``reconfigure()`` on a pipe with a live train must
    flush the coalesced followers back into real queue events *before*
    the new parameters apply — with the booked-delivery ledger
    zeroed, the flushed entries keeping their reference identities, and
    the train machinery re-arming for traffic sent after the change."""
    sim = Simulator(seed=1, observe=True, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p")
    got = []
    _burst(pipe, 20, deliver=lambda p: got.append((sim.now, p.payload)))
    # The burst formed one live train: head is a queue event, the 19
    # followers are deferred (pending work, not queue entries).
    assert _trains(sim) == 1
    assert sim.booked == 19
    assert sim.pending == 20

    pipe.reconfigure(2e6, 0.01)
    # Flush: every follower is a real queue event again, nothing lost.
    assert sim.booked == 0
    assert sim.pending == 20

    sim.run()
    assert [tag for _, tag in got] == list(range(20))
    assert sim.pending == 0 and sim.booked == 0

    # The machinery re-arms: a post-reconfigure burst coalesces again,
    # at the new rate.
    before = _trains(sim)
    _burst(pipe, 10, deliver=lambda p: got.append((sim.now, p.payload)))
    assert sim.booked == 9
    sim.run()
    assert _trains(sim) == before + 1
    assert [tag for _, tag in got[20:]] == list(range(10))
    assert sim.booked == 0


def test_reconfigure_mid_run_train_twin_identical():
    """Reconfigure landing while a train is mid-flight *during* run():
    flushed deliveries and post-change waves stay byte-identical to the
    reference path, including the backlog the new bandwidth drains."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.02, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))

        _burst(pipe, 30, deliver=deliver)
        # 1.5 ms serialization each: the reconfigure lands after ~7
        # transmissions with the train still live.
        sim.schedule(0.011, pipe.reconfigure, 4e6, 0.005)
        sim.schedule(
            0.011,
            lambda: log.append(
                ("backlog", round(pipe._busy_until - sim.now, 9))
            ),
        )
        # A second wave rides the reconfigured pipe.
        sim.schedule(0.2, _burst, pipe, 10, 1500, deliver)
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    assert fast_sim.now == slow_sim.now
    marker = next(e for e in fast_log if e[0] == "backlog")
    assert marker[1] > 0  # the reconfigure really caught a backlog
    assert _coalesced(fast_sim) > 0


def test_pending_counts_coalesced_deliveries():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    slow = Simulator(seed=1, config=SimConfig(fast=False))
    for s in (sim, slow):
        pipe = DummynetPipe(s, bandwidth=1e6, delay=0.05, name="p")
        _burst(pipe, 25, deliver=lambda p: None)
    assert sim.pending == slow.pending == 25
    sim.run()
    slow.run()
    assert sim.pending == slow.pending == 0


def test_queue_depth_gauge_matches_reference():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 20, deliver=lambda p: None)
        sim.run(max_events=5)
        log.append(sim.metrics.gauge("sim.kernel.queue_depth").value)
        sim.run()
        log.append(sim.metrics.gauge("sim.kernel.queue_depth").value)

    (fast_log, _), (slow_log, _) = _run_twins(scenario)
    assert fast_log == slow_log == [15, 0]


def test_wave_bursts_reuse_the_train_machinery():
    """Trains drain fully between waves and form again (the live flag
    resets); delivery order stays exact across waves."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e7, delay=0.002, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))

        def wave(base):
            for i in range(15):
                pipe.transmit(_packet(tag=base + i), deliver)

        for w in range(4):
            sim.schedule(w * 1.0, wave, w * 100)
        sim.run()

    (fast_log, fast_sim), (slow_log, _) = _run_twins(scenario)
    assert fast_log == slow_log
    assert _trains(fast_sim) == 4
    assert _coalesced(fast_sim) == 4 * 14


# ----------------------------------------------------------------------
# The booked-delivery contract, driven through both consumers
# ----------------------------------------------------------------------
class _Log(list):
    """Arrival log; tells the running case how many arrivals landed."""

    on_arrival = None
    arrived = 0

    def append(self, item):
        super().append(item)
        if item[0] != "mark":
            self.arrived += 1
            if self.on_arrival is not None:
                self.on_arrival(self.arrived)


class _Model:
    """A built (not yet run) workload plus what a case may poke at."""

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def mark(self):
        self.log.append(("mark", self.sim.pending, self.sim.now))


def _train_model(m):
    """Two shaped pipes whose streams interleave with each other and
    with unrelated timers, so followers both dispatch inline and
    materialise."""
    sim, log = m.sim, m.log
    a = DummynetPipe(sim, bandwidth=1e6, delay=0.010, name="a")
    b = DummynetPipe(sim, bandwidth=2e6, delay=0.011, name="b")

    def deliver(pkt):
        log.append((sim.now, pkt.payload))

    _burst(a, 30, deliver=deliver)
    for i in range(30):
        b.transmit(_packet(tag=100 + i), deliver)
    for i in range(5):
        sim.schedule(0.005 + i * 0.004, log.append, (f"tick{i}",))
    m.mid = 0.03
    m.perturb = lambda: a.reconfigure(4e6, 0.005)
    m.idle = lambda: not (a._train or b._train or a._train_live or b._train_live)
    m.engaged = lambda: _coalesced(sim) > 0


def _fluid_model(m):
    """The exactness class: one bulk flow alone on its pipes."""
    sim = m.sim
    _arrivals, a, _b = _build_pair(sim, n=12, arrivals=m.log)
    m.mid = 1.7
    m.perturb = lambda: a.fw.pipe(1).reconfigure(bandwidth=1e5, delay=0.03)
    fluid = sim.fluid
    m.idle = lambda: fluid is None or (
        fluid.agenda_size == 0
        and fluid._event is None
        and not any(f.queue for f in fluid._flows.values())
    )
    m.engaged = lambda: fluid is not None and fluid._m_segments.value > 0


#: consumer -> (model builder, booked config, per-packet config)
_CONSUMERS = {
    "train": (_train_model, dict(fast=True), dict(fast=False)),
    "fluid": (_fluid_model, dict(fluid=True), dict(fluid=False)),
}


def _case_run(m):
    m.sim.run()


def _case_until(m):
    m.sim.run(until=m.mid)
    m.mark()
    m.sim.run()


def _case_max_events(m):
    m.sim.run(max_events=25)
    m.mark()
    m.sim.run()


def _case_step(m):
    while m.sim.step():
        m.mark()


def _case_stop(m):
    m.log.on_arrival = lambda k: k == 7 and m.sim.stop()
    m.sim.run()
    m.mark()
    m.sim.run()


def _case_perturb(m):
    m.sim.schedule_at(m.mid, m.perturb)
    m.sim.run()


_CASES = {
    "run": (_case_run, {}),
    "until": (_case_until, {}),
    "max_events": (_case_max_events, {}),
    "step": (_case_step, {}),
    "stop": (_case_stop, {}),
    "profiler": (_case_run, dict(profiler=True)),
    "perturb": (_case_perturb, {}),
}


def _drive(consumer, case, booked):
    build, booked_cfg, packet_cfg = _CONSUMERS[consumer]
    drive, case_cfg = _CASES[case]
    cfg = SimConfig(**(booked_cfg if booked else packet_cfg), **case_cfg)
    m = _Model(Simulator(seed=1, observe=True, config=cfg), _Log())
    build(m)
    drive(m)
    return m


@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_booked_delivery_contract(consumer, case):
    """Whatever the kernel interaction, a consumer of booked deliveries
    serves the per-packet path's timeline and leaves nothing behind."""
    m = _drive(consumer, case, booked=True)
    ref = _drive(consumer, case, booked=False)
    assert m.engaged() and not ref.engaged()

    arrivals = [e for e in m.log if e[0] != "mark"]
    assert arrivals and arrivals == [e for e in ref.log if e[0] != "mark"]
    assert m.sim.now == ref.sim.now
    if consumer == "train":
        # A follower is one reference event: checkpoints land between
        # the same deliveries and see the same pending count.
        assert m.log == ref.log
        assert m.sim.events_processed == ref.sim.events_processed

    sim = m.sim
    assert sim.pending == 0 and sim.booked == 0
    assert m.idle()
    # Pools pin nothing: recycled handles carry no payload.
    assert all(ev.callback is None and ev.args == () for ev in sim._queue._free)
    assert all(
        p.payload is None and p.on_drop is None and p.flow is None
        for p in packet_mod._pool
    )
