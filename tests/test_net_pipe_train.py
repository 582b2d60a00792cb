"""Packet trains through a pipe under every kernel interaction.

A *train* here is what the word means on a wire: a back-to-back burst
of packets queued on one shaped pipe. ``DummynetPipe`` schedules one
kernel event per delivery, so a burst is the case where many of its
events are in flight at once. These tests pin what that has to look
like from outside, on the simulator and on the reference kernel of
``tests/reference/heap_kernel.py`` alike: delivery timelines,
``events_processed``, ``pending`` and the clock agree under horizons,
``stop()``, ``step()``, ``max_events`` budgets and mid-run
``reconfigure()``. The byte-identity digests (metrics + flight + trace
under two hash seeds) live in ``tests/test_hotpath.py``.

The last section drives the same kernel interactions through the one
consumer of the kernel's booked-delivery primitive (DESIGN.md, "Booked
deliveries"), an exact-class fluid flow, against its per-packet twin.
"""

import pytest

from repro.net.addr import ip
from repro.net.packet import Packet
from repro.net.pipe import DummynetPipe
from repro.sim import SimConfig
from repro.sim.kernel import Simulator
from tests.reference.heap_kernel import HeapKernel
from tests.test_fluid import _build_pair

SRC = ip("10.0.0.1")
DST = ip("10.0.0.2")


def _packet(size=1500, tag=None):
    return Packet(SRC, DST, "udp", size, payload=tag)


def _burst(pipe, n, size=1500, deliver=None):
    for i in range(n):
        pipe.transmit(_packet(size, tag=i), deliver)


def _run_twins(scenario):
    """Run ``scenario(sim, log)`` on the simulator and on the reference
    kernel and return both (log, sim) pairs. ``log`` records whatever
    the scenario appends — typically ``(sim.now, packet.payload)``."""
    results = []
    for sim in (Simulator(seed=1, observe=True), HeapKernel()):
        log = []
        scenario(sim, log)
        results.append((log, sim))
    return results


# ----------------------------------------------------------------------
# Simulator/reference twin equivalence under kernel interactions
# ----------------------------------------------------------------------
def _two_pipe_scenario(sim, log):
    """Two shaped pipes with interleaving arrival streams plus an
    unrelated timer."""
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
    (sim_log, sim), (ref_log, ref) = _run_twins(_two_pipe_scenario)
    assert sim_log == ref_log
    assert sim.events_processed == ref.events_processed
    assert sim.now == ref.now


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

    (sim_log, sim), (ref_log, ref) = _run_twins(scenario)
    assert sim_log == ref_log
    assert sim.events_processed == ref.events_processed
    marker = next(e for e in sim_log if e[0] == "pending")
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

    (sim_log, sim), (ref_log, ref) = _run_twins(scenario)
    assert sim_log == ref_log
    assert sim.events_processed == ref.events_processed
    marker = next(e for e in sim_log if e[0] == "stopped")
    assert marker[1] == 20  # stop() really interrupted the train


def test_max_events_budget_identical():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 30, deliver=lambda p: log.append((sim.now, p.payload)))
        sim.run(max_events=12)
        log.append(("budget", sim.pending, sim.now))
        sim.run()

    (sim_log, sim), (ref_log, ref) = _run_twins(scenario)
    assert sim_log == ref_log
    assert sim.events_processed == ref.events_processed
    marker = next(e for e in sim_log if e[0] == "budget")
    assert marker[1] == 18


def test_step_drains_one_delivery_at_a_time():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 10, deliver=lambda p: log.append((sim.now, p.payload)))
        while sim.step():
            log.append(("after-step", sim.pending))

    (sim_log, sim), (ref_log, ref) = _run_twins(scenario)
    assert sim_log == ref_log
    assert sim.events_processed == ref.events_processed == 10


def test_reconfigure_shrinking_delay_mid_burst_identical():
    """A reconfigure that shrinks the delay makes arrivals
    non-monotone: deliveries come in exact (time, priority, seq) order,
    not in send order."""

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

    (sim_log, sim), (ref_log, ref) = _run_twins(scenario)
    assert sim_log == ref_log
    assert sim.events_processed == ref.events_processed
    # The non-monotone arrivals really happened (deliveries reordered
    # relative to send order).
    tags = [tag for _, tag in sim_log]
    assert tags != sorted(tags)


def test_reconfigure_mid_run_train_twin_identical():
    """Reconfigure landing while a train is mid-flight *during* run():
    deliveries already scheduled keep their times, and post-change
    waves see the backlog the new bandwidth drains."""

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

    (sim_log, sim), (ref_log, ref) = _run_twins(scenario)
    assert sim_log == ref_log
    assert sim.events_processed == ref.events_processed
    assert sim.now == ref.now
    marker = next(e for e in sim_log if e[0] == "backlog")
    assert marker[1] > 0  # the reconfigure really caught a backlog


def test_pending_counts_in_flight_deliveries():
    sim = Simulator(seed=1)
    ref = HeapKernel()
    for s in (sim, ref):
        pipe = DummynetPipe(s, bandwidth=1e6, delay=0.05, name="p")
        _burst(pipe, 25, deliver=lambda p: None)
    assert sim.pending == ref.pending == 25
    sim.run()
    ref.run()
    assert sim.pending == ref.pending == 0


def test_queue_depth_gauge_matches_reference():
    """The gauge a run leaves behind is the reference's pending count."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 20, deliver=lambda p: None)
        for budget in (5, None):
            sim.run(max_events=budget)
            if isinstance(sim, Simulator):
                log.append(sim.metrics.gauge("sim.kernel.queue_depth").value)
            else:
                log.append(sim.pending)

    (sim_log, _), (ref_log, _) = _run_twins(scenario)
    assert sim_log == ref_log == [15, 0]


# ----------------------------------------------------------------------
# The booked-delivery contract, driven through its consumer
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

    sim = m.sim
    assert sim.pending == 0 and sim.booked == 0
    assert m.idle()
    # The Event free list pins nothing: recycled handles carry no payload.
    assert all(ev.callback is None and ev.args == () for ev in sim._queue._free)
