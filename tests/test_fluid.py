"""Twin A/B tests for the flow-level transfer engine (net/fluid.py).

The model's proof obligation has two classes (see the module
docstring): where it claims **exactness** (a transfer alone on its
pipes) delivery times must equal the packet path bit-for-bit; where it
**approximates** (contended max-min fair sharing) completion times
must stay within the gated tolerance. Around those sit the seam
contracts: a mid-transfer tap attach de-fluidizes onto the packet
path, ``SimConfig(fluid=False)`` selects the packet path outright,
and split into ``fig10_cells`` cells the merged result is
byte-identical for every worker count.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.net.addr import IPv4Address
from repro.net.ipfw import ACTION_PIPE, DIR_IN, DIR_OUT
from repro.net.pipe import DummynetPipe
from repro.net.socket_api import Socket
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.sim import SimConfig, Simulator
from repro.sim.process import Process
from repro.units import kbps

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)

BLOCK = 16384

#: Contended-class tolerance (the fig8 gate from the issue).
TOLERANCE = 0.02


# ----------------------------------------------------------------------
# Topology helpers
# ----------------------------------------------------------------------
def _build_pair(sim, n=40, arrivals=None):
    """One bulk transfer a->b through an up (512 kbps) and a down
    (2048 kbps) pipe — the exactness class — built on ``sim`` but not
    run. Returns (arrivals, a, b); ``arrivals`` (a fresh list unless
    one is passed in) fills as blocks land."""
    switch = Switch(sim)
    a = NetworkStack(sim, "a", switch=switch)
    a.set_admin_address("192.168.38.1")
    b = NetworkStack(sim, "b", switch=switch)
    b.set_admin_address("192.168.38.2")
    a.add_address("10.0.0.1")
    b.add_address("10.0.0.2")
    a.fw.add_pipe(
        1, DummynetPipe(sim, bandwidth=kbps(512), delay=0.02, name="up")
    )
    a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.1"), direction=DIR_OUT)
    b.fw.add_pipe(
        1, DummynetPipe(sim, bandwidth=kbps(2048), delay=0.01, name="down")
    )
    b.fw.add(ACTION_PIPE, pipe=1, dst=IPv4Address("10.0.0.2"), direction=DIR_IN)

    if arrivals is None:
        arrivals = []

    def server():
        sock = Socket(b)
        sock.bind(("10.0.0.2", 5000))
        sock.listen()
        conn = yield sock.accept()
        got = 0
        while got < n:
            msg = yield conn.recv()
            if msg is None:
                break
            got += 1
            arrivals.append((sim.now, msg))
        conn.close()

    def client():
        sock = Socket(a)
        sock.bind(("10.0.0.1", 0))
        yield sock.connect(("10.0.0.2", 5000))
        for i in range(n):
            yield sock.send(("blk", i), BLOCK)
        sock.close()

    Process(sim, server())
    Process(sim, client(), start_delay=0.1)
    return arrivals, a, b


def _pair_sim(fluid, n=40, seed=5, config=None, on_build=None):
    """Run :func:`_build_pair` to completion. Returns
    (arrivals, end, events, sim)."""
    sim = Simulator(
        seed=seed, observe=True, config=config or SimConfig(fluid=fluid)
    )
    arrivals, a, b = _build_pair(sim, n)
    if on_build is not None:
        on_build(sim, a, b)
    sim.run()
    return tuple(arrivals), sim.now, sim.events_processed, sim


def _contended_sim(fluid, n=30, seed=5):
    """Two senders staggered onto one shared 1 Mbps download pipe —
    the contended (fair-share) class. Returns ({key: finish}, events)."""
    sim = Simulator(seed=seed, observe=True, config=SimConfig(fluid=fluid))
    switch = Switch(sim)
    stacks = []
    for i, name in enumerate(("s1", "s2", "dst")):
        st = NetworkStack(sim, name, switch=switch)
        st.set_admin_address(f"192.168.39.{i + 1}")
        st.add_address(f"10.0.1.{i + 1}")
        stacks.append(st)
    s1, s2, dst = stacks
    dst.fw.add_pipe(
        1, DummynetPipe(sim, bandwidth=kbps(1024), delay=0.01, name="down")
    )
    dst.fw.add(ACTION_PIPE, pipe=1, dst=IPv4Address("10.0.1.3"), direction=DIR_IN)

    finish = {}

    def server(port, key):
        sock = Socket(dst)
        sock.bind(("10.0.1.3", port))
        sock.listen()
        conn = yield sock.accept()
        got = 0
        while got < n:
            msg = yield conn.recv()
            if msg is None:
                break
            got += 1
        finish[key] = sim.now
        conn.close()

    def client(stack, ip, port):
        sock = Socket(stack)
        sock.bind((ip, 0))
        yield sock.connect(("10.0.1.3", port))
        for i in range(n):
            yield sock.send(("chunk", i), BLOCK)
        sock.close()

    Process(sim, server(5001, "a"))
    Process(sim, server(5002, "b"))
    Process(sim, client(s1, "10.0.1.1", 5001), start_delay=0.1)
    Process(sim, client(s2, "10.0.1.2", 5002), start_delay=0.9)
    sim.run()
    return finish, sim.events_processed


def _shaped_stack(sim, switch, name, admin, addrs, bw, delay, direction):
    """A stack whose ``addrs`` all share one ``bw`` kbps pipe in
    ``direction``. Returns (stack, pipe)."""
    st = NetworkStack(sim, name, switch=switch)
    st.set_admin_address(admin)
    pipe = DummynetPipe(sim, bandwidth=kbps(bw), delay=delay, name=name)
    st.fw.add_pipe(1, pipe)
    side = "src" if direction == DIR_OUT else "dst"
    for addr in addrs:
        st.add_address(addr)
        st.fw.add(
            ACTION_PIPE, pipe=1, direction=direction, **{side: IPv4Address(addr)}
        )
    return st, pipe


def _run_child(code, **env_overrides):
    """Run ``code`` in a fresh interpreter that can import ``repro``
    and ``tests`` (``PYTHONHASHSEED`` only takes effect at start-up).
    Returns its standard output."""
    env = dict(os.environ)
    env.update(env_overrides)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + str(
        pathlib.Path(__file__).resolve().parent.parent
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


# ----------------------------------------------------------------------
# Exactness class
# ----------------------------------------------------------------------
def test_exact_class_bit_identical():
    ap, endp, evp, _ = _pair_sim(False)
    af, endf, evf, simf = _pair_sim(True)
    assert ap == af
    assert endp == endf
    # The point of the engine: far fewer kernel events for the same
    # observable timeline.
    assert evf < evp / 3
    assert simf.metrics.get("net.fluid.segments").value >= 40


def test_contended_class_within_tolerance():
    fp, evp = _contended_sim(False)
    ff, evf = _contended_sim(True)
    assert set(fp) == set(ff) == {"a", "b"}
    for key in fp:
        dev = abs(ff[key] - fp[key]) / fp[key]
        assert dev <= TOLERANCE, (key, fp[key], ff[key], dev)
    assert evf < evp


# ----------------------------------------------------------------------
# Fair mode, bit for bit
# ----------------------------------------------------------------------
#: BLAKE2b of :func:`_golden_doc`, computed at the commit before the
#: agenda/epoch rewrite of ``net/fluid.py`` (PR 15). Fair mode is an
#: approximation of the packet path, but it is a *deterministic* one: a
#: change to the scheduler that is meant to be behaviour-neutral must
#: reproduce every delivery time, serializer claim and counter exactly.
GOLDEN_FAIR_DIGEST = "3ac7da902b1e73c83fcc9460b137195c"


def _golden_doc():
    """Six senders over two shared up pipes and two shared down pipes,
    two segment sizes, streaming (even) and request/response (odd)
    clients, a mid-run ``reconfigure(delay=)`` and
    ``reconfigure(bandwidth=)`` on shared pipes, a sender aborted
    mid-drain and a tap attach. Returns the full delivery log, every
    pipe's final ``_busy_until`` and the deterministic metrics."""
    sim = Simulator(seed=7, observe=True, config=SimConfig(fluid=True))
    switch = Switch(sim)
    shaped = [
        _shaped_stack(sim, switch, "tx0", "192.168.40.1",
                      ["10.0.2.1", "10.0.2.2", "10.0.2.3"], 1024, 0.02, DIR_OUT),
        _shaped_stack(sim, switch, "tx1", "192.168.40.2",
                      ["10.0.2.4", "10.0.2.5", "10.0.2.6"], 768, 0.015, DIR_OUT),
        _shaped_stack(sim, switch, "rx0", "192.168.40.3",
                      ["10.0.3.1"], 1536, 0.01, DIR_IN),
        _shaped_stack(sim, switch, "rx1", "192.168.40.4",
                      ["10.0.3.2"], 896, 0.012, DIR_IN),
    ]
    pipes = [pipe for _st, pipe in shaped]
    tx = [st for st, _pipe in shaped[:2]]
    rx = [st for st, _pipe in shaped[2:]]
    log = []
    socks = {}

    def server(k):
        sock = Socket(rx[k % 2])
        sock.bind((f"10.0.3.{k % 2 + 1}", 6000 + k))
        sock.listen()
        conn = yield sock.accept()
        while True:
            msg = yield conn.recv()
            if msg is None:
                break
            log.append((sim.now.hex(), k, msg[1]))
            if k % 2:
                conn.send(("req", msg[1]), 64)
        conn.close()

    def client(k):
        sock = socks[k] = Socket(tx[k // 3], window=65536)
        sock.bind((f"10.0.2.{k + 1}", 0))
        yield sock.connect((f"10.0.3.{k % 2 + 1}", 6000 + k))
        for i in range(24):
            if sock.closed:
                return
            yield sock.send(("blk", i), 40000 if i % 3 == 0 else BLOCK)
            # Odd clients wait for the receiver's next request (one
            # block in flight: two rate epochs per block, the swarm
            # regime); even ones stream against the window.
            if k % 2 and (yield sock.recv()) is None:
                return
        sock.close()

    for k in range(6):
        Process(sim, server(k))
        Process(sim, client(k), start_delay=0.1 + 0.3 * k)
    sim.schedule_at(3.0, lambda: pipes[2].reconfigure(delay=0.05))
    sim.schedule_at(5.0, lambda: pipes[0].reconfigure(bandwidth=kbps(700)))
    sim.schedule_at(7.0, lambda: socks[5].abort())
    sim.schedule_at(9.0, lambda: rx[1].add_tap(lambda pkt: None, DIR_IN))
    sim.run()
    assert sim.pending == 0 and sim.booked == 0
    return {
        "log": log,
        "pipes": {p.name: p._busy_until.hex() for p in pipes},
        "metrics": sim.metrics.snapshot(),
    }


def _golden_digest():
    blob = json.dumps(_golden_doc(), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def test_fair_mode_golden_digest():
    doc = _golden_doc()
    counts = {
        name: doc["metrics"][f"net.fluid.{name}"]["value"]
        for name in ("flows", "epochs", "demotions", "defluidized")
    }
    # The scenario must stay in the regime it pins: contended, many
    # epochs, both teardown paths taken, one sender cut short.
    assert counts == {
        "flows": 6, "epochs": 59, "demotions": 6, "defluidized": 2,
    }
    assert sum(1 for _t, k, _i in doc["log"] if k == 5) == 5
    code = "import tests.test_fluid as tf; print(tf._golden_digest())"
    for hashseed in ("1", "31337"):
        digest = _run_child(code, PYTHONHASHSEED=hashseed).strip()
        assert digest == GOLDEN_FAIR_DIGEST, hashseed


def _churn_sim(flows=24, blocks=8):
    """The regime a swarm keeps the engine in: ``flows`` fair flows
    over four shared up and four shared down pipes, each with one
    block in flight — a flow goes idle at every delivery and active
    again at the receiver's next request, two rate epochs per block.
    Built, not run. Returns (sim, counts) where ``counts`` tallies
    blocks sent and received."""
    sim = Simulator(seed=3, observe=True, config=SimConfig(fluid=True))
    switch = Switch(sim)
    per = flows // 4
    tx = [
        _shaped_stack(
            sim, switch, f"tx{g}", f"192.168.41.{g + 1}",
            [f"10.1.{g}.{i + 1}" for i in range(per)], 2048, 0.02, DIR_OUT,
        )[0]
        for g in range(4)
    ]
    rx = [
        _shaped_stack(
            sim, switch, f"rx{g}", f"192.168.41.{g + 5}",
            [f"10.2.{g}.{i + 1}" for i in range(per)], 3072, 0.01, DIR_IN,
        )[0]
        for g in range(4)
    ]
    counts = {"sent": 0, "received": 0}

    def server(stack, addr):
        sock = Socket(stack)
        sock.bind((addr, 7000))
        sock.listen()
        conn = yield sock.accept()
        for i in range(blocks):
            yield conn.recv()
            counts["received"] += 1
            conn.send(("req", i), 64)
        conn.close()

    def client(stack, addr, dst):
        sock = Socket(stack)
        sock.bind((addr, 0))
        yield sock.connect((dst, 7000))
        for i in range(blocks):
            counts["sent"] += 1
            yield sock.send(("blk", i), BLOCK)
            yield sock.recv()
        sock.close()

    for k in range(flows):
        g, i = k % 4, k // 4
        # Sender group g fans out over all four receiver groups.
        h = (g + i) % 4
        dst = f"10.2.{h}.{i + 1}"
        Process(sim, server(rx[h], dst))
        Process(sim, client(tx[g], f"10.1.{g}.{i + 1}", dst), start_delay=0.1 + 0.01 * k)
    return sim, counts


def test_agenda_holds_live_entries_only():
    """Regression: the agenda used to be lazily invalidated and every
    epoch re-pushed every active head, so it grew with the number of
    epochs (84 089 entries for ~180 live heads on the fig10-shape
    swarm). It holds one entry per undelivered segment at most."""
    flows, blocks = 24, 8
    sim, counts = _churn_sim(flows, blocks)
    fluid = sim.fluid
    epochs = sim.metrics.get("net.fluid.epochs")
    seen = 0
    while sim.pending:
        sim.run(until=sim.now + 0.02)
        in_flight = counts["sent"] - counts["received"]
        # Undelivered segments + flows with a head.
        assert fluid.agenda_size <= in_flight + min(in_flight, flows)
        seen += 1
    assert seen > 100 and counts["received"] == flows * blocks
    assert epochs.value >= 300
    assert fluid.agenda_size == 0 and sim.booked == 0
    # ... and never held more in between two looks either.
    peak = sim.metrics.get("net.fluid.agenda_peak")
    assert peak.wall and 0 < peak.peak <= 2 * flows
    assert "net.fluid.agenda_peak" not in sim.metrics.snapshot()


# ----------------------------------------------------------------------
# Hybridization seam
# ----------------------------------------------------------------------
def test_defluidize_on_tap_attach_mid_transfer():
    tapped = []

    def attach(sim, a, b):
        # Mid-transfer (the 40-block run spans ~13 s simulated), a
        # Sniffer lands on the sender: remaining bytes must leave the
        # fluid path and become observable packets.
        sim.schedule_at(
            5.0, lambda: a.add_tap(tapped.append, DIR_OUT)
        )

    af, _endf, _evf, simf = _pair_sim(True, on_build=attach)
    # Every block still arrives, exactly once, in order.
    assert [msg[0] for _, msg in af] == [("blk", i) for i in range(40)]
    assert simf.metrics.get("net.fluid.defluidized").value == 1
    # The killed flow's bookings were released, not leaked.
    assert simf.pending == 0 and simf.booked == 0
    # The tap saw the re-materialized bulk segments as real packets.
    assert sum(1 for pkt in tapped if pkt.size > BLOCK) > 0


def test_fluid_false_is_reference_path():
    ap, endp, evp, simp = _pair_sim(False, config=SimConfig())
    aoff, endoff, evoff, simoff = _pair_sim(False, config=SimConfig(fluid=False))
    assert simp.fluid is None and simoff.fluid is None
    assert ap == aoff
    assert endp == endoff
    assert evp == evoff


# ----------------------------------------------------------------------
# fig10_cells: cells as plan points
# ----------------------------------------------------------------------
def test_fluid_partitions_byte_identical():
    """``partitions`` stays a pure execution knob with the engine on:
    per-cell FlowSchedulers are cell-local, so the merged document is
    byte-identical across worker counts."""
    from repro.experiments.fig10_scalability import run_fig10_partitioned

    docs = []
    for partitions in (1, 2):
        _result, merged = run_fig10_partitioned(
            scale=0.004, seed=7, partitions=partitions, fluid=True
        )
        # The engine must actually have engaged inside every cell.
        assert all(
            cell["metrics"]["net.fluid.segments"]["value"] > 0
            for cell in merged.per_cell.values()
        ), merged.per_cell
        docs.append(json.dumps(merged.as_dict(), sort_keys=True))
    assert docs[0] == docs[1]


# ----------------------------------------------------------------------
# Reduced fig8 twin (the contended-tolerance gate, end to end)
# ----------------------------------------------------------------------
def test_fig8_reduced_twin_within_tolerance():
    from repro.experiments.fig8_download_evolution import run_fig8

    kw = dict(
        leechers=2, seeders=1, file_size=512 * 1024, stagger=2.0,
        num_pnodes=2, max_time=4000.0,
    )
    for seed in (0, 1, 2):
        rp = run_fig8(seed=seed, **kw)
        rf = run_fig8(seed=seed, fluid=True, **kw)
        dev = abs(rf.last_completion - rp.last_completion) / rp.last_completion
        assert dev <= TOLERANCE, (seed, rp.last_completion, rf.last_completion)


# ----------------------------------------------------------------------
# Queue depth: one ledger behind every reader
# ----------------------------------------------------------------------
def test_step_queue_depth_counts_fluid_held_segments():
    """Regression: ``step()`` and the telemetry probe used to compute
    queue depth by hand and forgot the segments the fluid engine holds;
    both now read ``sim.pending``."""
    from repro.obs import telemetry

    sim = Simulator(seed=5, observe=True, config=SimConfig(fluid=True))
    arrivals, _a, _b = _build_pair(sim)
    telemetry.clear_probes()
    label = telemetry.register_sim(sim, "pair")
    try:
        held = 0
        while len(arrivals) < 20 and sim.step():
            depth = sim.metrics.gauge("sim.kernel.queue_depth").value
            assert depth == sim.pending
            held = max(held, sim.booked)
        assert held > 0  # the engine really held segments outside the queue
        probe = next(
            s for s in telemetry.sample_probes() if s["label"] == "pair"
        )
        assert probe["queue_depth"] == sim.pending
    finally:
        telemetry.unregister_probe(label)
