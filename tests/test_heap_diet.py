"""Idle connections and cached flows must cost (almost) nothing.

The heap of a paper-scale run is per *connection* and per *flow*, not
per vnode, so this file pins what those retain — and that the
containers which make them small (queues that exist only while they
hold something, one verdict object per matched-rule set, a per-port use
count) behave exactly like the always-allocated ones they replaced.
"""

import contextlib
import gc
import random
import tracemalloc
from types import CellType, FunctionType, MethodType

import pytest

from repro.bittorrent import messages as msg
from repro.bittorrent.client import BitTorrentClient
from repro.bittorrent.metainfo import Torrent
from repro.bittorrent.peer import PeerConnection
from repro.errors import SimulationError
from repro.net import tcp
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import (
    ACTION_ALLOW,
    ACTION_COUNT,
    ACTION_DENY,
    ACTION_PIPE,
    DIR_IN,
    DIR_OUT,
    Firewall,
)
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.ping import ping
from repro.net.pipe import DummynetPipe
from repro.net.socket_api import Socket
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.net.tcp import Connection, Listener, TcpLayer
from repro.sim import Channel, Simulator
from repro.sim.process import Process
from repro.topology import TopologySpec, compile_topology
from repro.topology.presets import uniform_swarm
from repro.units import KB, MB, kbps, ms
from repro.virt import Testbed
from tests.reference.rule_walk import RuleWalk
from tests.test_bt_peer import make_pair


def make_lan(seed=5):
    sim = Simulator(seed=seed, observe=False)
    switch = Switch(sim)
    a = NetworkStack(sim, "a", switch=switch)
    a.set_admin_address("192.168.38.1")
    b = NetworkStack(sim, "b", switch=switch)
    b.set_admin_address("192.168.38.2")
    return sim, a, b


def connect_pairs(sim, a, b, n, port=5000):
    """``n`` established connections a -> b:``port``; returns
    (client ends, server ends)."""
    listener = b.tcp.listen((b.iface.primary, port), backlog=n)
    servers = []
    listener.accept_channel.subscribe(servers.append)
    clients = []
    for _ in range(n):
        local = (a.iface.primary, a.tcp.alloc_ephemeral_port(a.iface.primary))
        clients.append(a.tcp.connect(local, (b.iface.primary, port))[0])
    sim.run()
    assert len(servers) == n
    assert all(c.state is Connection.ESTABLISHED for c in clients + servers)
    return clients, servers


# -- budgets ---------------------------------------------------------------


def test_idle_connection_pair_stays_under_memory_budget():
    """2 000 established, idle pairs between two stacks: both
    endpoints, their receive channels and the demux entries together
    retain at most 3.5 KB per pair (7.4 KB before the queues were
    allocated on first use)."""
    pairs = 2000
    sim, a, b = make_lan()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clients, servers = connect_pairs(sim, a, b, pairs)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_pair = (after - before) / pairs
    assert per_pair <= 3500, f"an idle connection pair retains {per_pair:.0f} B"
    # Idle means idle: nothing was ever queued on either side.
    for conn in clients + servers:
        assert conn._send_queue is None and conn._reorder is None
        assert len(conn.recv_channel) == 0


def test_established_connection_pair_stays_under_byte_budget():
    """2 000 established pairs, each end handed to its owner as a bare
    :class:`Connection`: an end owns no receive channel until something
    reads one, its demux key is one int and an accepted end shares its
    listener's address tuple. At most 1 250 B per pair (1 128 B on
    CPython 3.11; 1 392 B with a channel per end, a 4-tuple key and a
    fresh local tuple per accepted end)."""
    pairs = 2000
    sim, a, b = make_lan()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clients, servers = connect_pairs(sim, a, b, pairs)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_pair = (after - before) / pairs
    assert per_pair <= 1250, f"an established connection pair retains {per_pair:.0f} B"
    listener = b.tcp._listeners[(b.iface.primary.value, 5000)]
    for conn in clients + servers:
        assert conn._channel is None and conn._receiver is None
    assert all(conn.local is listener.local for conn in servers)


def test_a_peer_side_holds_its_connection_and_no_socket():
    """Both sides of a leecher/seeder pair, mid-transfer: each holds its
    :class:`Connection`, whose receiver is the side itself (no bound
    method, no channel), and no :class:`Socket` is reachable from it.
    The leecher's connect socket died with its connector's frame, and
    the seeder's accepted one once the accept loop handed it over: only
    the listening sockets are left."""
    testbed = Testbed(num_pnodes=2, seed=6)
    compiler = compile_topology(uniform_swarm(2, prefix="10.0.0.0/24"), testbed)
    va, vb = compiler.all_vnodes()
    torrent = Torrent("t", total_size=512 * KB, piece_length=64 * KB,
                      block_size=16 * KB, tracker_addr=None)
    leecher = BitTorrentClient(va, torrent)
    seeder = BitTorrentClient(vb, torrent, seeder=True)
    leecher.start()
    seeder.start()
    leecher.add_candidates([(vb.address, seeder.config.listen_port)])
    testbed.sim.run(until=25.0)
    (down,), (up,) = leecher.peers(), seeder.peers()
    assert down._inflight  # mid-transfer
    for side in (down, up):
        conn = side.sock
        assert type(conn) is Connection and conn.state is Connection.ESTABLISHED
        assert conn._receiver is side and conn._channel is None
        for obj in gc.get_referents(side) + gc.get_referents(conn):
            assert not isinstance(obj, (Socket, Channel, MethodType)), obj
    gc.collect()
    alive = [obj for obj in gc.get_objects() if type(obj) is Socket]
    assert [sock for sock in alive if sock.stack is va.pnode.stack] == [leecher._listen_sock]
    assert [sock for sock in alive if sock.stack is vb.pnode.stack] == [seeder._listen_sock]


def test_the_accept_loop_keeps_no_accepted_socket():
    """A client's listener process, parked on the next accept, holds
    its listening socket and no accepted one."""
    testbed, leecher, seeder = make_pair()
    testbed.sim.run(until=10.0)
    (up,) = seeder.peers()
    assert up.handshaked
    (listener,) = [p for p in seeder.vnode.processes if p.name.endswith("/listen")]
    frame = listener.gen.gi_frame
    assert frame is not None  # parked in accept, not finished
    sockets = [v for v in frame.f_locals.values() if isinstance(v, Socket)]
    assert sockets == [seeder._listen_sock]


def test_cached_flow_stays_under_memory_budget_when_rule_sets_are_shared():
    """20 000 flows that match one of 8 rule sets: a flow costs its
    key and a dict slot (at most 250 B; 375 B when each owned a
    Verdict and three tuples)."""
    flows, senders = 20_000, 8
    sim = Simulator(seed=0, observe=False)
    fw = Firewall()
    for i in range(senders):
        fw.add(
            ACTION_PIPE,
            pipe=DummynetPipe(sim, delay=ms(1), name=f"up{i}"),
            src=IPv4Address((10 << 24) + i),
            direction=DIR_OUT,
        )
    packets = [
        Packet(
            IPv4Address((10 << 24) + j % senders),
            IPv4Address((11 << 24) + j),
            PROTO_TCP,
            1500,
        )
        for j in range(flows)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for packet in packets:
            fw.evaluate(packet, DIR_OUT)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stats = fw.stats()
    assert stats["flow_cache_entries"] == flows
    assert stats["flow_cache_verdicts"] == senders
    per_flow = (after - before) / flows
    assert per_flow <= 250, f"a cached flow retains {per_flow:.0f} B"


def test_cached_flow_with_its_own_rule_set_stays_under_byte_budget():
    """4 000 flows on one firewall: each of 2 000 vnodes sends one out
    through its up rule and receives one in through its down rule, so
    no two flows share a verdict. A flow costs an int key, a dict slot and
    its own verdict: at most 450 B (324 B on CPython 3.11; 1 010 B with
    a 4-tuple key, a ``(Verdict, rules)`` pair, separate
    ``pipes``/``matched`` tuples and a match closure per rule)."""
    vnodes = 2_000
    sim = Simulator(seed=0, observe=False)
    fw = Firewall()
    for i in range(vnodes):
        fw.add_access_pair(
            IPv4Address((10 << 24) + i), 1_000 + 2 * i,
            up_factory=lambda rule: DummynetPipe(sim, delay=ms(1)),
            down_factory=lambda rule: DummynetPipe(sim, delay=ms(1)),
        )
    for rule in fw.rules:  # build every pair, then every pipe
        fw.materialize(rule)
    outside = IPv4Address("172.16.0.1")
    packets = [
        (Packet(IPv4Address((10 << 24) + i), outside, PROTO_TCP, 1500), DIR_OUT)
        for i in range(vnodes)
    ] + [
        (Packet(outside, IPv4Address((10 << 24) + i), PROTO_TCP, 1500), DIR_IN)
        for i in range(vnodes)
    ]
    flows = len(packets)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for packet, direction in packets:
            fw.evaluate(packet, direction)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stats = fw.stats()
    assert stats["flow_cache_entries"] == stats["flow_cache_verdicts"] == flows
    assert all(rule.hits == 1 for rule in fw.rules)
    per_flow = (after - before) / flows
    assert per_flow <= 450, f"a cached flow with its own rule set retains {per_flow:.0f} B"


def test_dummynet_pipe_stays_under_byte_budget():
    """A pipe is its parameters and its counters: slots only, no
    container. 2 000 of them retain at most 250 B each (1 008 B when
    each carried a deque and six more slots for packet trains)."""
    assert DummynetPipe.__slots__ == (
        "sim", "name", "owner", "_flight",
        "bandwidth", "delay", "plr", "queue_limit", "_rng", "_busy_until",
        "packets_in", "packets_out", "packets_dropped_loss",
        "packets_dropped_queue", "bytes_in", "bytes_out", "_tally",
    )
    count = 2000
    sim = Simulator(seed=0, observe=False)
    names = [f"p{i}" for i in range(count)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pipes = [DummynetPipe(sim, bandwidth=1e6, delay=ms(10), name=n) for n in names]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not hasattr(pipes[0], "__dict__")
    per_pipe = (after - before) / count
    assert per_pipe <= 250, f"a pipe retains {per_pipe:.0f} B"


def test_idle_vnode_stays_under_byte_budget():
    """A compiled topology whose vnodes never see a packet: each costs
    its vnode, its address and one entry of its host's access table —
    at most 400 B (about 620 B when the two access rules and their
    index entries were built at deploy time)."""
    count = 20_000
    spec = TopologySpec("idle")
    spec.add_group(
        "peers", "10.0.0.0/8", count,
        down_bw=kbps(1024), up_bw=kbps(512), latency=ms(20),
    )
    spec.add_latency("peers", "172.16.0.0/12", ms(100))
    testbed = Testbed(num_pnodes=32, observe=False)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        compiler = compile_topology(spec, testbed)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stats = compiler.stats()
    assert stats["vnodes"] == count and stats["pipes_materialized"] == 0
    per_vnode = (after - before) / count
    assert per_vnode <= 400, f"an idle vnode retains {per_vnode:.0f} B"


def test_idle_peer_connection_side_stays_under_byte_budget():
    """2 000 handshaked peer-connection sides that never requested or
    moved a byte hold no request set and no rate meter, and the bytes
    each owns — itself and its peer's bitfield — stay under 300 B
    (232 B on CPython 3.11; 768 B when every side was built with a
    request set and two meters). Reading a side's rate, as the choker
    does, builds none."""
    count = 2000
    testbed = Testbed(num_pnodes=1, seed=3, observe=False)
    compiler = compile_topology(uniform_swarm(1, prefix="10.0.0.0/24"), testbed)
    (vnode,) = compiler.all_vnodes()
    torrent = Torrent("t", total_size=64 * MB, piece_length=256 * KB,
                      block_size=256 * KB, tracker_addr=None)
    client = BitTorrentClient(vnode, torrent)  # a leecher: nothing to advertise
    socks = [Socket(vnode.pnode.stack) for _ in range(count)]
    handshake = (msg.Handshake(torrent.infohash, "RP-remote"), 68)
    sides = [None] * count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, sock in enumerate(socks):
            side = PeerConnection(client, sock, initiated=True)
            side._on_message(handshake)
            sides[i] = side
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_side = (after - before) / count
    assert per_side <= 300, f"an idle peer-connection side owns {per_side:.0f} B"
    for side in sides:
        assert side.handshaked and not side.closed
        assert client.choker._rate_key(side, 100.0) == 0.0
        assert side._inflight is None
        assert side.download_meter is None and side.upload_meter is None


def test_peer_state_is_built_on_use_and_the_request_set_released_when_drained():
    """A leecher fetching from a seeder: mid-transfer its side holds
    requests and a download meter and the seeder's an upload meter;
    once complete, no side holds a request set."""
    testbed = Testbed(num_pnodes=2, seed=6)
    compiler = compile_topology(uniform_swarm(2, prefix="10.0.0.0/24"), testbed)
    va, vb = compiler.all_vnodes()
    torrent = Torrent("t", total_size=512 * KB, piece_length=64 * KB,
                      block_size=16 * KB, tracker_addr=None)
    leecher = BitTorrentClient(va, torrent)
    seeder = BitTorrentClient(vb, torrent, seeder=True)
    leecher.start()
    seeder.start()
    leecher.add_candidates([(vb.address, seeder.config.listen_port)])
    testbed.sim.run(until=25.0)
    (down,), (up,) = leecher.peers(), seeder.peers()
    assert down._inflight and down.download_meter is not None
    assert up.upload_meter is not None and up._inflight is None
    assert down.upload_meter is None and up.download_meter is None
    testbed.sim.run(until=2000.0)
    assert leecher.complete
    assert down._inflight is None and up._inflight is None
    assert down.download_meter.total == 512 * KB == up.upload_meter.total


def test_a_segment_in_flight_owns_no_bound_method():
    """A segment names its sending connection; its packet's drop
    handler is one module-level function. Neither owns a bound method
    (two fewer 64-byte objects per segment in flight)."""
    assert tcp._Segment.__slots__ == (
        "seq", "payload", "size", "conn", "acked", "attempts", "sent_at", "last_pkt_id",
    )
    sim, a, b = make_lan()
    (client,), (server,) = connect_pairs(sim, a, b, 1)
    sent = []
    send = a.send_packet

    def keep(pkt):
        sent.append(pkt)
        send(pkt)

    a.send_packet = keep
    client.send("hello", 1000)
    client.close()
    for pkt in sent:
        seg = pkt.payload
        assert pkt.on_drop is tcp._segment_dropped
        assert not isinstance(pkt.on_drop, MethodType)
        assert seg.conn is client
        for name in tcp._Segment.__slots__:
            assert not callable(getattr(seg, name)), name
    assert [p.kind for p in sent] == [tcp.KIND_DATA, tcp.KIND_FIN]
    sim.run()
    # Both deliveries credited the sender through ``seg.conn``.
    assert client.in_flight == 0 and client._fin_acked


def _closures_alive():
    """Function and closure-cell objects the collector knows of."""
    count = 0
    for obj in gc.get_objects():
        if type(obj) is FunctionType or type(obj) is CellType:
            count += 1
    return count


def test_a_packet_walk_creates_no_function_or_cell_objects():
    """An echo over a 3-pipe egress, the switch and a 1-pipe ingress
    (and its reply, back the same way): once the first echo has
    compiled the hop chains, no step of a later one leaves a function
    or a closure cell behind — every continuation a pipe is handed
    already exists."""
    sim, a, b = make_lan()
    for stack in (a, b):
        for i in range(3):
            stack.fw.add(
                ACTION_PIPE, direction=DIR_OUT,
                pipe=DummynetPipe(sim, bandwidth=1e6, delay=ms(1), name=f"{stack.name}.up{i}"),
            )
        stack.fw.add(
            ACTION_PIPE, direction=DIR_IN,
            pipe=DummynetPipe(sim, bandwidth=1e6, delay=ms(1), name=f"{stack.name}.down"),
        )
    rtts = []

    def echo():
        _ident, sig = a.send_echo(a.iface.primary, b.iface.primary)
        sig.wait_callback(rtts.append)

    echo()
    sim.run()  # compiles both directions' chains, fills both flow caches
    gc.collect()
    gc.disable()
    try:
        baseline = _closures_alive()
        echo()
        steps = 0
        while sim.step():
            steps += 1
            assert _closures_alive() <= baseline, f"after event {steps}"
    finally:
        gc.enable()
    # 2 x (rule-scan event + 3 egress pipes + tx port + rx port + ingress pipe).
    assert steps >= 12
    assert len(rtts) == 2 and rtts[0] == pytest.approx(rtts[1])


def _closures_and_dicts_alive():
    """Functions, closure cells and dicts alive, by type. A dict holding
    only atomic values is not tracked by the collector, so those are
    found through the tracked objects that refer to them."""
    tracked = gc.get_objects()
    counts = {FunctionType: 0, CellType: 0, dict: 0}
    for obj in tracked:
        if type(obj) in counts:
            counts[type(obj)] += 1
    untracked = {
        id(obj)
        for obj in gc.get_referents(*tracked)
        if type(obj) is dict and not gc.is_tracked(obj)
    }
    counts[dict] += len(untracked)
    return counts


def test_a_timed_wait_creates_no_function_cell_or_dict_objects():
    """A ping process's ``yield (signal, timeout)``: arming the timer,
    the reply that wins the race and the sleep to the next echo leave
    no function, closure cell or dict behind at any step — the wait is
    one slotted object whose bound methods are the two callbacks."""
    sim, a, b = make_lan()
    proc = ping(sim, a, a.iface.primary, b.iface.primary, count=10, interval=1.0)
    sim.run(until=1.5)  # two echoes answered: paths compiled, flows cached
    gc.collect()
    gc.disable()
    try:
        baseline = _closures_and_dicts_alive()
        steps = 0
        while sim.now < 2.5 and sim.step():
            steps += 1
            alive = _closures_and_dicts_alive()
            for kind, count in alive.items():
                assert count <= baseline[kind], (kind.__name__, steps)
    finally:
        gc.enable()
    # Echo 3 went out just after 2.0 and came back; echo 4 is out.
    assert steps >= 3 and sim.now > 3.0 and proc.alive


def test_connection_listener_and_socket_have_no_instance_dict():
    sim, a, b = make_lan()
    listener = b.tcp.listen((b.iface.primary, 5000))
    conn, _sig = a.tcp.connect((a.iface.primary, 50000), (b.iface.primary, 5000))
    for obj in (conn, listener, Socket(a)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert isinstance(listener, Listener)


# -- Channel: queues exist only while they hold something -------------------


class TestChannelQueuesOnFirstUse:
    def test_never_used_channel(self):
        ch = Channel(Simulator())
        assert len(ch) == 0
        assert ch.try_get() is None
        assert ch._items is None and ch._getters is None

    def test_put_before_subscribe_drains_in_order_then_goes_direct(self):
        ch = Channel(Simulator())
        for item in (1, 2, 3):
            ch.put(item)
        assert len(ch) == 3
        got = []
        ch.subscribe(got.append)
        assert got == [1, 2, 3]
        assert len(ch) == 0 and ch._items is None
        ch.put(4)
        assert got == [1, 2, 3, 4]
        assert ch._items is None  # a subscribed channel never queues
        ch.close()
        assert got == [1, 2, 3, 4, None]

    def test_subscribe_on_closed_channel_still_delivers_backlog_then_none(self):
        ch = Channel(Simulator())
        ch.put("a")
        ch.close()
        got = []
        ch.subscribe(got.append)
        assert got == ["a", None]

    def test_get_before_put_is_fifo_and_releases_the_getter_queue(self):
        sim = Simulator()
        ch = Channel(sim)
        first, second, third = ch.get(), ch.get(), ch.get()
        assert len(ch._getters) == 3
        ch.put("x")
        ch.put("y")
        assert (first.value, second.value) == ("x", "y")
        assert not third.triggered
        ch.put("z")
        assert third.value == "z"
        assert ch._getters is None
        ch.put("queued")  # nobody waits any more: this one is buffered
        assert len(ch) == 1 and ch.try_get() == "queued" and ch._items is None

    def test_put_then_get_interleaved_keeps_order(self):
        ch = Channel(Simulator())
        ch.put(1)
        ch.put(2)
        assert ch.get().value == 1
        ch.put(3)
        assert [ch.get().value, ch.get().value] == [2, 3]
        assert ch._items is None
        assert not ch.get().triggered

    def test_close_delivers_none_to_every_getter_and_to_later_ones(self):
        ch = Channel(Simulator())
        waiting = [ch.get(), ch.get()]
        ch.close()
        assert [sig.value for sig in waiting] == [None, None]
        assert all(sig.triggered for sig in waiting)
        assert ch._getters is None
        late = ch.get()
        assert late.triggered and late.value is None

    def test_error_messages_name_the_channel(self):
        closed = Channel(Simulator(), name="gone")
        closed.close()
        with pytest.raises(SimulationError, match="closed channel 'gone'"):
            closed.put(1)
        ch = Channel(Simulator(), name="demo")
        ch.get()
        with pytest.raises(SimulationError, match="'demo' has blocked getters"):
            ch.subscribe(lambda item: None)
        other = Channel(Simulator(), name="demo2")
        other.subscribe(lambda item: None)
        with pytest.raises(SimulationError, match="'demo2' already subscribed"):
            other.subscribe(lambda item: None)

    def test_listener_backlog_counts_queued_connections(self):
        """SYN-accept reads ``len(accept_channel)``: with nobody
        accepting, the third connection of a backlog-2 listener is
        refused; draining the backlog admits the next one."""
        sim, a, b = make_lan()
        listener = b.tcp.listen((b.iface.primary, 5000), backlog=2)
        outcomes = []
        for port in (50001, 50002, 50003):
            _conn, sig = a.tcp.connect((a.iface.primary, port), (b.iface.primary, 5000))
            sig.wait_callback(lambda value: outcomes.append(type(value).__name__))
        sim.run()
        assert outcomes == ["Connection", "Connection", "ConnectionRefused"]
        assert len(listener.accept_channel) == 2
        assert listener.accept().value.remote[1] == 50001
        _conn, sig = a.tcp.connect((a.iface.primary, 50004), (b.iface.primary, 5000))
        sim.run()
        assert isinstance(sig.value, Connection)
        assert [c.remote[1] for c in iter(listener.accept_channel.try_get, None)] == [
            50002, 50004,
        ]


# -- Connection: send queue only while the window is full --------------------


class TestSendQueueOnFirstUse:
    def test_admitted_send_never_queues(self):
        sim, a, b = make_lan()
        (client,), _servers = connect_pairs(sim, a, b, 1)
        admitted = client.send("m", 100)
        assert admitted.triggered and client._send_queue is None
        assert (client.messages_sent, client.in_flight) == (1, 100)

    def test_full_window_queues_in_order_and_releases_once_drained(self):
        sim, a, b = make_lan()
        # A slow uplink keeps segments in flight long enough to fill
        # the window.
        a.fw.add(
            ACTION_PIPE,
            pipe=DummynetPipe(sim, bandwidth=100_000.0, name="up"),
            direction=DIR_OUT,
        )
        listener = b.tcp.listen((b.iface.primary, 5000))
        client, _sig = a.tcp.connect(
            (a.iface.primary, 50000), (b.iface.primary, 5000), window=2500
        )
        sim.run()
        server = listener.accept().value
        received = []
        server.recv_channel.subscribe(received.append)
        admitted = [client.send(i, 1000) for i in range(6)]
        # 2 x 1000 B fit the 2500 B window; the rest wait, FIFO.
        assert [sig.triggered for sig in admitted] == [True, True] + [False] * 4
        assert [entry[0].payload for entry in client._send_queue] == [2, 3, 4, 5]
        # A waiter on ``admitted`` runs after its segment went out.
        sent_when_admitted = []
        for sig in admitted[2:]:
            sig.wait_callback(lambda _v: sent_when_admitted.append(client.messages_sent))
        client.close()  # the FIN queues behind the data
        sim.run()
        assert all(sig.triggered for sig in admitted)
        assert received == [(i, 1000) for i in range(6)] + [None]
        assert sent_when_admitted == [3, 4, 5, 6]
        assert client._send_queue is None

    def test_out_of_order_arrival_parks_then_delivers_in_order(self):
        sim, a, b = make_lan()
        (client,), (server,) = connect_pairs(sim, a, b, 1)
        received = []
        server.recv_channel.subscribe(received.append)
        # The sender's firewall eats the first copy of seq 0 (TCP
        # retransmits it after INITIAL_RTO); seq 1 and 2 overtake it.
        deny = a.fw.add(ACTION_DENY, proto=PROTO_TCP, direction=DIR_OUT)
        client.send(0, 100)
        a.fw.delete(deny.number)
        client.send(1, 100)
        client.send(2, 100)
        sim.run(until=sim.now + 0.1)
        assert received == [] and sorted(server._reorder) == [1, 2]
        sim.run()
        assert received == [(0, 100), (1, 100), (2, 100)]
        assert server._reorder is None
        assert client.retransmissions == 1

    @pytest.mark.parametrize("path", ["receiver", "channel"])
    def test_a_receiver_that_aborts_mid_drain_gets_eof_and_nothing_after(self, path):
        """Seq 1 and 2 are parked behind a dropped seq 0; the receiver
        aborts on seq 0. EOF is the last thing it sees, once, and the
        parked segments are never delivered (on the channel path they
        were put on the closed channel, which raised out of ``run``)."""
        sim, a, b = make_lan()
        (client,), (server,) = connect_pairs(sim, a, b, 1)
        received = []

        def on_message(item):
            received.append(item)
            if item is not None:
                server.abort()

        if path == "receiver":
            server.subscribe(_Receiver(on_message))
        else:
            server.recv_channel.subscribe(on_message)
        deny = a.fw.add(ACTION_DENY, proto=PROTO_TCP, direction=DIR_OUT)
        client.send(0, 100)
        a.fw.delete(deny.number)
        client.send(1, 100)
        client.send(2, 100)
        sim.run(until=sim.now + 0.1)
        assert received == [] and sorted(server._reorder) == [1, 2]
        sim.run()
        assert received == [(0, 100), None]
        assert server.state is Connection.CLOSED and client.state is Connection.CLOSED


class _Receiver:
    """A connection receiver that hands each item to ``callback``."""

    __slots__ = ("on_message",)

    def __init__(self, callback):
        self.on_message = callback


def _attach(path, sim, conn, got, on_eof=None):
    """Read ``conn`` into ``got``: as a subscribed receiver, or as a
    process looping on ``recv()`` that reads once more after EOF.
    ``on_eof`` runs when ``None`` arrives."""
    if path == "receiver":

        def on_message(item):
            got.append(item)
            if item is None and on_eof is not None:
                on_eof()

        conn.subscribe(_Receiver(on_message))
        return

    def reader():
        while True:
            item = yield conn.recv()
            got.append(item)
            if item is None:
                break
        if on_eof is not None:
            on_eof()
        got.append((yield conn.recv()))  # after EOF: None at once

    Process(sim, reader())


class TestReceivePaths:
    """A subscribed receiver and a process reading through ``recv()``
    see the same sequence: queued items first, in order, then exactly
    one ``None`` (the ``recv()`` reader also reads a second ``None``
    after EOF)."""

    def _run(self, path, script):
        sim, a, b = make_lan()
        (client,), (server,) = connect_pairs(sim, a, b, 1)
        got = []
        script(sim, client, server, lambda **kw: _attach(path, sim, server, got, **kw))
        sim.run()
        if path == "recv":
            assert got[-1] is None
            got = got[:-1]
        assert got.count(None) == 1 and got[-1] is None
        return got, server

    @pytest.fixture(params=["receiver", "recv"])
    def path(self, request):
        return request.param

    def test_items_queued_before_subscribe(self, path):
        def script(sim, client, server, attach):
            for i in range(3):
                client.send(i, 100)
            sim.run()
            assert len(server.recv_channel) == 3
            attach()
            for i in range(3, 5):
                client.send(i, 100)
            client.close()

        got, server = self._run(path, script)
        assert got == [(i, 100) for i in range(5)] + [None]
        assert server.remote_closed and server.state is Connection.ESTABLISHED

    def test_fin_before_subscribe(self, path):
        def script(sim, client, server, attach):
            client.send("a", 100)
            client.send("b", 200)
            client.close()
            sim.run()
            assert server.remote_closed and server._channel is not None
            attach()

        got, _server = self._run(path, script)
        assert got == [("a", 100), ("b", 200), None]

    def test_fin_before_anything_read_builds_no_channel(self, path):
        def script(sim, client, server, attach):
            client.close()
            sim.run()
            assert server.remote_closed and server._channel is None
            attach()

        got, _server = self._run(path, script)
        assert got == [None]

    def test_fin_then_teardown_delivers_one_eof(self, path):
        def script(sim, client, server, attach):
            attach(on_eof=server.close)
            client.send("x", 100)
            client.close()

        got, server = self._run(path, script)
        assert got == [("x", 100), None]
        assert server.state is Connection.CLOSED

    def test_reset_delivers_one_eof(self, path):
        def script(sim, client, server, attach):
            attach()
            client.send("x", 100)
            sim.run()
            client.abort()

        got, server = self._run(path, script)
        assert got == [("x", 100), None]
        assert server.state is Connection.CLOSED

    def test_second_subscribe_raises_like_a_channel(self):
        sim, a, b = make_lan()
        (client,), (server,) = connect_pairs(sim, a, b, 1)
        server.subscribe(_Receiver(lambda item: None))
        with pytest.raises(SimulationError, match="'tcp.recv' already subscribed"):
            server.subscribe(_Receiver(lambda item: None))
        client.recv_channel.subscribe(lambda item: None)
        with pytest.raises(SimulationError, match="'tcp.recv' already subscribed"):
            client.subscribe(_Receiver(lambda item: None))
        other = connect_pairs(sim, a, b, 1, port=5001)[0][0]
        other.recv()
        with pytest.raises(SimulationError, match="'tcp.recv' has blocked getters"):
            other.subscribe(_Receiver(lambda item: None))


# -- demux: one int key per connection ------------------------------------------


def _plain_shift_key(lip, lport, rip, rport):
    return (lip << 32 | rip) << 32 | (lport << 16 | rport)


class TestDemuxKey:
    def test_keys_are_distinct_over_a_grid_of_four_tuples(self):
        ips = [0, 1, 0x0A000001, 0x0A000002, 0xC0A82601, 0xFFFFFFFF]
        # (1, 3) and (2, 0) have the same XOR, as do (6881, 0) and (0, 6881).
        ports = [0, 1, 2, 3, 6881, 49152, 65535]
        tuples = [
            (lip, lport, rip, rport)
            for lip in ips for rip in ips for lport in ports for rport in ports
        ]
        keys = {tcp.conn_key(*t) for t in tuples}
        assert len(keys) == len(tuples)
        swapped = (0x0A000001, 49152, 0x0A000002, 6881)
        assert tcp.conn_key(*swapped) != tcp.conn_key(0x0A000002, 6881, 0x0A000001, 49152)

    def test_connections_are_keyed_by_their_four_tuples(self):
        sim, a, b = make_lan()
        clients, servers = connect_pairs(sim, a, b, 3)
        for stack, conns in ((a, clients), (b, servers)):
            assert stack.tcp.connections == {
                (c.local[0].value, c.local[1], c.remote[0].value, c.remote[1]): c
                for c in conns
            }
            assert set(stack.tcp._conns) == {
                tcp.conn_key(c.local[0].value, c.local[1], c.remote[0].value, c.remote[1])
                for c in conns
            }

    def test_one_pnodes_keys_spread_over_the_table(self):
        """One 32-vnode pnode of a swarm of 5 754 (10.0.0.1 onwards, in
        blocks), 36 connections per vnode: 18 out to port 6881, 18 in on
        it. Of a 2 048-slot table's low bits, the keys' hashes fill at
        least 800; a plain shift fills under 300."""
        rng = random.Random(0)
        base = 10 << 24
        four_tuples = []
        for lip in range(base + 1, base + 33):
            for i in range(18):
                four_tuples.append((lip, 49152 + i, base + 1 + rng.randrange(5754), 6881))
            for _ in range(18):
                rport = 49152 + rng.randrange(40)
                four_tuples.append((lip, 6881, base + 1 + rng.randrange(5754), rport))
        assert len(set(four_tuples)) == 1152

        def spread(key):
            return len({hash(key(*t)) & 2047 for t in four_tuples})

        assert spread(tcp.conn_key) >= 800
        assert spread(_plain_shift_key) < 300


# -- ephemeral ports: the use count hands out what the walk handed out ---------


def _walk_port_in_use(tcp: TcpLayer, ip_value: int, port: int) -> bool:
    """The walk over every connection that the use count replaced."""
    return any(
        lport == port and lip == ip_value for (lip, lport, _r, _p) in tcp.connections
    )


class TestPortUseCount:
    def test_count_follows_connect_accept_and_forget(self):
        sim, a, b = make_lan()
        clients, servers = connect_pairs(sim, a, b, 3, port=49152)
        a_ip, b_ip = a.iface.primary.value, b.iface.primary.value
        assert a.tcp._port_uses[a_ip] == {c.local[1]: 1 for c in clients}
        assert b.tcp._port_uses[b_ip] == {49152: 3}
        servers[0].abort()
        sim.run()
        assert b.tcp._port_uses[b_ip] == {49152: 2}
        assert a.tcp._port_uses[a_ip] == {c.local[1]: 1 for c in clients[1:]}
        for conn in clients[1:]:
            conn.abort()
        sim.run()
        assert a.tcp._port_uses[a_ip] == {} and b.tcp._port_uses[b_ip] == {}
        assert a.tcp.connections == {} and b.tcp.connections == {}

    def test_allocation_skips_ports_of_live_connections_after_wraparound(self):
        sim, a, b = make_lan()
        clients, servers = connect_pairs(sim, a, b, 4, port=49152)
        first = [c.local[1] for c in clients]
        assert first == [49152, 49153, 49154, 49155]
        clients[1].abort()  # 49153 becomes free again
        sim.run()
        a.tcp._next_ephemeral[a.iface.primary.value] = 65535
        handed = [a.tcp.alloc_ephemeral_port(a.iface.primary) for _ in range(2)]
        assert handed == [65535, 49153]  # wrapped, skipped the live 49152
        ip_value = a.iface.primary.value
        for port in range(49150, 49160):
            assert (port in a.tcp._port_uses[ip_value]) == _walk_port_in_use(
                a.tcp, ip_value, port
            )

    def test_accepted_connections_hold_the_port_after_the_listener_closed(self):
        sim, a, b = make_lan()
        _clients, servers = connect_pairs(sim, a, b, 1, port=49152)
        listener = b.tcp._listeners[(b.iface.primary.value, 49152)]
        listener.close()
        assert b.tcp.alloc_ephemeral_port(b.iface.primary) == 49153
        servers[0].abort()
        sim.run()
        b.tcp._next_ephemeral.clear()
        assert b.tcp.alloc_ephemeral_port(b.iface.primary) == 49152


# -- ICMP: a lost echo retains nothing ---------------------------------------------


class TestEchoTable:
    def test_timed_out_echoes_leave_the_pending_table_empty(self):
        """Lossy pipe, timeout shorter than the RTT: every wait times
        out, replies that do come back are late and ignored."""
        sim, a, b = make_lan(seed=11)
        a.fw.add(
            ACTION_PIPE,
            pipe=DummynetPipe(sim, delay=ms(30), plr=0.5, name="lossy"),
            proto="icmp",
            direction=DIR_OUT,
        )
        probe = ping(
            sim, a, a.iface.primary, b.iface.primary,
            count=20, interval=0.1, timeout=0.02,
        )
        sim.run()
        assert b.packets_received > 0  # some echoes did get through...
        assert a.packets_received == b.packets_received  # ...and were answered
        result = probe.result
        assert (result.sent, result.received, result.lost, result.rtts) == (20, 0, 20, ())
        assert a._icmp_pending == {}

    def test_answered_echoes_leave_it_empty_too_and_rtts_are_unchanged(self):
        sim, a, b = make_lan()
        a.fw.add(
            ACTION_PIPE,
            pipe=DummynetPipe(sim, delay=ms(10), name="d"),
            direction=DIR_OUT,
        )
        probe = ping(sim, a, a.iface.primary, b.iface.primary, count=3, interval=0.1)
        sim.run()
        assert probe.result.received == 3
        assert probe.result.min == pytest.approx(probe.result.max)
        assert ms(10) < probe.result.avg < ms(11)
        assert a._icmp_pending == {}


# -- packets: plain objects, garbage once delivered ---------------------------------


def _record_sends(stack, sent):
    """Record the kind of every packet ``stack`` sends (not the packet:
    that would keep it alive)."""
    send = stack.send_packet

    def recording(pkt):
        sent.append(pkt.kind)
        send(pkt)

    stack.send_packet = recording


def _live_packets():
    """How many ``Packet`` objects are alive. ``Packet`` has no
    ``__weakref__`` slot, but it is GC-tracked, so the collector's
    object list sees every live one."""
    return sum(1 for obj in gc.get_objects() if type(obj) is Packet)


@contextlib.contextmanager
def _packets_freed_by_refcount():
    """Assert the block leaves no more live packets than it found, with
    the cycle collector off so only reference counting can free them."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_packets()
        yield
        assert _live_packets() == before
    finally:
        if was_enabled:
            gc.enable()


class TestDeliveredPackets:
    def test_echo_packets_are_garbage_once_run_returns(self):
        sim, a, b = make_lan()
        a.fw.add(
            ACTION_PIPE,
            pipe=DummynetPipe(sim, delay=ms(10), name="d"),
            direction=DIR_OUT,
        )
        sent = []
        _record_sends(a, sent)
        _record_sends(b, sent)
        with _packets_freed_by_refcount():
            probe = ping(sim, a, a.iface.primary, b.iface.primary, count=3, interval=0.1)
            sim.run()
        assert probe.result.received == 3
        assert len(sent) == 6

    def test_tcp_exchange_packets_are_garbage_once_run_returns(self):
        sim, a, b = make_lan()
        a.fw.add(
            ACTION_PIPE,
            pipe=DummynetPipe(sim, delay=ms(5), name="d"),
            direction=DIR_OUT,
        )
        sent = []
        _record_sends(a, sent)
        _record_sends(b, sent)
        with _packets_freed_by_refcount():
            clients, servers = connect_pairs(sim, a, b, 1)
            got = []
            servers[0].recv().wait_callback(got.append)
            clients[0].send("hello", 1000)
            sim.run()
            clients[0].close()
            servers[0].close()
            sim.run()
        assert got == [("hello", 1000)]
        assert len(sent) == 5  # syn, synack, data, both fins

    def test_a_tap_keeps_request_and_reply_as_distinct_packets(self):
        sim, a, b = make_lan()
        kept = []
        a.add_tap(kept.append)
        b.add_tap(kept.append)
        probe = ping(sim, a, a.iface.primary, b.iface.primary, count=1)
        sim.run()
        assert probe.result.received == 1
        request, reply = kept
        assert request is not reply
        assert (request.kind, reply.kind) == ("echo", "echoreply")
        assert (request.src, request.dst) == (reply.dst, reply.src)


# -- ipfw: one verdict per matched-rule set -------------------------------------------


def _packet(src, dst="10.200.0.1", proto=PROTO_TCP):
    return Packet(IPv4Address(src), IPv4Address(dst), proto, 1500)


def _shared_fw(sim, indexed=False, fw=None):
    """Two access rules sharing the *number* 500 but not the pipe, a
    count rule, a deny and a final allow — on ``fw`` (a new Firewall by
    default)."""
    fw = Firewall(indexed=indexed) if fw is None else fw
    fw.add(ACTION_COUNT, number=100, src=IPv4Network("10.1.0.0/16"))
    fw.add(
        ACTION_PIPE, number=500, src=IPv4Address("10.1.0.1"), direction=DIR_OUT,
        pipe=DummynetPipe(sim, delay=ms(1), name="one"),
    )
    fw.add(
        ACTION_PIPE, number=500, src=IPv4Address("10.1.0.2"), direction=DIR_OUT,
        pipe=DummynetPipe(sim, delay=ms(2), name="two"),
    )
    fw.add(ACTION_DENY, number=600, src=IPv4Network("10.9.0.0/16"))
    fw.add(ACTION_ALLOW, number=700)
    return fw


class TestSharedVerdicts:
    def test_flows_matching_the_same_rules_share_one_verdict_object(self):
        sim = Simulator(seed=0, observe=False)
        fw = _shared_fw(sim)
        verdicts = [
            fw.evaluate(_packet("10.1.0.1", dst=f"10.200.0.{i}"), DIR_OUT)
            for i in range(1, 6)
        ]
        assert all(v is verdicts[0] for v in verdicts)
        stats = fw.stats()
        assert (stats["flow_cache_entries"], stats["flow_cache_verdicts"]) == (5, 1)
        # Another protocol is another flow key but the same rule set.
        assert fw.evaluate(_packet("10.1.0.1", proto=PROTO_UDP), DIR_OUT) is verdicts[0]
        assert fw.stats()["flow_cache_verdicts"] == 1

    def test_same_rule_number_but_different_pipe_is_never_merged(self):
        sim = Simulator(seed=0, observe=False)
        fw = _shared_fw(sim)
        one = fw.evaluate(_packet("10.1.0.1"), DIR_OUT)
        two = fw.evaluate(_packet("10.1.0.2"), DIR_OUT)
        assert one.matched == two.matched == (100, 500, 700)
        assert one.scanned == two.scanned and one.allowed and two.allowed
        assert one is not two
        assert [p.name for p in one.pipes] == ["one"]
        assert [p.name for p in two.pipes] == ["two"]
        assert fw.stats()["flow_cache_verdicts"] == 2
        # ...and the hit path keeps them apart as well.
        assert fw.evaluate(_packet("10.1.0.2"), DIR_OUT).pipes[0].name == "two"

    def test_terminal_rule_and_cost_model_separate_verdicts(self):
        sim = Simulator(seed=0, observe=False)
        fw = _shared_fw(sim)
        denied = fw.evaluate(_packet("10.9.0.1"), DIR_OUT)
        allowed = fw.evaluate(_packet("10.3.0.1"), DIR_OUT)
        assert not denied.allowed and allowed.allowed
        assert denied.scanned == 4 and allowed.scanned == 5
        assert fw.stats()["flow_cache_verdicts"] == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda fw, sim: fw.add(ACTION_COUNT, number=50),
            lambda fw, sim: fw.delete(100),
            lambda fw, sim: fw.flush(),
            lambda fw, sim: fw.add_pipe(9, DummynetPipe(sim, delay=ms(1))),
            lambda fw, sim: setattr(fw, "indexed", True),
            lambda fw, sim: fw.add_access_pair(
                IPv4Address("10.1.0.9"), 800,
                up_factory=lambda rule: DummynetPipe(sim, delay=ms(1)),
                down_factory=lambda rule: DummynetPipe(sim, delay=ms(1)),
            ),
        ],
        ids=["add", "delete", "flush", "add_pipe", "indexed", "add_access_pair"],
    )
    def test_every_cache_clearing_mutator_drops_the_shared_verdicts(self, mutate):
        sim = Simulator(seed=0, observe=False)
        fw = _shared_fw(sim)
        stale = fw.evaluate(_packet("10.1.0.1"), DIR_OUT)
        fw.evaluate(_packet("10.1.0.2"), DIR_OUT)
        generation = fw.generation
        mutate(fw, sim)
        stats = fw.stats()
        assert (stats["flow_cache_entries"], stats["flow_cache_verdicts"]) == (0, 0)
        assert fw.generation == generation + 1
        fresh = fw.evaluate(_packet("10.1.0.1"), DIR_OUT)
        assert fresh is not stale
        assert fw.stats()["flow_cache_verdicts"] == 1

    def test_lazy_pipe_materialisation_keeps_the_cache(self):
        """``register_lazy_pipe`` happens inside the evaluation that
        first caches the verdict, so it must not clear anything."""
        sim = Simulator(seed=0, observe=False)
        fw = Firewall()
        fw.add(ACTION_ALLOW, number=900)
        fw.evaluate(_packet("10.3.0.1"), DIR_OUT)

        def factory(rule):
            return fw.register_lazy_pipe(7, DummynetPipe(sim, delay=ms(1), name="lazy"))

        fw.add_access_pair(IPv4Address("10.1.0.1"), 500, up_factory=factory, down_factory=factory)
        verdict = fw.evaluate(_packet("10.1.0.1"), DIR_OUT)
        assert [p.name for p in verdict.pipes] == ["lazy"]
        assert fw.stats()["flow_cache_entries"] == 1
        assert fw.evaluate(_packet("10.1.0.1", dst="10.200.0.2"), DIR_OUT) is verdict

    @pytest.mark.parametrize("indexed", [False, True], ids=["linear", "indexed"])
    def test_cache_on_and_off_agree_on_verdict_fields_and_hits(self, indexed):
        """The cached firewall against the uncached reference walk."""
        sim = Simulator(seed=0, observe=False)
        cached = _shared_fw(sim, indexed=indexed)
        walk = _shared_fw(sim, fw=RuleWalk(indexed=indexed))
        sources = ["10.1.0.1", "10.1.0.2", "10.1.7.7", "10.9.0.1", "10.3.0.1"]
        for round_ in range(3):
            for src in sources:
                for direction in (DIR_OUT, DIR_IN):
                    packet = _packet(src, dst=f"10.200.0.{round_ + 1}")
                    for _miss_then_hit in range(2):
                        v = cached.evaluate(packet, direction)
                        allowed, pipes, scanned, matched = walk.evaluate(packet, direction)
                        assert (v.allowed, v.scanned, v.matched) == (allowed, scanned, matched)
                        assert [p.name for p in v.pipes] == [p.name for p in pipes]
        assert [r.hits for r in cached.rules] == walk.hits
        assert cached.rules_scanned_total == walk.rules_scanned_total
        assert cached.stats()["flow_cache_verdicts"] < cached.stats()["flow_cache_entries"]

    def test_linear_and_indexed_agree_on_everything_but_the_charge(self):
        sim = Simulator(seed=0, observe=False)
        linear = _shared_fw(sim, indexed=False)
        indexed = _shared_fw(sim, indexed=True)
        for src in ["10.1.0.1", "10.1.0.2", "10.9.0.1", "10.3.0.1"] * 2:
            v1 = linear.evaluate(_packet(src), DIR_OUT)
            v2 = indexed.evaluate(_packet(src), DIR_OUT)
            assert (v1.allowed, v1.matched) == (v2.allowed, v2.matched)
            assert [p.name for p in v1.pipes] == [p.name for p in v2.pipes]
        assert [r.hits for r in linear.rules] == [r.hits for r in indexed.rules]


def _proto_fw(sim, indexed=False, fw=None):
    """Rules that tell protocols apart around one vnode's access pair:
    a udp count, an icmp pipe, an sctp deny inbound, a tcp allow to a
    network, an sctp count and a final allow."""
    fw = Firewall(indexed=indexed) if fw is None else fw
    vnode = IPv4Address("10.1.0.1")
    fw.add(ACTION_COUNT, number=100, proto=PROTO_UDP)
    fw.add(
        ACTION_PIPE, number=200, proto=PROTO_ICMP, src=vnode,
        pipe=DummynetPipe(sim, delay=ms(1), name="icmp"),
    )
    fw.add(
        ACTION_PIPE, number=300, src=vnode, direction=DIR_OUT,
        pipe=DummynetPipe(sim, delay=ms(1), name="up"),
    )
    fw.add(
        ACTION_PIPE, number=301, dst=vnode, direction=DIR_IN,
        pipe=DummynetPipe(sim, delay=ms(1), name="down"),
    )
    fw.add(ACTION_DENY, number=400, proto="sctp", direction=DIR_IN)
    fw.add(ACTION_ALLOW, number=500, proto=PROTO_TCP, dst=IPv4Network("10.200.0.0/16"))
    fw.add(ACTION_COUNT, number=600, proto="sctp")
    fw.add(ACTION_ALLOW, number=700)
    return fw


@pytest.mark.parametrize("indexed", [False, True], ids=["linear", "indexed"])
def test_one_address_pair_is_one_flow_per_protocol_and_direction(indexed):
    """The flow key keeps protocol and direction apart, for the three
    protocols the stack sends and for strings it never does (``sctp``,
    which rules name, and ``gre``, which none does): every combination
    is its own cache entry, and misses and hits alike agree with the
    uncached reference walk."""
    sim = Simulator(seed=0, observe=False)
    cached = _proto_fw(sim, indexed=indexed)
    walk = _proto_fw(sim, fw=RuleWalk(indexed=indexed))
    protos = [PROTO_TCP, PROTO_UDP, PROTO_ICMP, "sctp", "gre"]
    pairs = [("10.1.0.1", "10.200.0.1"), ("10.200.0.1", "10.1.0.1")]
    flows = len(protos) * len(pairs) * 2
    for round_ in range(2):
        for proto in protos:
            for src, dst in pairs:
                for direction in (DIR_OUT, DIR_IN):
                    packet = _packet(src, dst=dst, proto=proto)
                    v = cached.evaluate(packet, direction)
                    allowed, pipes, scanned, matched = walk.evaluate(packet, direction)
                    assert (v.allowed, v.scanned, v.matched) == (allowed, scanned, matched)
                    assert [p.name for p in v.pipes] == [p.name for p in pipes]
        stats = cached.stats()
        assert stats["flow_cache_entries"] == flows
        assert (stats["flow_cache_misses"], stats["flow_cache_hits"]) == (flows, round_ * flows)
    assert [r.hits for r in cached.rules] == walk.hits
    assert cached.rules_scanned_total == walk.rules_scanned_total
    assert cached.packets_evaluated == walk.packets_evaluated == 2 * flows


# ----------------------------------------------------------------------
# The client log: retained only on request
# ----------------------------------------------------------------------
def _small_swarm(**overrides):
    from repro.bittorrent import Swarm, SwarmConfig

    config = dict(leechers=3, seeders=1, file_size=1 * MB, stagger=1.0,
                  num_pnodes=2, seed=3)
    config.update(overrides)
    return Swarm(SwarmConfig(**config))


def test_a_plain_swarm_retains_no_record_and_leaves_no_listener():
    swarm = _small_swarm()
    swarm.run(max_time=20000)
    assert len(swarm.sim.trace) == 0
    assert swarm.sim.trace.categories() == set()
    assert swarm.sim.trace._listeners == {}


def test_a_flight_recorded_swarm_retains_its_whole_client_log():
    """The Chrome export's input: every record of the three client-log
    categories, as many as before retention became a request."""
    from repro.bittorrent.swarm import CLIENT_LOG

    swarm = _small_swarm(flight=True)
    heard = []
    for category in CLIENT_LOG:
        swarm.sim.trace.subscribe(category, heard.append)
    swarm.run(max_time=20000)
    kept = list(swarm.sim.trace.select())
    counts = {c: sum(1 for r in kept if r.category == c) for c in CLIENT_LOG}
    assert counts == {"bt.progress": 12, "bt.complete": 3, "bt.start": 4}
    assert kept == heard


def test_listening_does_not_retain_and_enabling_does():
    sim = Simulator(seed=0, observe=False)
    heard = []
    sim.trace.subscribe("only.heard", heard.append)
    sim.trace.enable("kept")
    sim.trace.record(1.0, "only.heard", n=1)
    sim.trace.record(2.0, "kept", n=2)
    sim.trace.record(3.0, "neither", n=3)
    assert [r.get("n") for r in heard] == [1]
    assert [r.get("n") for r in sim.trace.select()] == [2]
