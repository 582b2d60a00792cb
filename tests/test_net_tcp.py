"""Tests for the TCP-like transport and socket API."""

import pytest

from repro.errors import (
    AddressNotAvailable,
    ConnectionRefused,
    InvalidSocketState,
    SocketError,
)
from repro.net.addr import IPv4Address
from repro.net.ipfw import ACTION_PIPE, DIR_OUT
from repro.net.pipe import DummynetPipe
from repro.net.socket_api import ANY, Socket, raise_if_error
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.sim import Simulator
from repro.sim.process import Process
from repro.units import kbps, ms


@pytest.fixture
def lan():
    sim = Simulator(seed=5)
    switch = Switch(sim)
    a = NetworkStack(sim, "a", switch=switch)
    a.set_admin_address("192.168.38.1")
    b = NetworkStack(sim, "b", switch=switch)
    b.set_admin_address("192.168.38.2")
    return sim, a, b


def echo_server(sock):
    """Accept one connection and echo messages until EOF."""
    def server():
        sock.listen()
        conn_sock = yield sock.accept()
        while True:
            msg = yield conn_sock.recv()
            if msg is None:
                break
            payload, size = msg
            yield conn_sock.send(("echo", payload), size)
        conn_sock.close()
    return server


class TestConnectionSetup:
    def test_connect_accept_roundtrip(self, lan):
        sim, a, b = lan
        server_sock = Socket(b)
        server_sock.bind((b.iface.primary, 5000))
        accepted = []

        def server():
            server_sock.listen()
            conn = yield server_sock.accept()
            accepted.append(conn)

        results = []

        def client():
            sock = Socket(a)
            result = yield sock.connect((b.iface.primary, 5000))
            results.append((sim.now, raise_if_error(result)))

        Process(sim, server())
        Process(sim, client(), start_delay=0.1)
        sim.run()
        assert accepted and results
        assert results[0][1].peer == (b.iface.primary, 5000)
        # Handshake costs one LAN RTT (~120us).
        assert results[0][0] - 0.1 < ms(1)

    def test_connect_refused_when_no_listener(self, lan):
        sim, a, b = lan
        outcome = []

        def client():
            sock = Socket(a)
            result = yield sock.connect((b.iface.primary, 5999))
            outcome.append(result)

        Process(sim, client())
        sim.run()
        assert isinstance(outcome[0], ConnectionRefused)

    def test_raise_if_error_raises(self, lan):
        _, a, _ = lan
        with pytest.raises(ConnectionRefused):
            raise_if_error(ConnectionRefused("x"))
        assert raise_if_error("fine") == "fine"

    def test_connect_times_out_into_blackhole(self, lan):
        sim, a, b = lan
        # DENY all TCP out of a: SYNs never leave; retries then failure.
        a.fw.add("deny", proto="tcp", direction=DIR_OUT)
        outcome = []

        def client():
            sock = Socket(a)
            result = yield sock.connect((b.iface.primary, 5000))
            outcome.append((sim.now, result))

        Process(sim, client())
        sim.run()
        t, result = outcome[0]
        assert isinstance(result, SocketError)
        assert t >= 1.0  # at least the first SYN timeout

    def test_wildcard_listener_accepts_any_local_ip(self, lan):
        sim, a, b = lan
        b.add_address("10.0.0.51")
        server_sock = Socket(b)
        server_sock.bind((ANY, 6881))
        got = []

        def server():
            server_sock.listen()
            conn = yield server_sock.accept()
            got.append(conn.connection.local)

        def client():
            sock = Socket(a)
            yield sock.connect(("10.0.0.51", 6881))

        Process(sim, server())
        Process(sim, client())
        sim.run()
        assert got[0] == (IPv4Address("10.0.0.51"), 6881)

    def test_bind_to_foreign_address_fails(self, lan):
        _, a, _ = lan
        sock = Socket(a)
        with pytest.raises(AddressNotAvailable):
            sock.bind(("10.9.9.9", 1234))

    def test_bind_ephemeral_port_allocation(self, lan):
        _, a, _ = lan
        s1, s2 = Socket(a), Socket(a)
        s1.bind((a.iface.primary, 0))
        s2.bind((a.iface.primary, 0))
        assert s1.local[1] != s2.local[1]
        assert s1.local[1] >= 49152

    def test_listen_before_bind_rejected(self, lan):
        _, a, _ = lan
        with pytest.raises(InvalidSocketState):
            Socket(a).listen()

    def test_backlog_overflow_refused(self, lan):
        sim, a, b = lan
        server_sock = Socket(b)
        server_sock.bind((b.iface.primary, 5000))
        server_sock.listen(backlog=1)  # listen without accepting
        outcomes = []

        def client(delay):
            sock = Socket(a)
            result = yield sock.connect((b.iface.primary, 5000))
            outcomes.append(result)

        Process(sim, client(0))
        Process(sim, client(0), start_delay=0.5)
        sim.run()
        assert isinstance(outcomes[0], Socket)
        assert isinstance(outcomes[1], ConnectionRefused)


class TestDataTransfer:
    def test_echo_roundtrip(self, lan):
        sim, a, b = lan
        server_sock = Socket(b)
        server_sock.bind((b.iface.primary, 5000))
        Process(sim, echo_server(server_sock)())
        got = []

        def client():
            sock = Socket(a)
            raise_if_error((yield sock.connect((b.iface.primary, 5000))))
            yield sock.send("hello", 100)
            reply = yield sock.recv()
            got.append(reply)
            sock.close()

        Process(sim, client())
        sim.run()
        assert got == [(("echo", "hello"), 100)]

    def test_messages_arrive_in_order(self, lan):
        sim, a, b = lan
        server_sock = Socket(b)
        server_sock.bind((b.iface.primary, 5000))
        received = []

        def server():
            server_sock.listen()
            conn = yield server_sock.accept()
            while True:
                msg = yield conn.recv()
                if msg is None:
                    break
                received.append(msg[0])

        def client():
            sock = Socket(a)
            raise_if_error((yield sock.connect((b.iface.primary, 5000))))
            for i in range(20):
                yield sock.send(i, 50 + i)
            sock.close()

        Process(sim, server())
        Process(sim, client())
        sim.run()
        assert received == list(range(20))

    def test_throughput_limited_by_pipe(self, lan):
        sim, a, b = lan
        a.add_address("10.0.0.1")
        b.add_address("10.0.0.51")
        # 128 kbps upload from the client node (DSL-like).
        a.fw.add_pipe(1, DummynetPipe(sim, bandwidth=kbps(128), name="up"))
        a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.1"), direction=DIR_OUT)
        server_sock = Socket(b)
        server_sock.bind(("10.0.0.51", 5000))
        done = []

        def server():
            server_sock.listen()
            conn = yield server_sock.accept()
            total = 0
            while total < 160_000:
                msg = yield conn.recv()
                payload, size = msg
                total += size
            done.append(sim.now)

        def client():
            sock = Socket(a)
            sock.bind(("10.0.0.1", 0))
            raise_if_error((yield sock.connect(("10.0.0.51", 5000))))
            for _ in range(10):
                yield sock.send(b"x", 16_000)

        Process(sim, server())
        Process(sim, client())
        sim.run()
        # 160 KB at 16 kB/s -> ~10 s.
        assert done[0] == pytest.approx(160_000 / kbps(128), rel=0.1)

    def test_send_window_backpressure(self, lan):
        sim, a, b = lan
        a.add_address("10.0.0.1")
        a.fw.add_pipe(1, DummynetPipe(sim, bandwidth=1000.0, name="slow"))
        a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.1"), direction=DIR_OUT)
        b.add_address("10.0.0.51")
        server_sock = Socket(b)
        server_sock.bind(("10.0.0.51", 5000))
        Process(sim, echo_server(server_sock)())
        admit_times = []

        def client():
            sock = Socket(a, window=2000)
            sock.bind(("10.0.0.1", 0))
            raise_if_error((yield sock.connect(("10.0.0.51", 5000))))
            for _ in range(4):
                yield sock.send(b"x", 1000)
                admit_times.append(sim.now)

        Process(sim, client())
        sim.run(until=10.0)
        # First two admitted immediately (window 2000), later ones paced
        # at the 1 kB/s delivery rate.
        assert admit_times[1] - admit_times[0] < 0.5
        assert admit_times[2] - admit_times[1] > 0.5

    def test_eof_after_close(self, lan):
        sim, a, b = lan
        server_sock = Socket(b)
        server_sock.bind((b.iface.primary, 5000))
        eof = []

        def server():
            server_sock.listen()
            conn = yield server_sock.accept()
            msg = yield conn.recv()
            assert msg is not None
            msg = yield conn.recv()
            eof.append(msg)

        def client():
            sock = Socket(a)
            raise_if_error((yield sock.connect((b.iface.primary, 5000))))
            yield sock.send("only", 10)
            sock.close()

        Process(sim, server())
        Process(sim, client())
        sim.run()
        assert eof == [None]

    def test_send_after_close_rejected(self, lan):
        sim, a, b = lan
        server_sock = Socket(b)
        server_sock.bind((b.iface.primary, 5000))
        Process(sim, echo_server(server_sock)())
        failures = []

        def client():
            sock = Socket(a)
            raise_if_error((yield sock.connect((b.iface.primary, 5000))))
            sock.close()
            try:
                sock.send("late", 10)
            except InvalidSocketState as e:
                failures.append(e)

        Process(sim, client())
        sim.run()
        assert failures

    def test_abort_resets_peer(self, lan):
        sim, a, b = lan
        server_sock = Socket(b)
        server_sock.bind((b.iface.primary, 5000))
        events = []

        def server():
            server_sock.listen()
            conn = yield server_sock.accept()
            msg = yield conn.recv()
            events.append(msg)

        def client():
            sock = Socket(a)
            raise_if_error((yield sock.connect((b.iface.primary, 5000))))
            sock.abort()

        Process(sim, server())
        Process(sim, client())
        sim.run()
        assert events == [None]  # reset closes the receive side


class TestReliability:
    def _lossy_lan(self, plr):
        sim = Simulator(seed=13)
        switch = Switch(sim)
        a = NetworkStack(sim, "a", switch=switch)
        a.set_admin_address("192.168.38.1")
        b = NetworkStack(sim, "b", switch=switch)
        b.set_admin_address("192.168.38.2")
        a.add_address("10.0.0.1")
        b.add_address("10.0.0.51")
        a.fw.add_pipe(1, DummynetPipe(sim, bandwidth=1e6, plr=plr, name="lossy-up"))
        a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.1"), direction=DIR_OUT)
        return sim, a, b

    def test_data_survives_packet_loss(self):
        sim, a, b = self._lossy_lan(plr=0.2)
        server_sock = Socket(b)
        server_sock.bind(("10.0.0.51", 5000))
        received = []

        def server():
            server_sock.listen()
            conn = yield server_sock.accept()
            while True:
                msg = yield conn.recv()
                if msg is None:
                    break
                received.append(msg[0])

        def client():
            sock = Socket(a)
            sock.bind(("10.0.0.1", 0))
            raise_if_error((yield sock.connect(("10.0.0.51", 5000))))
            for i in range(30):
                yield sock.send(i, 1000)
            sock.close()

        Process(sim, server())
        Process(sim, client())
        sim.run()
        assert received == list(range(30))
        # With 20% loss over 30+ messages, the pipe's drops reach the
        # sending connection (through the packet's on_drop) and are
        # retransmitted.
        assert sim.metrics.get("net.tcp.retransmissions").value > 0

    def test_connect_survives_syn_loss(self):
        sim, a, b = self._lossy_lan(plr=0.5)
        server_sock = Socket(b)
        server_sock.bind(("10.0.0.51", 5000))

        def server():
            server_sock.listen()
            yield server_sock.accept()

        outcome = []

        def client():
            sock = Socket(a)
            sock.bind(("10.0.0.1", 0))
            result = yield sock.connect(("10.0.0.51", 5000))
            outcome.append(result)

        Process(sim, server())
        Process(sim, client())
        sim.run()
        assert isinstance(outcome[0], Socket)


class TestUdp:
    def test_datagram_roundtrip(self, lan):
        sim, a, b = lan
        got = []

        def server():
            sock = Socket(b, type=Socket.UDP)
            sock.bind((b.iface.primary, 9000))
            payload, size, src = yield sock.recvfrom()
            got.append((payload, size))
            sock.sendto("pong", 4, src)

        replies = []

        def client():
            sock = Socket(a, type=Socket.UDP)
            sock.bind((a.iface.primary, 0))
            sock.sendto("ping", 4, (b.iface.primary, 9000))
            reply = yield sock.recvfrom()
            replies.append(reply[0])

        Process(sim, server())
        Process(sim, client(), start_delay=0.01)
        sim.run()
        assert got == [("ping", 4)]
        assert replies == ["pong"]

    def test_datagram_to_unbound_port_is_silent(self, lan):
        sim, a, b = lan
        sock = Socket(a, type=Socket.UDP)
        sock.bind((a.iface.primary, 0))
        sock.sendto("void", 4, (b.iface.primary, 12345))
        sim.run()  # nothing crashes, nothing queues

    def test_udp_ops_on_tcp_socket_rejected(self, lan):
        _, a, _ = lan
        sock = Socket(a)
        with pytest.raises(InvalidSocketState):
            sock.sendto("x", 1, ("192.168.38.2", 1))
        with pytest.raises(InvalidSocketState):
            sock.recvfrom()
