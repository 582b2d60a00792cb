"""Tests for interfaces, the switch, and the per-node network stack."""

import pytest

from repro.errors import AddressError, RoutingError, VirtualizationError
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import ACTION_DENY, ACTION_PIPE, DIR_OUT
from repro.net.nic import Interface
from repro.net.packet import Packet
from repro.net.ping import ping
from repro.net.pipe import DummynetPipe
from repro.net.socket_api import Socket, raise_if_error
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.sim import Process, Simulator
from repro.units import gbps, ms, us


class TestInterface:
    def test_primary_and_aliases(self):
        nic = Interface("eth0", primary="192.168.38.1")
        nic.add_alias("10.0.0.1")
        nic.add_alias("10.0.0.2")
        assert nic.has_address("192.168.38.1")
        assert nic.has_address("10.0.0.2")
        assert not nic.has_address("10.0.0.3")
        assert [str(a) for a in nic.addresses()] == [
            "192.168.38.1",
            "10.0.0.1",
            "10.0.0.2",
        ]
        assert len(nic) == 3

    def test_duplicate_alias_rejected(self):
        nic = Interface(primary="192.168.38.1")
        nic.add_alias("10.0.0.1")
        with pytest.raises(VirtualizationError):
            nic.add_alias("10.0.0.1")

    def test_remove_alias(self):
        nic = Interface(primary="192.168.38.1")
        nic.add_alias("10.0.0.1")
        nic.remove_alias("10.0.0.1")
        assert not nic.has_address("10.0.0.1")

    def test_remove_unknown_alias_raises(self):
        with pytest.raises(AddressError):
            Interface().remove_alias("10.0.0.1")

    def test_cannot_remove_primary_via_alias(self):
        nic = Interface(primary="192.168.38.1")
        with pytest.raises(VirtualizationError):
            nic.remove_alias("192.168.38.1")

    def test_set_primary_replaces(self):
        nic = Interface(primary="192.168.38.1")
        nic.set_primary("192.168.38.9")
        assert not nic.has_address("192.168.38.1")
        assert nic.has_address("192.168.38.9")


def make_lan(sim, n=2, **switch_kw):
    """n stacks on one switch, admin addresses 192.168.38.1..n."""
    switch = Switch(sim, **switch_kw)
    stacks = []
    for i in range(n):
        st = NetworkStack(sim, f"node{i + 1}", switch=switch)
        st.set_admin_address(f"192.168.38.{i + 1}")
        stacks.append(st)
    return switch, stacks


class TestSwitch:
    def test_forward_between_stacks(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        got = []
        b._deliver_local = lambda p: got.append((sim.now, p))  # tap ingress
        pkt = Packet(a.iface.primary, b.iface.primary, "udp", 1000)
        a.send_packet(pkt)
        sim.run()
        assert len(got) == 1
        # Two port pipes at 1 Gbps + 60 us total port delay.
        assert got[0][0] == pytest.approx(us(60) + 2 * 1000 / gbps(1))

    def test_unknown_destination_dropped(self):
        sim = Simulator()
        switch, (a, _b) = make_lan(sim, 2)
        dropped = []
        pkt = Packet(a.iface.primary, IPv4Address("10.99.99.99"), "udp", 100)
        pkt.on_drop = dropped.append
        a.send_packet(pkt)
        sim.run()
        assert dropped and switch.packets_unroutable == 1

    def test_double_attach_rejected(self):
        sim = Simulator()
        switch, (a, _) = make_lan(sim, 2)
        with pytest.raises(RoutingError):
            switch.attach(a)

    def test_conflicting_registration_rejected(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        a.add_address("10.0.0.1")
        with pytest.raises(RoutingError):
            b.add_address("10.0.0.1")

    def test_alias_registration_and_lookup(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        b.add_address("10.0.0.51")
        assert switch.lookup(IPv4Address("10.0.0.51")) is b
        assert switch.lookup(IPv4Address("10.0.0.52")) is None

    def test_port_stats_accumulate(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        a.send_packet(Packet(a.iface.primary, b.iface.primary, "udp", 500))
        sim.run()
        stats = switch.port_stats()
        assert stats["node1"]["tx_bytes"] == 500
        assert stats["node2"]["rx_bytes"] == 500

    def test_same_port_hairpin_for_cohosted_nodes(self):
        """Two virtual nodes on one physical node talk through one port."""
        sim = Simulator()
        switch, (a, _) = make_lan(sim, 2)
        a.add_address("10.0.0.1")
        a.add_address("10.0.0.2")
        got = []
        orig = a._deliver_local
        a._deliver_local = lambda p: got.append(p)
        pkt = Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "udp", 100)
        a.send_packet(pkt)
        sim.run()
        # Loopback short-circuit applies: both addresses are local.
        assert len(got) == 1
        a._deliver_local = orig


class TestStackFirewallPath:
    def test_outgoing_pipe_applied(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        a.add_address("10.0.0.1")
        b.add_address("10.0.0.51")
        up = a.fw.add_pipe(1, DummynetPipe(sim, bandwidth=1000.0, name="up"))
        a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.1"), direction=DIR_OUT)
        got = []
        b._deliver_local = lambda p: got.append(sim.now)
        a.send_packet(Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.51"), "udp", 1000))
        sim.run()
        assert got[0] >= 1.0  # dominated by 1000B / 1000B/s serialization
        assert up.packets_out == 1

    def test_incoming_pipe_applied(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        a.add_address("10.0.0.1")
        b.add_address("10.0.0.51")
        down = b.fw.add_pipe(1, DummynetPipe(sim, delay=0.5, name="down"))
        b.fw.add(ACTION_PIPE, pipe=1, dst=IPv4Address("10.0.0.51"), direction="in")
        got = []
        b._deliver_local = lambda p: got.append(sim.now)
        a.send_packet(Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.51"), "udp", 100))
        sim.run()
        assert got[0] >= 0.5
        assert down.packets_out == 1

    def test_deny_rule_drops(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        a.fw.add(ACTION_DENY, dst=IPv4Network("10.0.0.0/8"))
        a.add_address("10.0.0.1")
        b.add_address("10.0.0.51")
        dropped = []
        pkt = Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.51"), "udp", 100)
        pkt.on_drop = dropped.append
        a.send_packet(pkt)
        sim.run()
        assert dropped
        assert a.packets_denied == 1

    def test_rule_scan_cost_adds_latency(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)

        def measure():
            p = ping(sim, a, a.iface.primary, b.iface.primary, count=1)
            sim.run()
            return p.result.avg

        base = measure()
        for _ in range(10000):
            a.fw.add("count", src=IPv4Network("172.16.0.0/16"))
        loaded = measure()
        # A's list is scanned twice per RTT: echo request going out and
        # echo reply coming in (direction-less rules match both passes).
        assert loaded - base == pytest.approx(2 * 10000 * a.rule_eval_cost, rel=0.2)


class TestPing:
    def test_rtt_on_plain_lan(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        p = ping(sim, a, a.iface.primary, b.iface.primary, count=3, interval=0.1)
        sim.run()
        res = p.result
        assert res.received == 3
        # RTT = 2 * (port delay + serialization); ~120 us + epsilon.
        assert ms(0.1) < res.avg < ms(0.5)
        assert "rtt min/avg/max" in str(res)

    def test_ping_through_delay_pipes(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        a.add_address("10.0.0.1")
        b.add_address("10.0.0.51")
        # 20ms out of a, 5ms into b (like the paper's 853ms decomposition).
        a.fw.add_pipe(1, DummynetPipe(sim, delay=ms(20)))
        a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.1"), direction=DIR_OUT)
        b.fw.add_pipe(1, DummynetPipe(sim, delay=ms(5)))
        b.fw.add(ACTION_PIPE, pipe=1, dst=IPv4Address("10.0.0.51"), direction="in")
        # Reverse direction pipes.
        b.fw.add_pipe(2, DummynetPipe(sim, delay=ms(20)))
        b.fw.add(ACTION_PIPE, pipe=2, src=IPv4Address("10.0.0.51"), direction=DIR_OUT)
        a.fw.add_pipe(2, DummynetPipe(sim, delay=ms(5)))
        a.fw.add(ACTION_PIPE, pipe=2, dst=IPv4Address("10.0.0.1"), direction="in")
        p = ping(sim, a, "10.0.0.1", "10.0.0.51", count=1)
        sim.run()
        assert p.result.avg == pytest.approx(ms(50), rel=0.02)

    def test_lost_ping_times_out(self):
        sim = Simulator()
        switch, (a, b) = make_lan(sim, 2)
        a.fw.add(ACTION_DENY, proto="icmp")
        p = ping(sim, a, a.iface.primary, b.iface.primary, count=2, timeout=1.0, interval=0.5)
        sim.run()
        assert p.result.received == 0
        assert p.result.lost == 2

    def test_loopback_ping_is_fast(self):
        sim = Simulator()
        switch, (a, _) = make_lan(sim, 2)
        p = ping(sim, a, a.iface.primary, a.iface.primary, count=1)
        sim.run()
        assert p.result.avg == pytest.approx(2 * a.loopback_delay)


class TestRxPortDrops:
    """A packet lost on the receiver's switch port is a drop like any
    other: its ``on_drop`` runs, so TCP retransmits it."""

    def test_on_drop_runs_once_per_rx_port_drop(self):
        sim = Simulator(seed=3)
        switch, (a, b) = make_lan(sim, 2)
        rx = switch._ports["node2"].rx
        rx.reconfigure(plr=0.5)
        got, dropped = [], []
        b._deliver_local = got.append
        for _ in range(200):
            pkt = Packet(a.iface.primary, b.iface.primary, "udp", 100)
            pkt.on_drop = dropped.append
            a.send_packet(pkt)
        sim.run()
        assert 0 < rx.packets_dropped_loss < 200
        assert len(dropped) == rx.packets_dropped_loss
        assert len(got) == 200 - len(dropped)

    def test_tcp_transfer_completes_over_lossy_rx_port(self):
        sim = Simulator(seed=13)
        switch, (a, b) = make_lan(sim, 2)
        switch._ports["node2"].rx.reconfigure(plr=0.2)
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
            sock.bind((a.iface.primary, 0))
            raise_if_error((yield sock.connect((b.iface.primary, 5000))))
            for i in range(30):
                yield sock.send(i, 1000)
            sock.close()

        Process(sim, server())
        Process(sim, client())
        sim.run()
        assert received == list(range(30))
        assert sim.metrics.get("net.tcp.retransmissions").value > 0
