"""Small unit coverage: packet helpers, stack address lifecycle,
switch unregistration, errors hierarchy."""

import pytest

from repro import errors
from repro.net.addr import IPv4Address
from repro.net.packet import Packet
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.obs.flight import FlightRecorder
from repro.sim import Simulator


class TestPacketHelpers:
    def test_packet_ids_unique(self):
        """Ids are the flight recorder's: the packets it tracks are
        numbered 1..n in send order; the rest keep 0."""
        packets = [
            Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "udp", 1)
            for _ in range(4)
        ]
        assert [p.id for p in packets] == [0, 0, 0, 0]
        recorder = FlightRecorder(max_flights=3)
        for pkt in packets:
            recorder.send(pkt, "n", 0.0)
        recorder.send(packets[0], "n", 1.0)  # already tracked: not renumbered
        assert [p.id for p in packets] == [1, 2, 3, 0]
        assert [f.packet_id for f in recorder.flights()] == [1, 2, 3]
        assert recorder.flights_overflowed == 1


class TestStackAddressLifecycle:
    def test_remove_address_unregisters_from_switch(self):
        sim = Simulator()
        switch = Switch(sim)
        stack = NetworkStack(sim, "n", switch=switch)
        stack.set_admin_address("192.168.38.1")
        stack.add_address("10.0.0.1")
        assert switch.lookup(IPv4Address("10.0.0.1")) is stack
        stack.remove_address("10.0.0.1")
        assert switch.lookup(IPv4Address("10.0.0.1")) is None
        assert not stack.has_address("10.0.0.1")

    def test_standalone_stack_without_switch(self):
        sim = Simulator()
        stack = NetworkStack(sim, "lonely")
        stack.set_admin_address("192.168.38.1")
        stack.add_address("10.0.0.1")
        dropped = []
        pkt = Packet(IPv4Address("10.0.0.1"), IPv4Address("10.9.9.9"), "udp", 10)
        pkt.on_drop = dropped.append
        stack.send_packet(pkt)
        sim.run()
        assert dropped  # nowhere to go without a switch


class TestErrorsHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_socket_error_carries_errno_name(self):
        err = errors.ConnectionRefused("10.0.0.1:80")
        assert err.errno_name == "ECONNREFUSED"
        assert "10.0.0.1:80" in str(err)
        assert isinstance(err, errors.SocketError)
        assert isinstance(err, errors.NetworkError)

    @pytest.mark.parametrize(
        "cls,errno",
        [
            (errors.ConnectionReset, "ECONNRESET"),
            (errors.AddressInUse, "EADDRINUSE"),
            (errors.AddressNotAvailable, "EADDRNOTAVAIL"),
            (errors.InvalidSocketState, "EINVAL"),
        ],
    )
    def test_errno_names(self, cls, errno):
        assert cls().errno_name == errno
