"""UDP datagram transport: unreliable, unordered-if-the-network-reorders,
connectionless. Used by the ICMP-less measurement utilities and available
to applications (e.g. a UDP tracker variant)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import AddressInUse
from repro.net.addr import IPv4Address
from repro.net.packet import Packet, PROTO_UDP, UDP_HEADER
from repro.sim.process import Signal
from repro.sim.resources import Channel

Endpoint = Tuple[IPv4Address, int]


class UdpEndpoint:
    """A bound UDP port with a receive queue."""

    def __init__(self, udp: "UdpLayer", local: Endpoint) -> None:
        self.udp = udp
        self.local = local
        self.recv_channel = Channel(udp.stack.sim, name=f"udp.recv/{local}")
        self.closed = False
        self.datagrams_sent = 0
        self.datagrams_received = 0

    def sendto(self, payload, size: int, remote: Endpoint) -> None:
        """Fire-and-forget one datagram."""
        pkt = Packet(
            self.local[0],
            remote[0],
            PROTO_UDP,
            size + UDP_HEADER,
            sport=self.local[1],
            dport=remote[1],
            payload=payload,
        )
        self.datagrams_sent += 1
        self.udp.stack.send_packet(pkt)

    def recvfrom(self) -> Signal:
        """Signal firing with ``(payload, size, (src_ip, src_port))``."""
        return self.recv_channel.get()

    def deliver(self, pkt: Packet) -> None:
        if self.closed:
            return
        self.datagrams_received += 1
        self.recv_channel.put((pkt.payload, pkt.size - UDP_HEADER, (pkt.src, pkt.sport)))

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.udp.remove(self)
        self.recv_channel.close()


class UdpLayer:
    """Per-stack UDP demux table."""

    EPHEMERAL_BASE = 49152

    def __init__(self, stack) -> None:
        self.stack = stack
        self._endpoints: Dict[Tuple[int, int], UdpEndpoint] = {}
        self._next_ephemeral: Dict[int, int] = {}

    def bind(self, local: Endpoint) -> UdpEndpoint:
        key = (local[0].value, local[1])
        if key in self._endpoints:
            raise AddressInUse(f"udp {local[0]}:{local[1]}")
        ep = UdpEndpoint(self, local)
        self._endpoints[key] = ep
        return ep

    def alloc_ephemeral_port(self, local_ip: IPv4Address) -> int:
        key = local_ip.value
        port = self._next_ephemeral.get(key, self.EPHEMERAL_BASE)
        start = port
        while (key, port) in self._endpoints:
            port = port + 1 if port < 65535 else self.EPHEMERAL_BASE
            if port == start:
                raise AddressInUse(f"no free UDP ports on {local_ip}")
        self._next_ephemeral[key] = port + 1 if port < 65535 else self.EPHEMERAL_BASE
        return port

    def remove(self, ep: UdpEndpoint) -> None:
        self._endpoints.pop((ep.local[0].value, ep.local[1]), None)

    def find(self, dst: IPv4Address, dport: int) -> Optional[UdpEndpoint]:
        ep = self._endpoints.get((dst.value, dport))
        if ep is None:
            ep = self._endpoints.get((0, dport))  # INADDR_ANY
        return ep

    def handle_packet(self, pkt: Packet) -> None:
        ep = self.find(pkt.dst, pkt.dport)
        if ep is not None:
            ep.deliver(pkt)
        # No listener: a real stack would emit ICMP port-unreachable;
        # UDP senders here simply observe silence.
