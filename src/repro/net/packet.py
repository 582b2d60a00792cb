"""Packet objects flowing through the emulated network.

The emulation is message-level rather than MTU-level: one
:class:`Packet` carries one transport message (a TCP segment holding a
whole protocol message, a UDP datagram, or an ICMP echo). Its ``size``
includes header overhead, and Dummynet pipes serialize it at
``size / bandwidth`` — the same first-order behaviour as a burst of
MTU-sized frames, at a fraction of the event count. This is the key
trade-off that lets the Figure 10/11 scalability runs (5754 clients)
fit in a Python event loop.
"""

from __future__ import annotations

from typing import Any

from repro.net.addr import IPv4Address

#: Bytes of L3+L4 header overhead applied to each message.
TCP_HEADER = 40
UDP_HEADER = 28
ICMP_HEADER = 28

PROTO_TCP = "tcp"
PROTO_UDP = "udp"
PROTO_ICMP = "icmp"

class Packet:
    """One unit of traffic.

    Attributes
    ----------
    id:
        ``0`` until a :class:`~repro.obs.flight.FlightRecorder` starts
        tracking the packet and numbers it (1, 2, ... per recorder).
    src, dst:
        Source / destination IPv4 addresses.
    proto:
        One of ``"tcp"``, ``"udp"``, ``"icmp"``.
    size:
        Total on-wire size in bytes (payload + headers); what pipes
        charge against bandwidth.
    sport, dport:
        Transport ports (0 for ICMP).
    payload:
        Arbitrary transport/application payload object.
    kind:
        Transport-level kind tag (e.g. ``"syn"``, ``"data"``, ``"fin"``,
        ``"echo"``); interpreted by the receiving stack.
    on_drop:
        Optional callable invoked (with the packet) if any pipe on the
        path drops the packet; transports hook retransmission here.
    flow:
        Optional flow label for the flight recorder (stamped by the
        transport or, lazily, by :class:`~repro.obs.flight.FlightRecorder`).
        ``None`` when flight recording is off — zero per-packet cost.
    """

    __slots__ = (
        "id", "src", "dst", "proto", "size", "sport", "dport", "payload", "kind", "on_drop",
        "flow",
    )

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        proto: str,
        size: int,
        sport: int = 0,
        dport: int = 0,
        payload: Any = None,
        kind: str = "data",
    ) -> None:
        self.id = 0
        self.src = src
        self.dst = dst
        self.proto = proto
        self.size = size
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.kind = kind
        self.on_drop = None
        self.flow = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.id} {self.proto}/{self.kind} "
            f"{self.src}:{self.sport} -> {self.dst}:{self.dport}, {self.size}B)"
        )

