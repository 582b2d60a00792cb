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

import itertools
from typing import Any

from repro.net.addr import IPv4Address

#: Bytes of L3+L4 header overhead applied to each message.
TCP_HEADER = 40
UDP_HEADER = 28
ICMP_HEADER = 28

PROTO_TCP = "tcp"
PROTO_UDP = "udp"
PROTO_ICMP = "icmp"

_packet_ids = itertools.count(1)


def swap_id_stream(stream: "itertools.count") -> "itertools.count":
    """Install ``stream`` as the packet-id source; return the old one.

    The packet-id counter is the one piece of process-global state the
    network layer owns. A ``fig10_cells`` cell
    (:func:`repro.experiments.fig10_scalability.run_fig10_partitioned`)
    runs on a fresh id stream swapped in around the whole cell, so its
    trace output is a function of the cell alone, not of which cells
    ran in the same process before it. Single-swarm code never needs
    this.
    """
    global _packet_ids
    prev = _packet_ids
    _packet_ids = stream
    return prev


class Packet:
    """One unit of traffic.

    Attributes
    ----------
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
        self.id = next(_packet_ids)
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

