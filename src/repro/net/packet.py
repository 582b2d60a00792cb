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
from typing import Any, Optional

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
    network layer owns. The partition driver
    (:mod:`repro.sim.partition`) gives every cell its *own* id stream —
    swapped in around each build/run/finish slice — so a cell's
    flight and trace output is a function of the cell alone, not of
    which other cells happen to share the worker process. Single-cell
    code never needs this.
    """
    global _packet_ids
    prev = _packet_ids
    _packet_ids = stream
    return prev

#: Free list for :func:`acquire`/:func:`release` (bounded).
_pool: list = []
POOL_CAP = 2048

#: Wall-clock observability: how many acquires were served from the
#: pool instead of allocating. Never part of deterministic output.
packets_reused = 0


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
    pooled:
        True when the packet was allocated through :func:`acquire` and
        its lifecycle is owned by the stack/transport layers, making it
        eligible for :func:`release` back to the free list. Packets
        built directly (tests, user code) are never recycled.
    """

    __slots__ = (
        "id", "src", "dst", "proto", "size", "sport", "dport", "payload", "kind", "on_drop",
        "flow", "pooled",
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
        self.pooled = False

    def reply_template(self, proto: Optional[str] = None) -> "Packet":
        """A packet headed back to this packet's source (ports swapped)."""
        return Packet(
            src=self.dst,
            dst=self.src,
            proto=proto or self.proto,
            size=self.size,
            sport=self.dport,
            dport=self.sport,
            kind=self.kind,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.id} {self.proto}/{self.kind} "
            f"{self.src}:{self.sport} -> {self.dst}:{self.dport}, {self.size}B)"
        )


# ----------------------------------------------------------------------
# Packet pool (hot-path allocation cut; see DESIGN.md)
# ----------------------------------------------------------------------
def acquire(
    src: IPv4Address,
    dst: IPv4Address,
    proto: str,
    size: int,
    sport: int = 0,
    dport: int = 0,
    payload: Any = None,
    kind: str = "data",
) -> Packet:
    """Allocate a packet, reusing a released one when available.

    Observationally identical to constructing :class:`Packet` directly:
    a reused packet draws a **fresh id** from the same global counter
    (one id per logical packet either way, so the id stream — and hence
    flight/trace output — is byte-identical with pooling on or off) and
    every field is reset. The only difference is wall-clock allocation
    cost. The pool is only ever *fed* while the owning simulator's
    ``allow_packet_reuse`` flag is set (see :class:`NetworkStack`): a
    packet tap clears it for good.
    """
    if _pool:
        global packets_reused
        pkt = _pool.pop()
        pkt.id = next(_packet_ids)
        pkt.src = src
        pkt.dst = dst
        pkt.proto = proto
        pkt.size = size
        pkt.sport = sport
        pkt.dport = dport
        pkt.payload = payload
        pkt.kind = kind
        pkt.on_drop = None
        pkt.flow = None
        packets_reused += 1
        return pkt
    pkt = Packet(src, dst, proto, size, sport, dport, payload, kind)
    pkt.pooled = True
    return pkt


def release(pkt: Packet) -> None:
    """Return a dead pooled packet to the free list.

    Callers must prove the packet is unreferenced (the stack's delivery
    tail uses a refcount gate). Payload/callback references are cleared
    so the pool never pins transport state.
    """
    if len(_pool) < POOL_CAP:
        pkt.payload = None
        pkt.on_drop = None
        pkt.flow = None
        _pool.append(pkt)


def retag(pkt: Packet, src: IPv4Address, dst: IPv4Address, kind: str) -> Packet:
    """Reuse ``pkt`` in place as a logically new packet (fresh id).

    Used for turnaround replies (ICMP echo) where the request dies in
    the same callback that builds the response: same ``proto``/``size``/
    ``payload``, new endpoints and kind. Draws one id, exactly like the
    reply construction it replaces.
    """
    pkt.id = next(_packet_ids)
    pkt.src = src
    pkt.dst = dst
    pkt.kind = kind
    pkt.on_drop = None
    pkt.flow = None
    return pkt
