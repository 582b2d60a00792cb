"""Packet flight recorder: hop-by-hop lifecycle of every packet.

The aggregate instruments (:mod:`repro.obs.metrics`) answer "how many
rules were scanned in total?"; the flight recorder answers "where did
*this* packet's 300 ms go?". Every :class:`~repro.net.packet.Packet`
that enters a stack while recording is enabled gets a
:class:`PacketFlight`: an ordered list of :class:`Hop` records covering
its full path —

    NIC enqueue → ipfw rule match (rule numbers, linear-vs-indexed
    lookup cost) → pipe queue wait / serialization / propagation (or
    drop, with the reason) → delivery → TCP ack

Each hop stores its absolute sim-time boundaries ``t0``/``t1``; the
boundaries are recorded with *exactly the arithmetic the scheduler
uses* (``now + delay``), so consecutive hops tile the interval
``[t_send, t_deliver]`` with bit-exact contiguity and the per-hop
latency decomposition sums to the packet's end-to-end latency.

Packet ids belong to the recorder: it numbers each packet it starts
tracking 1, 2, ... (an untracked packet keeps id 0), so two
simulations in one process number their packets alike.

Everything here is keyed to the deterministic simulation clock, so a
flight export is byte-identical across same-seed runs. The disabled
mode is :data:`NULL_FLIGHT`, a shared no-op recorder following the
same zero-overhead convention as ``NULL_REGISTRY``: components cache
the recorder at construction and guard hop recording with a single
``enabled`` attribute test.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Hop kinds (the lifecycle stages).
HOP_NIC = "nic"          # instant: packet handed to the stack (NIC enqueue)
HOP_IPFW = "ipfw"        # firewall rule match (duration = scanned * rule cost)
HOP_LOOPBACK = "lo0"     # kernel loopback latency (true or co-hosted)
HOP_PIPE = "pipe"        # Dummynet pipe: queue wait + serialization + delay
HOP_DELIVER = "deliver"  # instant: handed to the local transport demux
HOP_ACK = "tcp.ack"      # instant: transport-level acknowledgement
HOP_DROP = "drop"        # instant: the packet died here

#: Flight status values.
STATUS_IN_FLIGHT = "in_flight"
STATUS_DELIVERED = "delivered"
STATUS_DROPPED = "dropped"
STATUS_DENIED = "denied"


class Hop:
    """One stage of a packet's flight.

    ``t0``/``t1`` are absolute sim-times; instant stages have
    ``t1 == t0``. ``detail`` carries stage-specific fields (rule
    numbers scanned, queue wait vs serialization split, pipe name,
    drop reason, ...).
    """

    __slots__ = ("kind", "node", "t0", "t1", "detail")

    def __init__(
        self,
        kind: str,
        node: str,
        t0: float,
        t1: float,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.node = node
        self.t0 = t0
        self.t1 = t1
        self.detail = detail if detail is not None else {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "node": self.node,
            "t0": self.t0,
            "t1": self.t1,
            "detail": dict(sorted(self.detail.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hop({self.kind} @{self.node} "
            f"{self.t0:.6f}..{self.t1:.6f} {self.detail})"
        )


class PacketFlight:
    """The recorded lifecycle of one packet."""

    __slots__ = (
        "packet_id", "flow", "src", "dst", "proto", "kind", "size",
        "t_send", "t_end", "status", "hops",
    )

    def __init__(
        self,
        packet_id: int,
        flow: str,
        src: str,
        dst: str,
        proto: str,
        kind: str,
        size: int,
        t_send: float,
    ) -> None:
        self.packet_id = packet_id
        self.flow = flow
        self.src = src
        self.dst = dst
        self.proto = proto
        self.kind = kind
        self.size = size
        self.t_send = t_send
        self.t_end: Optional[float] = None
        self.status = STATUS_IN_FLIGHT
        self.hops: List[Hop] = []

    # -- derived views -------------------------------------------------
    @property
    def latency(self) -> Optional[float]:
        """End-to-end sim latency (None while in flight)."""
        return None if self.t_end is None else self.t_end - self.t_send

    def timed_hops(self) -> List[Hop]:
        """Hops with nonzero extent plus instants, in time order."""
        return sorted(self.hops, key=lambda h: (h.t0, h.t1))

    def decomposition(self) -> List[Tuple[str, float]]:
        """Per-hop latency decomposition ``[(label, seconds), ...]``.

        Durations are differences of the recorded absolute boundaries.
        Because every boundary is produced by the same ``now + delay``
        arithmetic the scheduler uses, consecutive timed hops tile
        ``[t_send, t_end]`` exactly; :meth:`contiguous` verifies the
        tiling bit-for-bit.
        """
        out: List[Tuple[str, float]] = []
        for hop in self.timed_hops():
            if hop.t1 == hop.t0:
                continue  # instants carry no latency
            label = hop.kind
            name = hop.detail.get("pipe") or hop.detail.get("direction")
            if name:
                label = f"{hop.kind}:{name}"
            out.append((f"{label}@{hop.node}", hop.duration))
        return out

    def contiguous(self) -> bool:
        """True when the timed hops tile ``[t_send, t_end]`` exactly."""
        if self.t_end is None:
            return False
        cursor = self.t_send
        for hop in self.timed_hops():
            if hop.t1 == hop.t0:
                continue
            if hop.t0 != cursor:
                return False
            cursor = hop.t1
        return cursor == self.t_end

    def as_dict(self) -> Dict[str, Any]:
        return {
            "packet_id": self.packet_id,
            "flow": self.flow,
            "src": self.src,
            "dst": self.dst,
            "proto": self.proto,
            "kind": self.kind,
            "size": self.size,
            "t_send": self.t_send,
            "t_end": self.t_end,
            "status": self.status,
            "hops": [h.as_dict() for h in self.hops],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketFlight(#{self.packet_id} {self.flow} "
            f"{self.status}, hops={len(self.hops)})"
        )


class FlightRecorder:
    """Records :class:`PacketFlight` objects for every packet sighted.

    One recorder serves the whole testbed (it lives on the simulator as
    ``sim.flight``); stacks, pipes and transports call into it from
    their hot paths, each call guarded by the ``enabled`` attribute so
    the disabled mode costs one attribute load and a bool test.

    ``max_flights`` bounds memory on long runs: once the limit is
    reached, completed flights are still finalized but no new flights
    start (``flights_overflowed`` counts the misses).
    """

    enabled = True

    def __init__(self, max_flights: Optional[int] = None) -> None:
        self._flights: Dict[int, PacketFlight] = {}
        self._last_id = 0
        self.max_flights = max_flights
        self.flights_overflowed = 0

    # -- lifecycle hooks (called from the network layers) ---------------
    def send(self, pkt, node: str, now: float) -> None:
        """The packet entered ``node``'s stack (NIC enqueue).

        A packet seen for the first time gets this recorder's next id
        (1, 2, ...); one past ``max_flights`` keeps id 0, which no
        flight is filed under.
        """
        if pkt.id:
            return  # already tracked
        if self.max_flights is not None and len(self._flights) >= self.max_flights:
            self.flights_overflowed += 1
            return
        self._last_id += 1
        pkt.id = self._last_id
        flow = pkt.flow
        if flow is None:
            flow = f"{pkt.proto}:{pkt.src}:{pkt.sport}->{pkt.dst}:{pkt.dport}"
            pkt.flow = flow
        flight = PacketFlight(
            packet_id=pkt.id,
            flow=flow,
            src=str(pkt.src),
            dst=str(pkt.dst),
            proto=pkt.proto,
            kind=pkt.kind,
            size=pkt.size,
            t_send=now,
        )
        flight.hops.append(Hop(HOP_NIC, node, now, now))
        self._flights[pkt.id] = flight

    def ipfw(
        self,
        pkt,
        node: str,
        direction: str,
        now: float,
        t1: float,
        scanned: int,
        matched: Tuple[int, ...],
        indexed: bool,
    ) -> None:
        """The firewall evaluated the packet over ``[now, t1]``."""
        flight = self._flights.get(pkt.id)
        if flight is None:
            return
        flight.hops.append(
            Hop(
                HOP_IPFW,
                node,
                now,
                t1,
                {
                    "direction": direction,
                    "scanned": scanned,
                    "matched": list(matched),
                    "lookup": "indexed" if indexed else "linear",
                },
            )
        )

    def loopback(self, pkt, node: str, now: float, t1: float) -> None:
        flight = self._flights.get(pkt.id)
        if flight is None:
            return
        flight.hops.append(Hop(HOP_LOOPBACK, node, now, t1))

    def pipe(
        self,
        pkt,
        node: str,
        pipe_name: str,
        now: float,
        t1: float,
        wait: float,
        txn: float,
        delay: float,
        backlog_bytes: float,
    ) -> None:
        """The packet traversed a Dummynet pipe over ``[now, t1]``.

        ``node`` is the pipe's owner (the pnode whose kernel runs it, or
        ``"switch"`` for fabric pipes); ``wait``/``txn``/``delay`` are
        the nominal queue-wait, serialization and propagation components
        (their rounded sum is ``t1 - now``); ``backlog_bytes`` is the
        queue occupancy found on arrival.
        """
        flight = self._flights.get(pkt.id)
        if flight is None:
            return
        flight.hops.append(
            Hop(
                HOP_PIPE,
                node,
                now,
                t1,
                {
                    "pipe": pipe_name,
                    "wait": wait,
                    "serialize": txn,
                    "propagate": delay,
                    "backlog_bytes": backlog_bytes,
                },
            )
        )

    def deliver(self, pkt, node: str, now: float) -> None:
        """The packet reached the local transport demux — flight over."""
        flight = self._flights.get(pkt.id)
        if flight is None:
            return
        flight.hops.append(Hop(HOP_DELIVER, node, now, now))
        flight.t_end = now
        flight.status = STATUS_DELIVERED

    def drop(self, pkt, node: str, now: float, reason: str) -> None:
        """A pipe (or queue) killed the packet."""
        flight = self._flights.get(pkt.id)
        if flight is None:
            return
        flight.hops.append(Hop(HOP_DROP, node, now, now, {"reason": reason}))
        flight.t_end = now
        flight.status = STATUS_DROPPED

    def deny(self, pkt, node: str, now: float, direction: str) -> None:
        """The firewall denied the packet."""
        flight = self._flights.get(pkt.id)
        if flight is None:
            return
        flight.hops.append(
            Hop(HOP_DROP, node, now, now, {"reason": f"ipfw-deny-{direction}"})
        )
        flight.t_end = now
        flight.status = STATUS_DENIED

    def ack(
        self, packet_id: int, node: str, now: float, rtt: Optional[float] = None
    ) -> None:
        """Transport-level acknowledgement of the packet's payload.

        Takes the packet *id* (transports track segments, not packets;
        a retransmitted segment acknowledges its latest packet).
        """
        flight = self._flights.get(packet_id)
        if flight is None:
            return
        detail: Dict[str, Any] = {}
        if rtt is not None:
            detail["rtt"] = rtt
        flight.hops.append(Hop(HOP_ACK, node, now, now, detail))

    # -- introspection -------------------------------------------------
    def get(self, packet_id: int) -> Optional[PacketFlight]:
        return self._flights.get(packet_id)

    def flights(self, status: Optional[str] = None) -> List[PacketFlight]:
        """All flights in packet-id (i.e. first-send) order."""
        out = list(self._flights.values())
        if status is not None:
            out = [f for f in out if f.status == status]
        return out

    def by_flow(self, flow: str) -> List[PacketFlight]:
        return [f for f in self.flights() if f.flow == flow]

    def as_list(self) -> List[Dict[str, Any]]:
        return [f.as_dict() for f in self.flights()]

    def clear(self) -> None:
        self._flights.clear()
        self.flights_overflowed = 0

    def __len__(self) -> int:
        return len(self._flights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightRecorder({len(self._flights)} flights)"


class NullFlightRecorder:
    """Do-nothing recorder: the zero-overhead disabled mode.

    Hot paths guard calls with ``if flight.enabled:`` so the disabled
    cost is one attribute load; even unguarded calls are empty methods
    on a ``__slots__ = ()`` singleton.
    """

    __slots__ = ()
    enabled = False
    max_flights = 0
    flights_overflowed = 0

    def send(self, pkt, node: str, now: float) -> None:
        pass

    def ipfw(self, pkt, node, direction, now, t1, scanned, matched, indexed) -> None:
        pass

    def loopback(self, pkt, node, now, t1) -> None:
        pass

    def pipe(
        self, pkt, node, pipe_name, now, t1, wait, txn, delay, backlog_bytes
    ) -> None:
        pass

    def deliver(self, pkt, node, now) -> None:
        pass

    def drop(self, pkt, node, now, reason) -> None:
        pass

    def deny(self, pkt, node, now, direction) -> None:
        pass

    def ack(self, packet_id, node, now, rtt=None) -> None:
        pass

    def get(self, packet_id: int) -> None:
        return None

    def flights(self, status: Optional[str] = None) -> List[PacketFlight]:
        return []

    def by_flow(self, flow: str) -> List[PacketFlight]:
        return []

    def as_list(self) -> List[Dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullFlightRecorder()"


#: Shared disabled recorder.
NULL_FLIGHT = NullFlightRecorder()
