"""The physical LAN interconnecting physical nodes.

GridExplorer nodes are connected by Gigabit Ethernet through a switch.
Each attached stack gets a full-duplex port modeled as two Dummynet
pipes (transmit and receive); the switch forwards by destination
address, which stacks register for all their interface addresses
(including virtual-node aliases).

This is the component whose saturation the paper identified as "the
first limiting factor" for the folding ratio experiment (Figure 9):
folding more virtual nodes onto fewer physical nodes concentrates their
aggregate traffic on fewer 1 Gbps ports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import RoutingError
from repro.net.addr import IPv4Address
from repro.net.packet import Packet
from repro.net.pipe import DummynetPipe
from repro.units import gbps, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stack import NetworkStack


class Port:
    """One full-duplex switch port."""

    __slots__ = ("stack", "tx", "rx", "deliver", "into_rx")

    def __init__(self, stack: "NetworkStack", tx: DummynetPipe, rx: DummynetPipe) -> None:
        self.stack = stack
        self.tx = tx  # node -> switch
        self.rx = rx  # switch -> node
        # The two continuations a forwarded packet is handed, bound
        # once per port rather than once per packet.
        self.deliver = stack.receive_from_wire
        self.into_rx = self._into_rx

    def _into_rx(self, pkt: Packet) -> None:
        """Second half of a forward: out of the sender's tx pipe, into
        this (the receiver's) rx pipe."""
        if not self.rx.transmit(pkt, self.deliver) and pkt.on_drop is not None:
            pkt.on_drop(pkt)


class Switch:
    """Address-learning L2 switch with per-port capacity."""

    def __init__(
        self,
        sim,
        port_bandwidth: float = gbps(1),
        port_delay: float = us(60),
        name: str = "switch",
    ) -> None:
        """
        Parameters
        ----------
        port_bandwidth:
            Capacity of each port direction in bytes/second (default 1 Gbps).
        port_delay:
            One-way wire+switch latency per port traversal (default 60 µs,
            calibrated so a 0-rule LAN RTT lands near Figure 6's intercept).
        """
        self.sim = sim
        self.name = name
        self.port_bandwidth = port_bandwidth
        self.port_delay = port_delay
        self._ports: Dict[str, Port] = {}
        self._addr_map: Dict[int, Port] = {}
        #: Sorted, disjoint ``(start, end, Port)`` half-open address
        #: runs — block registration from streaming deployment. A
        #: forwarding miss on ``_addr_map`` falls back to these and
        #: promotes the hit, so only a destination's first packet pays
        #: the scan (and idle destinations cost no map entry at all).
        self._addr_blocks: list = []
        self._block_holes: set = set()
        self.packets_forwarded = 0
        self.packets_unroutable = 0

    # ------------------------------------------------------------------
    def attach(self, stack: "NetworkStack") -> Port:
        """Create a port for ``stack`` and remember it by name."""
        if stack.name in self._ports:
            raise RoutingError(f"stack {stack.name!r} already attached to {self.name}")
        tx = DummynetPipe(
            self.sim,
            bandwidth=self.port_bandwidth,
            delay=self.port_delay / 2,
            name=f"{self.name}.{stack.name}.tx",
            owner=self.name,
        )
        rx = DummynetPipe(
            self.sim,
            bandwidth=self.port_bandwidth,
            delay=self.port_delay / 2,
            name=f"{self.name}.{stack.name}.rx",
            owner=self.name,
        )
        port = Port(stack, tx, rx)
        self._ports[stack.name] = port
        return port

    def register_address(self, addr: IPv4Address, stack: "NetworkStack") -> None:
        """Learn that ``addr`` lives behind ``stack``'s port."""
        port = self._ports.get(stack.name)
        if port is None:
            raise RoutingError(f"stack {stack.name!r} not attached to {self.name}")
        existing = self._addr_map.get(addr.value)
        if existing is None and self._addr_blocks:
            existing = self._block_port(addr.value)
        if existing is not None and existing is not port:
            raise RoutingError(
                f"{addr} already registered to {existing.stack.name!r}"
            )
        self._block_holes.discard(addr.value)
        self._addr_map[addr.value] = port

    def register_address_block(
        self, start: int, end: int, stack: "NetworkStack"
    ) -> None:
        """Learn that the contiguous run ``[start, end)`` lives behind
        ``stack``'s port, in O(1) — block placement registers each
        physical node's slice this way."""
        port = self._ports.get(stack.name)
        if port is None:
            raise RoutingError(f"stack {stack.name!r} not attached to {self.name}")
        if end <= start:
            raise RoutingError(f"empty address block [{start}, {end})")
        for lo, hi, other in self._addr_blocks:
            if start < hi and lo < end and other is not port:
                raise RoutingError(
                    f"address block [{start}, {end}) overlaps one "
                    f"registered to {other.stack.name!r}"
                )
        self._addr_blocks.append((start, end, port))
        self._addr_blocks.sort(key=lambda b: (b[0], b[1]))

    def _block_port(self, value: int) -> Optional[Port]:
        """Block fallback for a ``_addr_map`` miss; a hit is promoted
        into the map so only the first packet per destination scans."""
        for lo, hi, port in self._addr_blocks:
            if lo <= value < hi:
                if value in self._block_holes:
                    return None
                self._addr_map[value] = port
                return port
        return None

    def unregister_address(self, addr: IPv4Address) -> None:
        self._addr_map.pop(addr.value, None)
        if self._addr_blocks:
            value = addr.value
            for lo, hi, _port in self._addr_blocks:
                if lo <= value < hi:
                    self._block_holes.add(value)
                    return

    def lookup(self, addr: IPv4Address) -> Optional["NetworkStack"]:
        port = self._addr_map.get(addr.value)
        if port is None and self._addr_blocks:
            port = self._block_port(addr.value)
        return port.stack if port is not None else None

    # ------------------------------------------------------------------
    def forward(self, packet: Packet, from_stack: "NetworkStack") -> bool:
        """Carry ``packet`` from ``from_stack`` to the owner of its dst.

        The packet traverses the sender's tx pipe, then the receiver's
        rx pipe, then is handed to the receiving stack. Returns False if
        the destination is unknown (packet silently dropped, as a real
        switch would flood-and-fail).
        """
        src_port = self._ports.get(from_stack.name)
        if src_port is None:
            raise RoutingError(f"stack {from_stack.name!r} not attached to {self.name}")
        dst_port = self._addr_map.get(packet.dst.value)
        if dst_port is None:
            if self._addr_blocks:
                dst_port = self._block_port(packet.dst.value)
            if dst_port is None:
                self.packets_unroutable += 1
                return False
        self.packets_forwarded += 1

        if dst_port is src_port:
            # Same physical node: hairpin through the tx pipe only, so
            # co-hosted virtual nodes still contend for the port once.
            return src_port.tx.transmit(packet, dst_port.deliver)
        return src_port.tx.transmit(packet, dst_port.into_rx)

    # ------------------------------------------------------------------
    def port_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-port byte counters (for saturation analysis)."""
        return {
            name: {
                "tx_bytes": port.tx.bytes_out,
                "rx_bytes": port.rx.bytes_out,
                "tx_dropped": port.tx.packets_dropped_queue + port.tx.packets_dropped_loss,
                "rx_dropped": port.rx.packets_dropped_queue + port.rx.packets_dropped_loss,
            }
            for name, port in self._ports.items()
        }

    def __len__(self) -> int:
        return len(self._ports)
