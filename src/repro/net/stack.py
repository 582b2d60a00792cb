"""Per-physical-node network stack.

Ties together one interface (with virtual-node aliases), the node's
IPFW firewall with its Dummynet pipes, the transports, and the switch
uplink. This is where the paper's *decentralized* emulation model
lives: "each physical node is in charge of the network emulation for
its virtual nodes" — outgoing packets are shaped by the sender's rules,
incoming packets by the receiver's rules, and nothing central exists.

Packet walk for ``A -> B`` (different physical nodes)::

    A.send_packet
      └ A.fw.evaluate(out)  -> rule-scan latency + matched pipes
          └ pipe chain (e.g. vnode upload pipe, inter-group delay pipe)
              └ switch: A's tx port pipe -> B's rx port pipe
                  └ B.receive_from_wire
                      └ B.fw.evaluate(in) -> latency + matched pipes
                          └ pipe chain (e.g. vnode download pipe)
                              └ transport demux (tcp/udp/icmp)

Loopback traffic (both addresses on this stack) skips the firewall and
the switch, as FreeBSD's ``lo0`` short-circuit does; it costs a fixed
small latency calibrated against the paper's 10.22 µs connect cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.addr import IPv4Address, ip
from repro.net.ipfw import DIR_IN, DIR_OUT, Firewall
from repro.net.nic import Interface
from repro.net.packet import (
    ICMP_HEADER,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.net.pipe import DummynetPipe
from repro.net.switch import Switch
from repro.net.tcp import TcpLayer
from repro.net.udp import UdpLayer
from repro.obs.flight import NULL_FLIGHT
from repro.sim.process import Signal

#: Cost of scanning one IPFW rule, calibrated to Figure 6 of the paper
#: (~5 ms of extra RTT at 50 000 rules, two firewall passes per RTT).
DEFAULT_RULE_EVAL_COST = 50e-9

#: One-way loopback latency, calibrated so the connect/disconnect
#: microbenchmark lands at the paper's 10.22 µs (see repro.virt.libc).
DEFAULT_LOOPBACK_DELAY = 4.255e-6


class _Hop:
    """One pipe of a compiled chain and where its packets go next."""

    __slots__ = ("pipe", "deliver")

    def __init__(self, pipe: DummynetPipe, deliver: Callable[[Packet], None]) -> None:
        self.pipe = pipe
        self.deliver = deliver

    def send(self, pkt: Packet) -> None:
        if not self.pipe.transmit(pkt, self.deliver) and pkt.on_drop is not None:
            pkt.on_drop(pkt)


def _compile_chain(
    pipes: Tuple[DummynetPipe, ...], final: Callable[[Packet], None]
) -> Callable[[Packet], None]:
    """Entry point of the walk through ``pipes`` that ends in ``final``.

    Built back to front, each hop holding the next hop's bound ``send``
    (the last one ``final``), so a packet's walk allocates nothing:
    every pipe delivery is one kernel event whose callback already
    exists. The stack keeps the result on the verdict it was built for
    (``Verdict.to_switch`` / ``to_host`` / ``to_local``) — a chain is
    compiled once per (verdict, continuation) and dies with the verdict
    in ``Firewall._invalidate()``.
    """
    for pipe in reversed(pipes):
        final = _Hop(pipe, final).send
    return final


class NetworkStack:
    """The network personality of one physical node."""

    def __init__(
        self,
        sim,
        name: str,
        switch: Optional[Switch] = None,
        rule_eval_cost: float = DEFAULT_RULE_EVAL_COST,
        loopback_delay: float = DEFAULT_LOOPBACK_DELAY,
        tcp_explicit_acks: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        #: Flight recorder, cached at construction (NULL when disabled).
        self.flight = getattr(sim, "flight", NULL_FLIGHT)
        #: Packet taps (sniffers). Egress taps fire *after* the outgoing
        #: firewall verdict allows the packet — captures reflect what
        #: actually crossed the wire, never ipfw-denied traffic.
        #: Ingress taps fire on wire arrival, before the inbound verdict
        #: (the packet did cross the wire even if ipfw then denies it).
        self._egress_taps: List[Callable[[Packet], None]] = []
        self._ingress_taps: List[Callable[[Packet], None]] = []
        self.iface = Interface("eth0")
        #: Cached live view of the interface's configured address
        #: values (the set is mutated in place by alias changes, never
        #: rebound) — per-packet local-destination checks are a raw set
        #: membership with no method call.
        self._local_values = self.iface.local_values
        #: Same contract for the interface's alias blocks: the live
        #: list, consulted (via the interface, which promotes hits into
        #: the set) only when the set misses and blocks exist.
        self._local_blocks = self.iface.alias_blocks
        self.fw = Firewall(name=f"ipfw/{name}", metrics=getattr(sim, "metrics", None))
        self.tcp = TcpLayer(self, explicit_acks=tcp_explicit_acks)
        self.udp = UdpLayer(self)
        self.switch = switch
        self.rule_eval_cost = rule_eval_cost
        self.loopback_delay = loopback_delay
        self._icmp_pending: Dict[int, Tuple[float, Signal]] = {}
        self._icmp_ident = 0
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_denied = 0
        if switch is not None:
            switch.attach(self)

    # -- addressing ------------------------------------------------------
    def set_admin_address(self, addr: Union[IPv4Address, str]) -> IPv4Address:
        """Set the primary (administration) address of the node."""
        addr = ip(addr)
        self.iface.set_primary(addr)
        if self.switch is not None:
            self.switch.register_address(addr, self)
        return addr

    def add_address(self, addr: Union[IPv4Address, str]) -> IPv4Address:
        """Add a virtual-node alias address."""
        addr = self.iface.add_alias(addr)
        if self.switch is not None:
            self.switch.register_address(addr, self)
        return addr

    def add_address_block(self, start: int, end: int) -> None:
        """Add the contiguous alias run ``[start, end)`` in one call —
        the streaming deployment path's O(1)-per-slice registration
        (interface aliases + switch learning together)."""
        self.iface.add_alias_block(start, end)
        if self.switch is not None:
            self.switch.register_address_block(start, end, self)

    def is_local_value(self, value: int) -> bool:
        """Is ``value`` one of this stack's configured addresses?
        Set-first with block fallback — the out-of-line twin of the
        inlined per-packet check in :meth:`send`."""
        return value in self._local_values or self.iface.check_block(value)

    def remove_address(self, addr: Union[IPv4Address, str]) -> None:
        addr = ip(addr)
        self.iface.remove_alias(addr)
        if self.switch is not None:
            self.switch.unregister_address(addr)

    def has_address(self, addr: Union[IPv4Address, str, int]) -> bool:
        return self.iface.has_address(addr)

    # -- packet taps (sniffers) ------------------------------------------
    def add_tap(
        self, tap: Callable[[Packet], None], direction: str = DIR_OUT
    ) -> None:
        """Attach a packet tap. ``direction="out"`` observes egress
        *after* the outgoing firewall allows the packet; ``"in"``
        observes wire arrivals before the inbound verdict."""
        taps = self._egress_taps if direction == DIR_OUT else self._ingress_taps
        taps.append(tap)
        # A tap must observe real packets: any fluid flow touching this
        # stack de-fluidizes, materializing its remaining bytes back
        # onto the packet path at the flow's current offset.
        fluid = self.sim.fluid
        if fluid is not None:
            fluid.on_tap_attached(self)

    def remove_tap(self, tap: Callable[[Packet], None]) -> None:
        """Detach a tap from whichever direction it is attached to."""
        for taps in (self._egress_taps, self._ingress_taps):
            if tap in taps:
                taps.remove(tap)

    # -- egress ------------------------------------------------------------
    def send_packet(self, pkt: Packet) -> None:
        """Emit a packet from this node (transport layers call this)."""
        self.packets_sent += 1
        iface = self.iface
        iface.tx_packets += 1
        iface.tx_bytes += pkt.size
        sim = self.sim
        flight = self.flight
        if flight.enabled:
            flight.send(pkt, self.name, sim.now)
        if pkt.src.value == pkt.dst.value:
            # True loopback (same identity): no firewall, no pipes,
            # constant kernel latency.
            if flight.enabled:
                flight.loopback(
                    pkt, self.name, sim.now, sim.now + self.loopback_delay
                )
            if self._egress_taps:
                for tap in self._egress_taps:
                    tap(pkt)
            sim.schedule(self.loopback_delay, self._deliver_local, pkt)
            return
        verdict = self.fw.evaluate(pkt, DIR_OUT)
        extra = verdict.scanned * self.rule_eval_cost
        if not verdict.allowed:
            self.packets_denied += 1
            if flight.enabled:
                # The scan happened but the packet goes nowhere: record
                # the verdict detail as an instant, then the denial. No
                # sim latency is charged (no event is scheduled).
                flight.ipfw(
                    pkt, self.name, DIR_OUT, sim.now, sim.now,
                    verdict.scanned, verdict.matched, self.fw.indexed,
                )
                flight.deny(pkt, self.name, sim.now, DIR_OUT)
            if pkt.on_drop is not None:
                pkt.on_drop(pkt)
            return
        if flight.enabled:
            flight.ipfw(
                pkt, self.name, DIR_OUT, sim.now, sim.now + extra,
                verdict.scanned, verdict.matched, self.fw.indexed,
            )
        if self._egress_taps:
            # After the allow verdict: denied packets never reach taps.
            for tap in self._egress_taps:
                tap(pkt)
        if pkt.dst.value in self._local_values or (
            self._local_blocks and self.iface.check_block(pkt.dst.value)
        ):
            # Co-hosted virtual nodes: traffic stays on this host (lo0)
            # but IPFW/Dummynet still shape it in both directions — this
            # is what keeps folded experiments faithful (Figure 9). The
            # loopback kernel cost also bounds callback recursion depth.
            if flight.enabled:
                # Boundaries use the same arithmetic the schedule below
                # uses, so hops tile exactly.
                flight.loopback(
                    pkt,
                    self.name,
                    sim.now + extra,
                    sim.now + (extra + self.loopback_delay),
                )
            entry = verdict.to_host
            if entry is None:
                entry = verdict.to_host = _compile_chain(
                    verdict.pipes, self.receive_from_wire
                )
            extra += self.loopback_delay
        else:
            entry = verdict.to_switch
            if entry is None:
                entry = verdict.to_switch = _compile_chain(
                    verdict.pipes, self._to_switch
                )
        # The rule-scan latency is one event in front of the first hop.
        if extra > 0.0:
            sim.schedule(extra, entry, pkt)
        else:
            entry(pkt)

    def _to_switch(self, pkt: Packet) -> None:
        if self.switch is None:
            if pkt.on_drop is not None:
                pkt.on_drop(pkt)
            return
        if not self.switch.forward(pkt, self) and pkt.on_drop is not None:
            pkt.on_drop(pkt)

    # -- ingress -------------------------------------------------------------
    def receive_from_wire(self, pkt: Packet) -> None:
        """Called by the switch when a packet arrives at this node."""
        sim = self.sim
        flight = self.flight
        if self._ingress_taps:
            # Before the inbound verdict: the packet did cross the wire.
            for tap in self._ingress_taps:
                tap(pkt)
        verdict = self.fw.evaluate(pkt, DIR_IN)
        extra = verdict.scanned * self.rule_eval_cost
        if not verdict.allowed:
            self.packets_denied += 1
            if flight.enabled:
                flight.ipfw(
                    pkt, self.name, DIR_IN, sim.now, sim.now,
                    verdict.scanned, verdict.matched, self.fw.indexed,
                )
                flight.deny(pkt, self.name, sim.now, DIR_IN)
            if pkt.on_drop is not None:
                pkt.on_drop(pkt)
            return
        if flight.enabled:
            flight.ipfw(
                pkt, self.name, DIR_IN, sim.now, sim.now + extra,
                verdict.scanned, verdict.matched, self.fw.indexed,
            )
        entry = verdict.to_local
        if entry is None:
            entry = verdict.to_local = _compile_chain(verdict.pipes, self._deliver_local)
        if extra > 0.0:
            sim.schedule(extra, entry, pkt)
        else:
            entry(pkt)

    def _deliver_local(self, pkt: Packet) -> None:
        # Hoisted attribute lookups: this is the per-packet sink for
        # every delivery on the node.
        iface = self.iface
        iface.rx_packets += 1
        iface.rx_bytes += pkt.size
        self.packets_received += 1
        if self.flight.enabled:
            self.flight.deliver(pkt, self.name, self.sim.now)
        proto = pkt.proto
        if proto == PROTO_TCP:
            self.tcp.handle_packet(pkt)
        elif proto == PROTO_UDP:
            self.udp.handle_packet(pkt)
        elif proto == PROTO_ICMP:
            self._handle_icmp(pkt)

    # -- ICMP echo (ping) -------------------------------------------------------
    def _handle_icmp(self, pkt: Packet) -> None:
        if pkt.kind == "echo":
            reply = Packet(
                src=pkt.dst,
                dst=pkt.src,
                proto=PROTO_ICMP,
                size=pkt.size,
                payload=pkt.payload,
                kind="echoreply",
            )
            self.send_packet(reply)
        elif pkt.kind == "echoreply":
            pending = self._icmp_pending.pop(pkt.payload, None)
            if pending is not None:
                sent_at, sig = pending
                sig.trigger(self.sim.now - sent_at)

    def send_echo(
        self,
        src: Union[IPv4Address, str],
        dst: Union[IPv4Address, str],
        size: int = 64,
    ) -> Tuple[int, Signal]:
        """Send one ICMP echo; returns ``(ident, signal)``. The signal
        fires with the RTT in seconds, or never if the echo or its
        reply is lost: wait with a timeout and hand ``ident`` to
        :meth:`cancel_echo` when it expires.
        """
        src, dst = ip(src), ip(dst)
        self._icmp_ident += 1
        ident = self._icmp_ident
        sig = Signal(self.sim, name="ping")
        self._icmp_pending[ident] = (self.sim.now, sig)
        pkt = Packet(
            src,
            dst,
            PROTO_ICMP,
            size + ICMP_HEADER,
            payload=ident,
            kind="echo",
        )
        self.send_packet(pkt)
        return ident, sig

    def cancel_echo(self, ident: int) -> None:
        """Stop waiting for echo ``ident`` (the caller's timeout
        expired): a lost echo then retains nothing, and a reply that
        does arrive late is ignored, as a real ``ping`` does."""
        self._icmp_pending.pop(ident, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkStack({self.name!r}, addrs={len(self.iface)}, rules={len(self.fw)})"
