"""Dummynet pipes.

A pipe is Rizzo's Dummynet abstraction (CCR '97), the device P2PLab
configures through IPFW rules: a FIFO queue drained at a fixed
bandwidth, followed by a fixed propagation delay, with an optional
bounded queue and a random packet-loss rate.

Semantics per packet of size ``S`` arriving at time ``t``:

1. with probability ``plr`` the packet is dropped;
2. if the backlog (bytes queued but not yet serialized) exceeds
   ``queue_limit``, the packet is dropped (tail drop);
3. otherwise it leaves the serializer at
   ``depart = max(t, busy_until) + S / bandwidth`` and is delivered to
   the next hop at ``depart + delay``.

``bandwidth=None`` means an unshaped pipe (pure delay), which is how
the inter-group latency rules of the paper's topology model are
configured.

Every delivery is one kernel event, scheduled by :meth:`transmit` the
moment the packet is accepted: a pipe holds no packets of its own, only
the serializer's ``_busy_until`` and its counters, so what is "in the
pipe" is what the kernel has pending for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import FirewallError
from repro.net.packet import Packet
from repro.obs.flight import NULL_FLIGHT
from repro.obs.metrics import BYTES_EDGES, NULL_REGISTRY

DeliverFn = Callable[[Packet], Any]


@dataclass(frozen=True)
class ShapingProfile:
    """Immutable access-link shaping parameters shared by a whole group.

    The flyweight of the million-vnode topology compiler: one profile
    per :class:`~repro.topology.spec.GroupSpec` holds the bandwidth /
    delay / loss constants, and per-vnode :class:`DummynetPipe`
    instances are stamped out of it only when (if ever) a packet first
    matches the vnode's rule. ``bandwidth=None`` keeps the unshaped
    (delay-only) convention of :class:`DummynetPipe`.
    """

    down_bw: Optional[float] = None
    up_bw: Optional[float] = None
    latency: float = 0.0
    plr: float = 0.0

    def up_pipe(self, sim, name: str, owner: Optional[str] = None) -> "DummynetPipe":
        """The vnode's upload pipe (outgoing traffic)."""
        return DummynetPipe(
            sim, bandwidth=self.up_bw, delay=self.latency, plr=self.plr,
            name=name, owner=owner,
        )

    def down_pipe(self, sim, name: str, owner: Optional[str] = None) -> "DummynetPipe":
        """The vnode's download pipe (incoming traffic)."""
        return DummynetPipe(
            sim, bandwidth=self.down_bw, delay=self.latency, plr=self.plr,
            name=name, owner=owner,
        )


class _PipeTally:
    """Per-packet counts of every pipe of one registry, in plain slots.

    Pipes are too many (a pair per vnode) and too short-lived (lazily
    built, deleted, stand-alone) to be fed to the registry one by one.
    ``idle`` counts arrivals at an empty shaped pipe: the occupancy
    histogram's 0.0 observations.
    """

    __slots__ = ("packets_out", "drops_loss", "drops_queue", "idle", "occupancy")

    def __init__(self, registry) -> None:
        self.packets_out = self.drops_loss = self.drops_queue = self.idle = 0
        registry.feed(
            self,
            packets_out=registry.counter("net.pipe.packets_out"),
            drops_loss=registry.counter("net.pipe.drops_loss"),
            drops_queue=registry.counter("net.pipe.drops_queue"),
        )
        self.occupancy = registry.feed_zeros(
            registry.histogram("net.pipe.queue_occupancy_bytes", edges=BYTES_EDGES),
            self, "idle",
        )


class DummynetPipe:
    """One emulated link: bandwidth + delay + loss + bounded queue."""

    __slots__ = (
        "sim",
        "name",
        "owner",
        "_flight",
        "bandwidth",
        "delay",
        "plr",
        "queue_limit",
        "_rng",
        "_busy_until",
        "packets_in",
        "packets_out",
        "packets_dropped_loss",
        "packets_dropped_queue",
        "bytes_in",
        "bytes_out",
        "_tally",
    )

    def __init__(
        self,
        sim,
        bandwidth: Optional[float] = None,
        delay: float = 0.0,
        plr: float = 0.0,
        queue_limit: Optional[int] = None,
        name: str = "pipe",
        owner: Optional[str] = None,
    ) -> None:
        """
        Parameters
        ----------
        bandwidth:
            Bytes per second, or ``None`` for an unshaped (delay-only) pipe.
        delay:
            Propagation delay in seconds, added after serialization.
        plr:
            Packet loss rate in [0, 1).
        queue_limit:
            Maximum backlog in bytes awaiting serialization; ``None`` =
            unbounded. Ignored for unshaped pipes.
        owner:
            Label of the node whose kernel runs this pipe (pnode name,
            or ``"switch"`` for fabric port pipes). Used by the flight
            recorder / Perfetto export for row attribution; defaults to
            the pipe name.
        """
        if bandwidth is not None and bandwidth <= 0:
            raise FirewallError(f"pipe bandwidth must be positive, got {bandwidth}")
        if delay < 0:
            raise FirewallError(f"pipe delay must be >= 0, got {delay}")
        if not 0.0 <= plr < 1.0:
            raise FirewallError(f"pipe plr must be in [0,1), got {plr}")
        self.sim = sim
        self.name = name
        self.owner = owner if owner is not None else name
        # Flight recorder, cached at construction (NULL when disabled).
        self._flight = getattr(sim, "flight", NULL_FLIGHT)
        self.bandwidth = bandwidth
        self.delay = delay
        self.plr = plr
        self.queue_limit = queue_limit
        self._rng = sim.rng.stream(f"pipe.loss/{name}") if plr > 0 else None
        self._busy_until = 0.0
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped_loss = 0
        self.packets_dropped_queue = 0
        self.bytes_in = 0
        self.bytes_out = 0
        # Platform-wide pipe counts go to the one tally of the sim's
        # registry (see _PipeTally).
        registry = getattr(sim, "metrics", None) or NULL_REGISTRY
        self._tally = registry.shared(_PipeTally)

    # ------------------------------------------------------------------
    def transmit(self, packet: Packet, deliver: DeliverFn) -> bool:
        """Send ``packet`` through the pipe; calls ``deliver(packet)``
        at the arrival time. Returns ``False`` if the packet was dropped.
        """
        sim = self.sim
        now = sim.now
        flight = self._flight
        tally = self._tally
        size = packet.size
        self.packets_in += 1
        self.bytes_in += size

        if self._rng is not None and self._rng.random() < self.plr:
            self.packets_dropped_loss += 1
            tally.drops_loss += 1
            if flight.enabled:
                flight.drop(packet, self.owner, now, f"loss:{self.name}")
            return False

        bandwidth = self.bandwidth
        if bandwidth is None:
            wait = txn = backlog_bytes = 0.0
            arrival_delay = self.delay
        else:
            backlog_start = self._busy_until
            if backlog_start > now:
                backlog_bytes = (backlog_start - now) * bandwidth
                tally.occupancy.observe(backlog_bytes)
            else:
                backlog_start = now
                backlog_bytes = 0.0
                tally.idle += 1
            if self.queue_limit is not None:
                if backlog_bytes + size > self.queue_limit:
                    self.packets_dropped_queue += 1
                    tally.drops_queue += 1
                    if flight.enabled:
                        flight.drop(packet, self.owner, now, f"queue:{self.name}")
                    return False
            txn = size / bandwidth
            depart = backlog_start + txn
            self._busy_until = depart
            wait = backlog_start - now
            arrival_delay = depart - now + self.delay

        self.packets_out += 1
        self.bytes_out += size
        tally.packets_out += 1
        if flight.enabled:
            # t1 uses the scheduler's own arithmetic (now + delay), so
            # consecutive hop boundaries tile exactly.
            flight.pipe(
                packet,
                self.owner,
                self.name,
                now,
                now + arrival_delay,
                wait,
                txn,
                self.delay,
                backlog_bytes,
            )
        sim.schedule(arrival_delay, deliver, packet)
        return True

    # ------------------------------------------------------------------
    @property
    def backlog_seconds(self) -> float:
        """Seconds of queued serialization work (0 for unshaped pipes)."""
        if self.bandwidth is None:
            return 0.0
        pending = self._busy_until - self.sim.now
        return pending if pending > 0 else 0.0

    @property
    def backlog_bytes(self) -> float:
        if self.bandwidth is None:
            return 0.0
        return self.backlog_seconds * self.bandwidth

    @property
    def utilization_bytes(self) -> int:
        """Total bytes that have fully traversed the pipe."""
        return self.bytes_out

    def reconfigure(
        self,
        bandwidth: Optional[float] = None,
        delay: Optional[float] = None,
        plr: Optional[float] = None,
    ) -> None:
        """Change parameters at runtime (``ipfw pipe N config ...``)."""
        if bandwidth is not None:
            if bandwidth <= 0:
                raise FirewallError(f"pipe bandwidth must be positive, got {bandwidth}")
            self.bandwidth = bandwidth
        if delay is not None:
            if delay < 0:
                raise FirewallError(f"pipe delay must be >= 0, got {delay}")
            self.delay = delay
        if plr is not None:
            if not 0.0 <= plr < 1.0:
                raise FirewallError(f"pipe plr must be in [0,1), got {plr}")
            self.plr = plr
            if self._rng is None and plr > 0:
                self._rng = self.sim.rng.stream(f"pipe.loss/{self.name}")
        # Fluid flows traversing this pipe need a rate epoch (or, if the
        # pipe just became lossy, the packet path).
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            fluid.on_pipe_reconfigured(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bw = "unshaped" if self.bandwidth is None else f"{self.bandwidth:.0f}B/s"
        return f"DummynetPipe({self.name!r}, {bw}, delay={self.delay * 1e3:.1f}ms, plr={self.plr})"
