"""Flow-level (fluid) transfer engine.

The packet path charges one kernel event per hop per segment even when
a swarm is in steady state and every pipe is simply draining at its
configured rate — the regime fig8/fig10/fig11 spend most of their
simulated time in. This module models a long-lived bulk TCP transfer
as a *flow* advanced by piecewise-constant rate updates: a
:class:`FlowScheduler` attached to the simulator performs max-min
fair-share allocation (progressive filling) over the
:class:`~repro.net.pipe.DummynetPipe` capacities a flow traverses and
schedules one event per *rate-change epoch* (flow start/finish,
competing-flow arrival/departure, pipe reconfigure) instead of one per
packet. Deliveries call the receiver connection's ``handle_data``
directly, so the same :mod:`repro.net.tcp` / BitTorrent observers fire
as on the packet path.

Hybridization seam
------------------
``Connection._transmit`` asks the scheduler to :meth:`~FlowScheduler.
admit` every DATA segment. A segment fluidizes only when *all* of the
following hold; anything else takes the exact packet path:

* the segment's wire size is at least :data:`FLUID_THRESHOLD`;
* explicit ACKs are off (the fluid model uses the delivery-time window
  credit) and the flight recorder is disabled;
* neither endpoint stack has a packet tap (Sniffer) attached;
* both firewall verdicts allow the flow and every pipe on the resolved
  path is lossless (``plr == 0``) and unbounded (no ``queue_limit``);
* source and destination are distinct addresses reachable either
  co-hosted (lo0 fold) or through the switch.

A mid-transfer tap attach (or a firewall rule change) *de-fluidizes*:
pending deliveries are cancelled, their serializer claims are rolled
back, and the undelivered segments are re-sent through
``Connection._transmit`` in order — they materialize back onto the
packet path at the flow's current offset (receiver-side sequence
reordering dedups any overlap).

Exactness vs bounded error
--------------------------
A flow whose pipes carry no other traffic runs in **exact** mode: each
segment walks the hop list with the very float expressions
``DummynetPipe.transmit`` uses, *writing the real* ``_busy_until`` of
every shaped pipe, so completion times are bit-identical to the packet
path — and cross traffic (control packets on the same pipes) still
queues behind the flow's bytes exactly as it would behind real
packets. The first time cross traffic is observed on any of the flow's
pipes (or a second fluid flow registers on one), the flow *demotes* to
**fair** mode: bytes drain from a per-flow pool at the max-min rate,
delivery projections are recomputed only at epochs, and the error is
bounded and quantified by the twin A/B harness (fig8 gate: completion
times within 2%).

Kernel contract
---------------
The scheduler keeps exactly one materialized kernel event — at the
earliest pending delivery — whenever it holds any pending segment, so
the head of the kernel queue stays a safe lower bound on when the
simulator next acts (all fluid state is also cell-local, so
partitioned runs need nothing from it). Every agenda entry
is a kernel *booked delivery* (DESIGN.md, "Booked deliveries"): the
kernel owns the ledger and the may-dispatch-inline predicate, this
module — the primitive's only consumer — owns the agenda heap.
``SimConfig(fluid=False)`` (the default) leaves the engine out
entirely; the tree then behaves byte-identically to the packet-only
build.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.net.ipfw import DIR_IN, DIR_OUT
from repro.net.packet import Packet, PROTO_TCP, TCP_HEADER
from repro.net.tcp import Connection
from repro.obs.metrics import NULL_REGISTRY

#: Hop tags in a resolved path: a fixed delay or a Dummynet pipe.
_HOP_DELAY = 0
_HOP_PIPE = 1

#: Flow modes (see module docstring).
MODE_EXACT = "exact"
MODE_FAIR = "fair"

#: Progressive-filling share floor: guards the pathological float
#: corner where accumulated subtraction drives a pipe's residual
#: capacity epsilon-negative (rates must stay positive and finite).
_MIN_RATE = 1e-9

#: Minimum wire size (bytes, TCP header included) a segment must reach
#: to be eligible for the fluid path; smaller transfers stay on the
#: exact packet path.
FLUID_THRESHOLD = 8192

#: Queue depth (segments) at which a flow sharing a pipe with another
#: active flow leaves the per-segment chain-walk discipline for the
#: max-min rate model. At the default of 1 the rule reads "exact while
#: alone, rate-modelled while contended": the first admission that
#: overlaps a neighbour's backlog hands the neighbourhood to the pool.
#: Chain-walk claims under contention systematically mis-order against
#: the packet path (they book downstream serializers at admission
#: time, before the segment would physically arrive), so deeper
#: settings trade accuracy for slightly fewer epochs.
FAIR_DEPTH = 1

#: Serialization time (seconds) below which an exact-mode hop is booked
#: immediately instead of at the segment's physical arrival. Early
#: booking can delay competing traffic on that pipe by at most the
#: claimed serialization itself, so for fast pipes (switch ports, LAN
#: links) the distortion is microseconds while the saved deferral is a
#: whole scheduler step per segment per hop. Access-link bottlenecks
#: (txn well above this) always defer.
DEFER_TXN = 1e-3

_INF = float("inf")


class _FluidSegment:
    """One admitted DATA segment riding the fluid path."""

    __slots__ = (
        "seg",
        "kind",
        "size",
        "cum_target",
        "deliver_at",
        "claims",
        "hop_i",
        "cursor",
        "seq",
    )

    def __init__(self, seg: Any, kind: str, size: int) -> None:
        self.seg = seg
        self.kind = kind
        #: Wire size (payload + TCP header) — what pipes charge for.
        self.size = size
        #: Cumulative admitted-byte mark this segment completes at
        #: (fair mode; 0.0 for exact/demoted segments = already final).
        self.cum_target = 0.0
        #: Final arrival time; ``-1.0`` while an exact-mode segment is
        #: still walking its hop chain (unknown until the last shaped
        #: hop is booked).
        self.deliver_at = -1.0
        #: ``(pipe, txn_seconds, interval_end)`` serializer claims
        #: written into the real ``_busy_until`` of each shaped pipe —
        #: undone (floored at ``now``) if the flow de-fluidizes before
        #: delivery. ``interval_end`` is the absolute time the claimed
        #: interval ``[end - txn, end]`` drains, letting the fair pool
        #: compute how much of a gating window is genuinely committed.
        self.claims: List[Tuple[Any, float, float]] = []
        #: Exact-mode hop cursor: index of the next hop to book and the
        #: segment's arrival sim-time there.
        self.hop_i = 0
        self.cursor = 0.0
        #: Kernel sequence number booked for this segment's delivery
        #: (see ``FlowScheduler._heap``); ``-1`` until assigned.
        self.seq = -1


class FluidFlow:
    """One fluidized transfer direction of a TCP connection."""

    __slots__ = (
        "idx",
        "conn",
        "src_stack",
        "dst_stack",
        "remote_key",
        "hops",
        "pipes",
        "pids",
        "fixed_base",
        "lat",
        "mode",
        "queue",
        "rate",
        "cum_admitted",
        "cum_drained",
        "last_update",
        "fw_gens",
        "delivering",
    )

    def __init__(
        self,
        idx: int,
        conn: Any,
        src_stack: Any,
        dst_stack: Any,
        remote_key: Tuple[int, int, int, int],
        hops: Tuple[Tuple[int, Any], ...],
        fixed_base: float,
        fw_gens: Tuple[int, int],
    ) -> None:
        self.idx = idx
        self.conn = conn
        self.src_stack = src_stack
        self.dst_stack = dst_stack
        self.remote_key = remote_key
        self.hops = hops
        #: The shaped pipes of the path, in hop order.
        self.pipes = tuple(
            h[1] for h in hops if h[0] == _HOP_PIPE and h[1].bandwidth is not None
        )
        #: The scheduler's small-integer id of each of ``pipes``
        #: (filled in by ``FlowScheduler._create_flow``).
        self.pids: Tuple[int, ...] = ()
        self.fixed_base = fixed_base
        #: ``latency(size)`` memo; the scheduler clears it when a pipe
        #: of the path is reconfigured.
        self.lat: Dict[int, float] = {}
        self.mode = MODE_EXACT
        self.queue: Deque[_FluidSegment] = deque()
        self.rate: Optional[float] = None
        self.cum_admitted = 0.0
        self.cum_drained = 0.0
        self.last_update = 0.0
        self.fw_gens = fw_gens
        #: True while this flow's head delivery callback runs (window
        #: re-admissions during it must not trigger a spurious epoch).
        self.delivering = False

    # -- fair-mode byte pool -------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate the drain under the current (old) rate up to ``now``."""
        rate = self.rate
        if rate is not None and rate > 0.0:
            drained = self.cum_drained + rate * (now - self.last_update)
            self.cum_drained = (
                drained if drained < self.cum_admitted else self.cum_admitted
            )
        self.last_update = now

    def latency(self, size: int) -> float:
        """Fixed path latency plus store-and-forward extras for ``size``.

        The drain term (``remaining / rate``) already covers one
        serialization at the bottleneck (``rate`` never exceeds any
        pipe's capacity), so every *other* shaped pipe contributes one
        ``size / bandwidth`` store-and-forward hop. Memoised per size:
        ``reconfigure()`` is the only thing that changes a term, and it
        reaches ``FlowScheduler.on_pipe_reconfigured``, which drops the
        memo before the epoch that reprojects with it.
        """
        lat = self.lat.get(size)
        if lat is not None:
            return lat
        lat = self.fixed_base
        ser = 0.0
        largest = 0.0
        for tag, val in self.hops:
            if tag == _HOP_PIPE:
                lat += val.delay
                bw = val.bandwidth
                if bw is not None:
                    txn = size / bw
                    ser += txn
                    if txn > largest:
                        largest = txn
        lat = self.lat[size] = lat + ser - largest
        return lat

    def reproject(self, now: float) -> None:
        """Recompute queued delivery times under the current rate.

        Segments already fully drained into the wire keep their frozen
        times; projections are clamped monotone non-decreasing (FIFO).
        """
        rate = self.rate
        drained = self.cum_drained
        prev = 0.0
        for fseg in self.queue:
            if fseg.cum_target > drained:
                if rate is None or rate <= 0.0:
                    d = now + (fseg.cum_target - drained) / _MIN_RATE
                elif rate == _INF:
                    d = now + self.latency(fseg.size)
                else:
                    d = (
                        now
                        + (fseg.cum_target - drained) / rate
                        + self.latency(fseg.size)
                    )
            else:
                d = fseg.deliver_at
                if d < 0.0:
                    # Exact-era segment still walking its hop chain:
                    # its time is unknown until the last hop is booked.
                    # Queue FIFO (only the head is ever delivered)
                    # keeps ordering sound regardless.
                    continue
            if d < prev:
                d = prev
            fseg.deliver_at = d
            prev = d


class FlowScheduler:
    """Max-min fair fluid-flow engine attached to one simulator."""

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self._flows: Dict[int, FluidFlow] = {}
        self._by_conn: Dict[Any, FluidFlow] = {}
        #: conn -> src firewall generation at the ineligibility verdict
        #: (re-probed when the rule set changes).
        self._ineligible: Dict[Any, int] = {}
        #: pipe -> {flow_idx: flow} — registration in deterministic
        #: creation order (dicts double as ordered sets here).
        self._by_pipe: Dict[Any, Dict[int, FluidFlow]] = {}
        #: pipe -> deterministic small integer (epoch iteration and
        #: tie-breaking must never order by raw ``id()`` values).
        self._pipe_ids: Dict[Any, int] = {}
        #: The flows competing for fair shares right now — fair mode
        #: with a non-empty queue — kept current at the transitions
        #: (:meth:`_activate` / :meth:`_deactivate`) instead of being
        #: filtered out of ``_flows`` at every epoch; and the same set
        #: per shaped pipe, for :meth:`_active_fair_neighbor`.
        self._active_fair: Dict[int, FluidFlow] = {}
        self._fair_by_pipe: Dict[Any, Dict[int, FluidFlow]] = {}
        self._next_flow = 0
        self._next_pipe = 0
        #: The agenda: a heap of ``(time, seq, flow, fseg)`` entries —
        #: ``fseg`` set books that segment's deferred hop step,
        #: ``fseg=None`` delivers the flow's head. ``seq`` is booked
        #: (``Simulator.book``) at the moment the packet path would
        #: have pushed the corresponding event, so equal-time ties
        #: against ordinary packet events (a FIN chasing the last DATA
        #: segment, say) resolve exactly as on the reference path; it
        #: is unique, so comparisons never reach the objects. Every
        #: undelivered segment holds exactly one live booking at a time
        #: (its next hop, or its delivery). **Live entries only**: one
        #: hop entry per segment mid-chain plus at most one delivery
        #: entry per flow, for a head whose time is known. Whatever
        #: re-keys or drops a head removes the entry it had — an epoch
        #: rebuilds the heap (:meth:`_epoch`), a kill filters it
        #: (:meth:`_kill_flow`) — so the top is always the next action.
        self._heap: List[Tuple[float, int, FluidFlow, Any]] = []
        #: The one materialised booking: a wake-up carrying the key of
        #: the agenda head it was armed for.
        self._event: Optional[Any] = None
        self._in_fire = False
        #: pipe id -> absolute time until which the pipe's capacity is
        #: committed to exact-mode claims written *before* the pipe
        #: became contended. The fair pool must not double-book that
        #: capacity: such pipes contribute zero bandwidth to progressive
        #: filling until the release time passes (an epoch timer
        #: recomputes shares then).
        self._pipe_release: Dict[int, float] = {}
        self._epoch_timer: Optional[Any] = None
        self._epoch_timer_at = 0.0
        registry = getattr(sim, "metrics", None) or NULL_REGISTRY
        self._m_flows = registry.counter("net.fluid.flows")
        self._m_segments = registry.counter("net.fluid.segments")
        self._m_bytes = registry.counter("net.fluid.bytes")
        self._m_epochs = registry.counter("net.fluid.epochs")
        self._m_demotions = registry.counter("net.fluid.demotions")
        self._m_defluidized = registry.counter("net.fluid.defluidized")
        # Wall-only: how deliveries were dispatched is a scheduling
        # detail (profiler on/off changes it), not an emulation
        # observable.
        self._m_inline = registry.counter("net.fluid.inline_deliveries", wall=True)
        self._m_dead = registry.counter("net.fluid.dead_deliveries", wall=True)
        self._m_agenda = registry.gauge("net.fluid.agenda_peak", wall=True)

    @property
    def agenda_size(self) -> int:
        """Entries on the agenda right now (all live; see ``_heap``)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Admission (the Connection._transmit seam)
    # ------------------------------------------------------------------
    def admit(self, conn: Any, seg: Any, kind: str) -> bool:
        """Take over delivery of ``seg`` if the transfer is eligible.

        Returns ``True`` when the segment now rides the fluid path (the
        caller must not build a packet); ``False`` selects the packet
        path.
        """
        size = seg.size + TCP_HEADER
        if size < FLUID_THRESHOLD:
            return False
        flow = self._by_conn.get(conn)
        if flow is not None and flow.fw_gens != (
            flow.src_stack.fw.generation,
            flow.dst_stack.fw.generation,
        ):
            # The rule set changed under the flow: its resolved path
            # (and claims) may be stale. De-fluidize; the resends below
            # re-probe and may immediately re-fluidize on a fresh path.
            self._kill_flow(flow, resend=True)
            flow = self._by_conn.get(conn)
        if flow is None:
            cached = self._ineligible.get(conn)
            if cached is not None and cached == conn.tcp.stack.fw.generation:
                return False
            flow = self._create_flow(conn)
            if flow is None:
                self._ineligible[conn] = conn.tcp.stack.fw.generation
                return False
        sim = self.sim
        now = sim.now
        fseg = _FluidSegment(seg, kind, size)
        self._m_segments.inc()
        self._m_bytes.inc(size)
        if flow.mode == MODE_FAIR:
            if (
                not flow.queue
                and not flow.delivering
                and not self._active_fair_neighbor(flow)
            ):
                # Idle, and the pool regime has drained around it:
                # back to the chain-walk discipline.
                flow.mode = MODE_EXACT
                flow.cum_admitted = 0.0
                flow.cum_drained = 0.0
        elif self._active_fair_neighbor(flow):
            # A pipe it shares is pool-modelled: chain claims would
            # race the pool's capacity accounting, so join the pool.
            self._demote(flow, now)
            self._epoch(now)
        if flow.mode == MODE_EXACT:
            fseg.cursor = now
            flow.queue.append(fseg)
            self._hop_step(flow, fseg)
            if len(flow.queue) >= FAIR_DEPTH and self._active_neighbor(flow):
                # Deep backlog on a shared path: the steady-state
                # "packet storm" regime. Hand the whole neighbourhood
                # to the rate model — one epoch instead of per-segment
                # bookkeeping from here on.
                self._demote(flow, now)
                for f2 in self._neighbors(flow):
                    if f2.queue:
                        self._demote(f2, now)
                self._epoch(now)
            self._sync_event()
        else:
            flow.advance(now)
            flow.cum_admitted += size
            fseg.cum_target = flow.cum_admitted
            fseg.seq = sim.book()
            was_empty = not flow.queue
            flow.queue.append(fseg)
            if was_empty:
                self._activate(flow)
            if was_empty and not flow.delivering:
                # Idle -> active transition: the flow re-enters the
                # fair-share competition; everyone's rate may change.
                self._epoch(now)
            else:
                rate = flow.rate
                if rate == _INF:
                    d = now + flow.latency(size)
                elif rate is None or rate <= 0.0:
                    d = now + (fseg.cum_target - flow.cum_drained) / _MIN_RATE
                else:
                    d = (
                        now
                        + (fseg.cum_target - flow.cum_drained) / rate
                        + flow.latency(size)
                    )
                if len(flow.queue) > 1:
                    prev = flow.queue[-2].deliver_at
                    if d < prev:
                        d = prev
                fseg.deliver_at = d
                if was_empty:
                    self._push_head(flow)
            self._sync_event()
        return True

    # ------------------------------------------------------------------
    # Path resolution / eligibility
    # ------------------------------------------------------------------
    def _create_flow(self, conn: Any) -> Optional[FluidFlow]:
        sim = self.sim
        if getattr(sim, "flight", None) is not None and sim.flight.enabled:
            return None
        src_stack = conn.tcp.stack
        if conn.tcp.explicit_acks:
            return None
        if src_stack._egress_taps or src_stack._ingress_taps:
            return None
        src, sport = conn.local
        dst, dport = conn.remote
        if src.value == dst.value:
            return None  # true loopback is already a single event
        co_hosted = src_stack.is_local_value(dst.value)
        if co_hosted:
            dst_stack = src_stack
        else:
            switch = src_stack.switch
            if switch is None:
                return None
            dst_stack = switch.lookup(dst)
            if dst_stack is None:
                return None
            if dst_stack._ingress_taps or dst_stack._egress_taps:
                return None
        if dst_stack.tcp.explicit_acks:
            return None
        probe = Packet(src, dst, PROTO_TCP, TCP_HEADER, sport=sport, dport=dport)
        v_out = src_stack.fw.evaluate(probe, DIR_OUT)
        if not v_out.allowed:
            return None
        v_in = dst_stack.fw.evaluate(probe, DIR_IN)
        if not v_in.allowed:
            return None
        hops: List[Tuple[int, Any]] = []
        extra_out = v_out.scanned * src_stack.rule_eval_cost
        if co_hosted:
            hops.append((_HOP_DELAY, extra_out + src_stack.loopback_delay))
            hops.extend((_HOP_PIPE, p) for p in v_out.pipes)
        else:
            hops.append((_HOP_DELAY, extra_out))
            hops.extend((_HOP_PIPE, p) for p in v_out.pipes)
            switch = src_stack.switch
            src_port = switch._ports.get(src_stack.name)
            dst_port = switch._ports.get(dst_stack.name)
            if src_port is None or dst_port is None:
                return None
            if dst_port is src_port:
                hops.append((_HOP_PIPE, src_port.tx))
            else:
                hops.append((_HOP_PIPE, src_port.tx))
                hops.append((_HOP_PIPE, dst_port.rx))
        extra_in = v_in.scanned * dst_stack.rule_eval_cost
        hops.append((_HOP_DELAY, extra_in))
        hops.extend((_HOP_PIPE, p) for p in v_in.pipes)
        fixed_base = 0.0
        for tag, val in hops:
            if tag == _HOP_DELAY:
                fixed_base += val
            else:
                if val.plr > 0.0 or val.queue_limit is not None:
                    return None  # lossy/bounded pipes stay on the packet path
        flow = FluidFlow(
            idx=self._next_flow,
            conn=conn,
            src_stack=src_stack,
            dst_stack=dst_stack,
            remote_key=(dst.value, dport, src.value, sport),
            hops=tuple(hops),
            fixed_base=fixed_base,
            fw_gens=(src_stack.fw.generation, dst_stack.fw.generation),
        )
        self._next_flow += 1
        self._flows[flow.idx] = flow
        self._by_conn[conn] = flow
        self._m_flows.inc()
        for tag, val in flow.hops:
            if tag != _HOP_PIPE:
                continue
            if val not in self._pipe_ids:
                self._pipe_ids[val] = self._next_pipe
                self._next_pipe += 1
                self._by_pipe[val] = {}
                self._fair_by_pipe[val] = {}
            self._by_pipe[val][flow.idx] = flow
        flow.pids = tuple(self._pipe_ids[p] for p in flow.pipes)
        # New flows always start on the chain-walk discipline: with a
        # sole occupant it is bit-identical to the packet path, and
        # under contention it reproduces the pipes' FIFO service order.
        # The rate model takes over via the fair-depth trigger in
        # :meth:`admit` once a genuinely deep shared backlog builds.
        return flow

    # ------------------------------------------------------------------
    # Exact mode
    # ------------------------------------------------------------------
    def _hop_step(self, flow: FluidFlow, fseg: _FluidSegment) -> None:
        """Advance the segment along its hop list with
        ``DummynetPipe.transmit``'s arithmetic, writing the real
        serializer state.

        Each shaped pipe is booked at the sim time the segment
        *arrives* there — exactly when the packet path's per-hop event
        would call ``transmit`` — via one deferred kernel event per
        downstream shaped hop. Booking every hop up front at admission
        (the obvious shortcut) reserves downstream serializers before
        the segment could physically reach them, which inverts the
        pipes' FIFO order against competing traffic and measurably
        distorts contended runs. Float-operation order matches the
        packet path expression for expression, so a sole occupant's
        delivery times are bit-identical.
        """
        sim = self.sim
        hops = flow.hops
        n = len(hops)
        t = fseg.cursor
        i = fseg.hop_i
        size = fseg.size
        release = self._pipe_release
        while i < n:
            tag, val = hops[i]
            if tag == _HOP_DELAY:
                if val > 0.0:
                    t = t + val
            else:
                bandwidth = val.bandwidth
                if bandwidth is None:
                    t = t + val.delay
                else:
                    if t > sim.now and size / bandwidth >= DEFER_TXN:
                        # The segment reaches this serializer later:
                        # book it then, so traffic arriving in between
                        # keeps the pipe's true FIFO order. (Fast pipes
                        # are booked immediately — see DEFER_TXN.) The
                        # booked seq pins the hop's tie order among
                        # equal-time kernel events to the packet path's.
                        fseg.cursor = t
                        fseg.hop_i = i
                        self._push((t, sim.book(), flow, fseg))
                        self._sync_event()
                        return
                    busy = val._busy_until
                    backlog_start = busy if busy > t else t
                    txn = size / bandwidth
                    depart = backlog_start + txn
                    val._busy_until = depart
                    arrival_delay = depart - t + val.delay
                    t = t + arrival_delay
                    fseg.claims.append((val, txn, depart))
                    if release:
                        # The pool is rate-gating this pipe: keep the
                        # release horizon honest about the new claim.
                        pid = self._pipe_ids[val]
                        if pid in release and depart > release[pid]:
                            release[pid] = depart
            i += 1
        fseg.cursor = t
        fseg.hop_i = i
        fseg.deliver_at = t
        # Booked now — the moment the packet path's final transmit
        # would have scheduled the delivery event.
        fseg.seq = sim.book()
        if flow.queue and flow.queue[0] is fseg:
            self._push_head(flow)
            self._sync_event()

    def _claimed_remaining(self, pipe: Any, now: float) -> float:
        """Transmission-seconds of chain-walk claim intervals still
        ahead of ``now`` on ``pipe``: every undelivered segment of every
        resident flow contributes ``min(txn, end - now)`` for its claim
        here. Intervals already drained contribute nothing even when
        the segment itself is still in flight further down its path."""
        total = 0.0
        for f in self._by_pipe[pipe].values():
            for fseg in f.queue:
                for p, txn, end in fseg.claims:
                    if p is pipe and end > now:
                        ahead = end - now
                        total += txn if txn < ahead else ahead
        return total

    # ------------------------------------------------------------------
    # Fair mode
    # ------------------------------------------------------------------
    def _demote(self, flow: FluidFlow, now: float) -> None:
        """Chain-walk -> rate-model transition (deep shared backlog,
        or the flow joined a pipe already run by the pool).

        Already-queued chain-walk segments keep their (committed,
        claimed) delivery times; the byte pool starts empty so only
        segments admitted from now on are rate-modelled. The committed
        serializer backlog (``_busy_until``) on each of the flow's
        pipes is snapshotted as a *release time*: until it passes, the
        fair pool sees zero capacity there — the pipe is genuinely busy
        draining claimed bytes, and handing out its bandwidth again
        would double-book it (flows would finish faster than the pipe
        allows). Callers fire the :meth:`_epoch` themselves (so a
        cascade of demotions costs one epoch).
        """
        if flow.mode != MODE_EXACT:
            return
        flow.mode = MODE_FAIR
        flow.cum_admitted = 0.0
        flow.cum_drained = 0.0
        flow.last_update = now
        if flow.queue:
            self._activate(flow)
        for p, pid in zip(flow.pipes, flow.pids):
            busy = p._busy_until
            if busy > now and busy > self._pipe_release.get(pid, 0.0):
                self._pipe_release[pid] = busy
        self._m_demotions.inc()

    def _activate(self, flow: FluidFlow) -> None:
        """``flow`` (fair mode) now has a queue: it competes for shares."""
        self._active_fair[flow.idx] = flow
        for p in flow.pipes:
            self._fair_by_pipe[p][flow.idx] = flow

    def _deactivate(self, flow: FluidFlow) -> None:
        """``flow``'s queue emptied (or it was killed): it competes no
        more. A no-op for a flow that was not competing."""
        if self._active_fair.pop(flow.idx, None) is not None:
            for p in flow.pipes:
                self._fair_by_pipe[p].pop(flow.idx, None)

    def _neighbors(self, flow: FluidFlow) -> List[FluidFlow]:
        """Other flows registered on any of ``flow``'s shaped pipes,
        in deterministic registration order."""
        out: List[FluidFlow] = []
        seen = {flow.idx}
        for p in flow.pipes:
            for f2 in self._by_pipe[p].values():
                if f2.idx not in seen:
                    seen.add(f2.idx)
                    out.append(f2)
        return out

    def _active_neighbor(self, flow: FluidFlow) -> bool:
        for p in flow.pipes:
            for f2 in self._by_pipe[p].values():
                if f2 is not flow and f2.queue:
                    return True
        return False

    def _active_fair_neighbor(self, flow: FluidFlow) -> bool:
        idx = flow.idx
        for p in flow.pipes:
            fair = self._fair_by_pipe[p]
            if len(fair) > (idx in fair):  # someone other than ``flow``
                return True
        return False

    def _epoch(self, now: float) -> None:
        """One rate-change epoch: progressive-filling max-min shares
        over every contended pipe, then reprojection of all active
        fair flows and a rebuild of the agenda around their new head
        times. Deterministic: iteration follows flow/pipe registration
        order, never hash or ``id()`` order.

        Every active flow is advanced and reprojected at every epoch,
        also the many whose rate did not change: ``now`` enters each
        projection, so skipping one would round differently."""
        if not self._active_fair:
            self._sync_event()
            return
        self._m_epochs.inc()
        active_fair = self._active_fair
        active = [active_fair[idx] for idx in sorted(active_fair)]
        for f in active:
            f.advance(now)
        # Pipe membership (insertion-ordered by flow idx, hop order).
        cap_left: Dict[int, float] = {}
        members: Dict[int, List[FluidFlow]] = {}
        unfrozen: Dict[int, FluidFlow] = {}
        release = self._pipe_release
        next_release = _INF
        for f in active:
            pids = f.pids
            for p, pid in zip(f.pipes, pids):
                if pid not in members:
                    members[pid] = []
                    rel = release.get(pid, 0.0)
                    if rel > now:
                        # Part of the window up to ``rel`` is committed
                        # to exact-era claims — but only the claimed
                        # intervals themselves; the gaps between them
                        # (a downstream claim starts when its segment
                        # would *arrive*) are genuinely idle, and the
                        # packet path would serve competing traffic in
                        # them. Hand the pool the average leftover rate.
                        window = rel - now
                        free = window - self._claimed_remaining(p, now)
                        if free > 0.0:
                            cap_left[pid] = p.bandwidth * (free / window)
                        else:
                            cap_left[pid] = 0.0
                        if rel < next_release:
                            next_release = rel
                    else:
                        if rel:
                            del release[pid]
                        cap_left[pid] = p.bandwidth
                members[pid].append(f)
            if pids:
                unfrozen[f.idx] = f
            else:
                f.rate = _INF  # pure-delay path: drains instantly
        # Pipes that still have an unfrozen member; one leaves the scan
        # when its last member freezes.
        unfrozen_count = {pid: len(flows) for pid, flows in members.items()}
        while unfrozen:
            best_pid = -1
            best_share = 0.0
            for pid, n in unfrozen_count.items():
                share = cap_left[pid] / n
                if best_pid < 0 or share < best_share:
                    best_pid = pid
                    best_share = share
            if best_pid < 0:
                break  # defensive: every pipe lost its unfrozen members
            if best_share < _MIN_RATE:
                best_share = _MIN_RATE
            for f in members[best_pid]:
                if f.idx not in unfrozen:
                    continue
                f.rate = best_share
                del unfrozen[f.idx]
                for pid in f.pids:
                    left = cap_left[pid] - best_share
                    cap_left[pid] = left if left > 0.0 else 0.0
                    n = unfrozen_count[pid] - 1
                    if n:
                        unfrozen_count[pid] = n
                    else:
                        del unfrozen_count[pid]
        # Every active fair head is re-keyed, so rebuild: keep the
        # entries an epoch does not touch (hop steps, chain-walk flows'
        # heads), append the new head keys, heapify.
        heap = self._heap
        heap[:] = [e for e in heap if e[3] is not None or e[2].mode != MODE_FAIR]
        for f in active:
            f.reproject(now)
            head = f.queue[0]
            if head.deliver_at >= 0.0:
                heap.append((head.deliver_at, head.seq, f, None))
        heapify(heap)
        self._note_agenda_size()
        if next_release < _INF:
            self._schedule_epoch_timer(next_release)
        self._sync_event()

    def _schedule_epoch_timer(self, t: float) -> None:
        """Arrange a recompute of fair shares at ``t`` (a committed
        serializer backlog drains then, freeing capacity)."""
        if self._epoch_timer is not None:
            if self._epoch_timer_at <= t:
                return
            self.sim.cancel(self._epoch_timer)
        self._epoch_timer = self.sim.schedule_at(t, self._epoch_timer_fire)
        self._epoch_timer_at = t

    def _epoch_timer_fire(self) -> None:
        self._epoch_timer = None
        self._epoch(self.sim.now)

    # ------------------------------------------------------------------
    # Delivery machinery
    # ------------------------------------------------------------------
    def _push(self, entry: Tuple[float, int, FluidFlow, Any]) -> None:
        heappush(self._heap, entry)
        self._note_agenda_size()

    def _note_agenda_size(self) -> None:
        n = len(self._heap)
        if n > self._m_agenda.peak:
            self._m_agenda.set(n)

    def _push_head(self, flow: FluidFlow) -> None:
        """Enter the (new) head of ``flow`` on the agenda. A head still
        walking its hop chain (``deliver_at < 0``) is entered by
        :meth:`_hop_step` when its final hop is booked."""
        if flow.queue:
            head = flow.queue[0]
            if head.deliver_at >= 0.0:
                self._push((head.deliver_at, head.seq, flow, None))

    def _arm(self, t: float, seq: int) -> None:
        """Materialise the agenda head ``(t, seq)`` as the wake-up."""
        sim = self.sim
        self._event = sim.materialise(t if t > sim.now else sim.now, seq, self._fire)

    def _sync_event(self) -> None:
        """Re-establish the invariant: one materialized kernel event at
        (or before) the earliest pending delivery, or none when idle."""
        if self._in_fire:
            return  # the _fire loop re-materializes on exit
        top = self._heap[0] if self._heap else None
        ev = self._event
        if ev is not None:
            if top is not None and (ev.time, ev.seq) <= (top[0], top[1]):
                return  # existing event already fires in order (early is safe)
            self.sim.reclaim(ev)
            self._event = None
        if top is not None:
            self._arm(top[0], top[1])

    def _fire(self) -> None:
        """The wake-up fired: run every agenda entry (hop bookings and
        deliveries) the kernel lets dispatch ahead of the queue, then
        re-arm one wake-up for the first it does not."""
        sim = self.sim
        # The wake-up only stands for the agenda head (which may have
        # moved since it was armed); heads are consumed by dispatch.
        sim.reclaim(self._event)
        self._event = None
        self._in_fire = True
        heap = self._heap  # rebuilt in place, never rebound
        try:
            while heap:
                t, seq, flow, fseg = heap[0]
                advances = t > sim.now
                if not sim.dispatch_booked(t, seq):
                    self._arm(t, seq)
                    break
                heappop(heap)
                if fseg is not None:
                    self._hop_step(flow, fseg)
                else:
                    if advances:
                        self._m_inline.inc()
                    self._deliver_head(flow)
        finally:
            self._in_fire = False

    def _deliver_head(self, flow: FluidFlow) -> None:
        fseg = flow.queue.popleft()
        if flow.mode == MODE_FAIR:
            flow.advance(self.sim.now)
            if not flow.queue:
                self._deactivate(flow)
        self._push_head(flow)
        remote = flow.dst_stack.tcp._conns.get(flow.remote_key)
        flow.delivering = True
        try:
            if remote is not None:
                remote.handle_data(fseg.kind, fseg.seg)
            else:
                # Receiver is gone (teardown race): the bytes are lost,
                # but the sender's window must not wedge shut.
                self._m_dead.inc()
                fseg.seg.ack_hook(fseg.seg)
        finally:
            flow.delivering = False
        if not flow.queue:
            if flow.conn.state is Connection.CLOSED:
                self._remove_flow(flow)
            if flow.mode == MODE_FAIR:
                if not self._active_fair_neighbor(flow):
                    # Pool regime drained around this flow too: it can
                    # return to the chain-walk discipline.
                    flow.mode = MODE_EXACT
                    flow.cum_admitted = 0.0
                    flow.cum_drained = 0.0
                # Flow leaves the fair-share competition: departure epoch.
                self._epoch(self.sim.now)

    # ------------------------------------------------------------------
    # De-fluidization / teardown
    # ------------------------------------------------------------------
    def _remove_flow(self, flow: FluidFlow) -> None:
        self._flows.pop(flow.idx, None)
        if self._by_conn.get(flow.conn) is flow:
            del self._by_conn[flow.conn]
        for tag, val in flow.hops:
            if tag == _HOP_PIPE:
                self._by_pipe[val].pop(flow.idx, None)

    def _kill_flow(self, flow: FluidFlow, resend: bool) -> None:
        """Cancel the flow, roll back undelivered serializer claims and
        (optionally) re-send the undelivered segments through the
        packet path, in order, at the flow's current offset."""
        now = self.sim.now
        undo: Dict[Any, float] = {}
        pending = list(flow.queue)
        for fseg in pending:
            for p, txn, _end in fseg.claims:
                undo[p] = undo.get(p, 0.0) + txn
        for p, total in undo.items():
            rolled = p._busy_until - total
            p._busy_until = rolled if rolled > now else now
        flow.queue.clear()
        self._deactivate(flow)
        if pending:
            # Its hop entries and its head's delivery entry die with it.
            heap = self._heap
            heap[:] = [e for e in heap if e[2] is not flow]
            heapify(heap)
        self.sim.release(len(pending))  # one live booking per segment
        self._remove_flow(flow)
        if pending:
            self._m_defluidized.inc()
        if flow.mode == MODE_FAIR:
            self._epoch(now)
        else:
            self._sync_event()
        if resend:
            conn = flow.conn
            for fseg in pending:
                if conn.state is Connection.CLOSED:
                    break
                conn._transmit(fseg.seg, fseg.kind)

    # ------------------------------------------------------------------
    # Hooks from the rest of the tree
    # ------------------------------------------------------------------
    def on_tap_attached(self, stack: Any) -> None:
        """A Sniffer/tap landed on ``stack``: every flow touching it
        de-fluidizes (remaining bytes materialize onto the packet path,
        where the tap can observe them)."""
        for flow in list(self._flows.values()):
            if flow.src_stack is stack or flow.dst_stack is stack:
                self._kill_flow(flow, resend=True)

    def on_pipe_reconfigured(self, pipe: Any) -> None:
        """``ipfw pipe N config ...`` mid-run. Lossy pipes force their
        flows off the fluid path; capacity changes are a rate epoch."""
        residents = self._by_pipe.get(pipe)
        if not residents:
            return
        if pipe.plr > 0.0:
            for flow in list(residents.values()):
                self._kill_flow(flow, resend=True)
            return
        # Chain-walk flows read the live bandwidth on every admission
        # and their committed claims are absolute times — exactly the
        # packet path's carry-over of ``_busy_until`` across a
        # reconfigure — so they need no transition. Pool-modelled flows
        # get their shares refilled from the new capacity, and projected
        # with the path's new latency.
        for flow in residents.values():
            flow.lat.clear()
        self._epoch(self.sim.now)

    def on_conn_closed(self, conn: Any) -> None:
        """Connection teardown: idle flows are reaped immediately;
        draining flows are reaped once their last delivery lands."""
        self._ineligible.pop(conn, None)
        flow = self._by_conn.get(conn)
        if flow is not None and not flow.queue:
            self._remove_flow(flow)
