"""The simulator: clock, scheduling and run loop."""

from __future__ import annotations

import gc
from heapq import heappop
from sys import getrefcount
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.flight import FlightRecorder, NULL_FLIGHT
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.span import NULL_TRACER, Tracer
from repro.sim.config import SimConfig
from repro.sim.event import EVENT_POOL_CAP, Event, EventQueue, PRIORITY_NORMAL
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

#: Generation-0 threshold of the cyclic collector while :meth:`Simulator.run`
#: dispatches. What a callback allocates (entry tuples, bound methods,
#: packets, segments) is almost all acyclic and freed by refcounting, so at
#: the interpreter's default of 700 a young pass runs every few hundred
#: events and finds next to nothing: one ``ping_mesh`` run made 359 young
#: passes, and all its passes together collected 5 objects. At 50 000 the
#: passes are ~70x rarer, and a cycle that does become garbage waits at
#: most one such batch. Generations 1 and 2 keep their thresholds, so old
#: passes follow at the same ratio.
RUN_GC_THRESHOLD = 50_000


class Simulator:
    """Deterministic discrete-event simulator.

    A single :class:`Simulator` instance backs one experiment: all
    machines, network components and application processes schedule
    their work on it. Time is a float number of seconds starting at 0.

    Parameters
    ----------
    seed:
        Root seed for the experiment's :class:`~repro.sim.rng.RngRegistry`.
        All stochastic components derive their streams from it, making
        runs exactly reproducible.
    observe:
        ``False`` swaps every instrument for its shared NULL no-op.
    config:
        A :class:`~repro.sim.config.SimConfig` naming every behaviour
        knob (flight recording, partitioning, fluid engine)
        — the only configuration surface.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (2.5, ['hello'])
    """

    def __init__(
        self,
        seed: int = 0,
        observe: bool = True,
        config: Optional[SimConfig] = None,
    ) -> None:
        #: The resolved configuration (defaults when none was given).
        self.config: SimConfig = config if config is not None else SimConfig()
        config = self.config
        self.now: float = 0.0
        self._queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder()
        self._running = False
        self._stopped = False
        self.events_processed: int = 0
        # Booked deliveries (see the section below): the ledger and the
        # inline-dispatch predicate behind the fluid flow engine's agenda.
        #: Active ``run(until=...)`` horizon (None outside ``run``).
        self._horizon: Optional[float] = None
        #: True while booked deliveries may be dispatched inline (set
        #: by ``run()``; off under ``max_events`` budgets and outside
        #: ``run`` entirely, where every booking is materialised as a
        #: real queue event instead).
        self._inline = False
        #: Bookings their consumers hold outside the queue (pending
        #: work, but not queue entries).
        self._booked = 0
        # Observability substrate (repro.obs). ``observe=False`` swaps
        # in shared no-op instruments: the hot loop then pays one bool
        # test per event and nothing else.
        if observe:
            self.metrics = MetricsRegistry()
            self.tracer = Tracer(lambda: self.now)
        else:
            self.metrics = NULL_REGISTRY
            self.tracer = NULL_TRACER
        #: Per-packet lifecycle recorder (NULL no-op unless requested).
        #: Network components cache this at construction, so it must be
        #: chosen before any stack/pipe/switch is built.
        self.flight = (
            FlightRecorder() if (observe and config.flight) else NULL_FLIGHT
        )
        self._m_events = self.metrics.counter("sim.kernel.events_processed")
        self._m_runs = self.metrics.counter("sim.kernel.runs")
        self._m_queue_depth = self.metrics.gauge("sim.kernel.queue_depth")
        #: Flow-level transfer engine (net/fluid.py), or ``None``.
        self.fluid = None
        if config.fluid:
            from repro.net.fluid import FlowScheduler

            self.fluid = FlowScheduler(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule in the past (now={self.now}, requested={time})"
            )
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event. Cancelling twice is a no-op."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Booked deliveries (DESIGN.md, "Booked deliveries")
    # ------------------------------------------------------------------
    def book(self) -> int:
        """Book a delivery instead of scheduling it: draw the sequence
        number ``schedule()`` would draw now, queue nothing.

        The consumer keeps the ``(time, seq)`` key on its own agenda
        and owes the booking exactly one of :meth:`dispatch_booked`,
        :meth:`materialise` or :meth:`release`, so the global
        ``(time, priority, seq)`` stream — and with it every
        observable — stays what one ``schedule()`` per delivery
        produces.
        """
        self._booked += 1
        return self._queue.burn_seq()

    def dispatch_booked(self, t: float, seq: int) -> bool:
        """May the booking ``(t, seq)`` run right now, ahead of the
        queue? On ``True`` the clock stands at ``t``, the booking is
        consumed and the caller runs it; on ``False`` nothing changed
        and the caller materialises it.

        A booking due at the current instant is just more work inside
        the running event, so only the order test applies: its key must
        be strictly before the queue head. One that advances the clock
        must also be inside a permissive ``run()`` (no ``max_events``
        budget — it is enforced at the loop head, which inline dispatch
        bypasses), not stopped, and within the horizon. A booking has
        no single reference event, so it is tallied nowhere in
        ``events_processed``.
        """
        if t > self.now:
            if not self._inline or self._stopped:
                return False
            horizon = self._horizon
            if horizon is not None and t > horizon:
                return False
        head = self._queue.peek_entry()
        # The tuple comparison resolves at the unique seq, never
        # reaching the queue entry's event object.
        if head is not None and not (t, PRIORITY_NORMAL, seq) < head:
            return False
        self._booked -= 1
        if t > self.now:
            self.now = t
        return True

    def materialise(
        self, t: float, seq: int, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Hand a booking to the queue as a real event carrying its
        booked ``(t, PRIORITY_NORMAL, seq)`` identity."""
        self._booked -= 1
        return self._queue.push(t, callback, args, PRIORITY_NORMAL, seq)

    def release(self, n: int) -> None:
        """Abandon ``n`` bookings that will never run (their consumer
        dropped the deliveries they stood for)."""
        self._booked -= n

    def reclaim(self, event: Event) -> None:
        """Take a materialised booking back onto its consumer's agenda:
        ``event`` is cancelled if still queued (a no-op when it has
        just fired as a mere wake-up, without running the booking)."""
        self.cancel(event)
        self._booked += 1

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events until the queue drains.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is left
            at ``until`` (events at exactly ``until`` are processed). A
            horizon already behind the clock processes nothing and
            leaves the clock where it is: time never runs backwards.
        max_events:
            Safety valve: stop after this many events.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        processed = 0
        self._horizon = until
        self._inline = max_events is None
        # The queue's heap is read in place (zero queue calls per
        # event), and handles are recycled when the refcount proves no
        # caller kept them.
        heap = queue._heap
        free = queue._free
        pool_cap = EVENT_POOL_CAP
        # Batch the collector's young passes (see RUN_GC_THRESHOLD); a
        # threshold of 0 means the caller switched collection off.
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < RUN_GC_THRESHOLD:
            gc.set_threshold(RUN_GC_THRESHOLD, *thresholds[1:])
        try:
            while True:
                if self._stopped:
                    break
                if max_events is not None and processed >= max_events:
                    break
                if not heap:
                    # Drained: the clock moves forward to ``until``,
                    # never back.
                    if until is not None and until > self.now:
                        self.now = until
                    break
                entry = heap[0]
                ev = entry[3]
                callback = ev.callback
                if callback is None:
                    heappop(heap)  # a tombstone
                    continue
                t = entry[0]
                if until is not None and t > until:
                    if until > self.now:
                        self.now = until
                    break
                heappop(heap)
                queue._live -= 1
                self.now = t
                args = ev.args
                # Free references before the callback runs so an
                # exception cannot pin the payload.
                ev.callback = None
                ev.args = ()
                callback(*args)
                processed += 1
                # 3 accounted refs: the ``entry`` tuple, the ``ev``
                # local, getrefcount's argument. Any external handle
                # pushes this higher and the event is left to the GC.
                if getrefcount(ev) == 3 and len(free) < pool_cap:
                    free.append(ev)
        finally:
            gc.set_threshold(*thresholds)
            self._horizon = None
            self._inline = False
            self.events_processed += processed
            self._m_events.inc(processed)
            self._m_runs.inc()
            self._m_queue_depth.set(self.pending)
            self._running = False

    def step(self) -> bool:
        """Process a single event. Returns ``False`` if none remained.

        Not callable from inside :meth:`run`: a nested step would pop
        events past the active horizon.
        """
        if self._running:
            raise SimulationError("step() inside run()")
        if not self._queue:
            return False
        ev = self._queue.pop()
        self.now = ev.time
        callback, args = ev.callback, ev.args
        ev.callback = None
        ev.args = ()
        callback(*args)
        self.events_processed += 1
        self._m_events.inc()
        self._m_queue_depth.set(self.pending)
        return True

    def stop(self) -> None:
        """Request the active :meth:`run` loop to stop after the current event."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of live scheduled events, booked deliveries included
        (the fluid flow engine holds its own outside the queue)."""
        return len(self._queue) + self._booked

    @property
    def booked(self) -> int:
        """Booked deliveries currently held outside the queue."""
        return self._booked

    def manifest(
        self,
        topology_hash: Optional[str] = None,
        wall_time_seconds: Optional[float] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Provenance record of this run (see :mod:`repro.obs.manifest`)."""
        from repro.obs.manifest import RunManifest

        return RunManifest.from_sim(
            self,
            topology_hash=topology_hash,
            wall_time_seconds=wall_time_seconds,
            **extra,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending})"
