"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, sequence)``. The sequence
number makes ordering total and deterministic: two events scheduled for
the same instant fire in scheduling order, independent of hash seeds or
heap internals.

The queue is one binary heap (DESIGN.md, "One heap"). Entries are
``(time, priority, seq, event)`` tuples, so ``heapq`` sifts by
comparing plain numbers in C, and the :class:`Event` stays the
cancellation handle. Cancellation leaves a tombstone that is dropped
when it reaches the top. An :class:`Event` free list recycles handles
that the kernel has proven unreferenced, cutting the per-event
allocation that dominated ``push`` in profiles.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Default priority; lower fires first among same-time events.
PRIORITY_NORMAL = 0
#: Used by the kernel for bookkeeping that must run before user events.
PRIORITY_HIGH = -1
#: Used for events that must observe all same-time user events.
PRIORITY_LOW = 1

#: Upper bound on the Event free list (handles, not payloads).
EVENT_POOL_CAP = 4096


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time at which the event fires.
    callback:
        Callable invoked as ``callback(*args)``. ``None`` after
        cancellation.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args = args

    def cancel(self) -> None:
        """Cancel the event; a cancelled event is skipped by the queue.

        Cancelling is O(1): the entry stays in the heap as a tombstone
        and is discarded lazily when it reaches the top.
        """
        self.callback = None
        self.args = ()

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    # A cancelled entry re-inserted through ``push(seq=...)`` can tie an
    # existing tombstone on all of (time, priority, seq), so entry-tuple
    # comparisons may reach the Event objects themselves. At most one of
    # such a pair is live (the other is skipped on pop), making their
    # mutual order irrelevant — these just keep the comparison total.
    def __le__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) <= (
            other.time,
            other.priority,
            other.seq,
        )

    def __gt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) > (
            other.time,
            other.priority,
            other.seq,
        )

    def __ge__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) >= (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else getattr(
            self.callback, "__qualname__", repr(self.callback)
        )
        return f"Event(t={self.time:.6f}, prio={self.priority}, seq={self.seq}, {state})"


class EventQueue:
    """Priority queue of :class:`Event` objects: one ``heapq`` list of
    ``(time, priority, seq, event)`` entries, live and tombstoned.

    ``_live`` counts the live entries; ``_free`` is the handle free list
    the kernel's run loop refills (it reads ``_heap`` and ``_free``
    directly).
    """

    __slots__ = ("_heap", "_seq", "_live", "_free")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._live = 0
        self._free: list[Event] = []

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        seq: Optional[int] = None,
    ) -> Event:
        """Insert a new event and return its handle (for cancellation).

        ``seq`` re-inserts a previously :meth:`burn_seq`-ed sequence
        number instead of drawing a fresh one (kernel-private: how
        ``Simulator.materialise`` gives a booked delivery the exact
        identity a push at booking time would have given it).
        """
        if callback is None:
            raise SimulationError("cannot schedule a None callback")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        self._live += 1
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.priority = priority
            ev.seq = seq
            ev.callback = callback
            ev.args = args
        else:
            ev = Event(time, priority, seq, callback, args)
        heappush(self._heap, (time, priority, seq, ev))
        return ev

    def burn_seq(self) -> int:
        """Consume one sequence number without inserting an event
        (kernel-private: ``Simulator.book``). Burning keeps the global
        sequence stream identical to one where every delivery is a real
        ``push``."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def peek_entry(self) -> Optional[tuple]:
        """The next live ``(time, priority, seq, event)`` entry without
        consuming it, or ``None``. Tombstones on top are discarded."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].callback is not None:
                return entry
            heappop(heap)
        return None

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises
        ------
        SimulationError
            If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            ev = heappop(heap)[3]
            if ev.callback is not None:
                self._live -= 1
                return ev
        raise SimulationError("pop from empty event queue")

    def note_cancelled(self) -> None:
        """Account for one external cancellation (kept O(1))."""
        self._live -= 1

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0
