"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, sequence)``. The sequence
number makes ordering total and deterministic: two events scheduled for
the same instant fire in scheduling order, independent of hash seeds or
heap internals.

The queue is a **calendar queue** (DESIGN.md, "Hot-path
architecture"): a bucketed near-future window in front of a binary
heap. Events landing inside the current window go straight into a
fixed-width bucket (O(1) append); each bucket is sorted once when the
pop cursor reaches it, so the short-delay timers that dominate
TCP/pipe traffic skip the heap entirely. Events beyond the window
overflow into the heap and are migrated in batches when the window
advances.

The calendar window is **adaptive**: the bucket count is fixed
(:data:`NEAR_BUCKETS`) but the bucket *width* — and therefore the
window span — is re-derived at every :meth:`_advance_window` re-anchor
from the observed inter-event gaps of the far tier (the window is
sized to hold about :data:`TARGET_WINDOW_EVENTS` events), and widened
further under sustained near-tier push misses. A swarm whose timers
span seconds (BitTorrent rerequest/choke/tracker timers) gets a
seconds-wide window instead of falling through to the heap for almost
every push; a burst of microsecond timers keeps the original
256 x 1 ms geometry (the span never shrinks below
``NEAR_BUCKETS * BUCKET_WIDTH``).

Migration itself is sort-based rather than pop-based: a sorted
ascending list satisfies the heap invariant, so the far tier can be
``list.sort()``-ed in place (C-speed, and Timsort is nearly linear on
the mostly-sorted arrays that monotone far pushes produce) and the new
window sliced off its front — instead of paying one Python-level
``heappop`` per migrated entry, which is exactly what made the fixed
256 ms window *lose* to a plain heap on wide timer horizons.

The pop order is exactly a plain heap's ``(time, priority, seq)``
total order: the property tests in ``tests/test_event_fastpath.py``
pit this queue against ``tests/reference/heap_kernel.py`` on
randomized schedules (including cancellations) and require identical
pop sequences. An :class:`Event` free list recycles handles that the
kernel has proven unreferenced, cutting the per-event allocation that
dominated ``push`` in profiles.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Default priority; lower fires first among same-time events.
PRIORITY_NORMAL = 0
#: Used by the kernel for bookkeeping that must run before user events.
PRIORITY_HIGH = -1
#: Used for events that must observe all same-time user events.
PRIORITY_LOW = 1

#: Calendar tier geometry: ``NEAR_BUCKETS`` buckets. ``BUCKET_WIDTH``
#: is the *initial and minimum* bucket width: the window never spans
#: less than ``NEAR_BUCKETS * BUCKET_WIDTH`` (256 ms) — wide enough
#: that loopback (µs), rule-scan (µs–ms), serialization (µs–ms) and
#: LAN/pipe delays (tens of ms) all land in the near tier. The width
#: grows adaptively when the pending timers actually span further
#: (multi-second rerequest/choke/tracker timers).
NEAR_BUCKETS = 256
BUCKET_WIDTH = 1e-3

#: The adaptive window is sized to hold about this many far-tier
#: events per re-anchor: the span candidate is the time offset of the
#: ``TARGET_WINDOW_EVENTS``-th entry of the (sorted) far tier.
TARGET_WINDOW_EVENTS = 1024

#: Sustained near-tier miss pressure: when at least this many pushes
#: since the last re-anchor landed just beyond the window (within
#: ``MISS_HORIZON_SPANS`` spans of it), the next window is widened to
#: cover the widest such miss.
MISS_PRESSURE_MIN = 64
MISS_HORIZON_SPANS = 4.0

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

        Cancelling is O(1): the entry stays in the queue (heap or
        bucket) as a tombstone and is discarded lazily when reached.
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
    """Priority queue of :class:`Event` objects.

    Entries everywhere are ``(time, priority, seq, event)`` tuples so
    both heap sifting and bucket sorting compare plain numbers in C
    instead of calling ``Event.__lt__`` — a measurable win at the
    millions-of-events scale of the Figure 10/11 experiments.

    Invariant of the calendar tier: every heap entry's time is
    ``>= _win_end`` and every near entry's time is ``< _win_end``, so
    the near tier always drains before the heap and the pop order is
    exactly the ``(time, priority, seq)`` total order.

    The far tier additionally tracks whether its backing list is fully
    sorted (``_heap_sorted``): a sorted ascending list is a valid binary
    heap, monotone far pushes keep it sorted with a plain append, and
    window migration then reduces to a bisect plus a front slice.
    Out-of-order far pushes fall back to ``heappush`` and clear the
    flag; the next re-anchor restores it with one C-speed ``sort()``.
    """

    __slots__ = (
        "_heap", "_seq", "_live", "_free",
        "_buckets", "_occ", "_sorted", "_si", "_cur",
        "_win_start", "_win_end", "_near", "_inv_width", "_span",
        "_heap_sorted", "_miss_near", "_miss_span",
    )

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._live = 0
        self._free: list[Event] = []
        # Near-future calendar tier.
        self._span = NEAR_BUCKETS * BUCKET_WIDTH
        self._inv_width = 1.0 / BUCKET_WIDTH
        self._buckets: list[list[tuple]] = [[] for _ in range(NEAR_BUCKETS)]
        self._occ: list[int] = []  # int-heap of (possibly stale) nonempty bucket indices
        self._sorted: list = []    # the opened (current) bucket, sorted
        self._si = 0               # consumption index into ``_sorted``
        self._cur = 0              # index of the opened bucket
        self._win_start = 0.0
        self._win_end = self._span
        self._near = 0             # entries (live + tombstones) in the near tier
        self._heap_sorted = True   # far-tier list is fully sorted (empty is)
        self._miss_near = 0        # far pushes just beyond the window, since re-anchor
        self._miss_span = 0.0      # widest such miss, as an offset from _win_start

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
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
        entry = (time, priority, seq, ev)
        if time < self._win_end:
            self._insert_near(entry)
        else:
            self._insert_far(entry)
        return ev

    def burn_seq(self) -> int:
        """Consume one sequence number without inserting an event
        (kernel-private: ``Simulator.book``). Burning keeps the global
        sequence stream identical to one where every delivery is a real
        ``push``."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def _insert_near(self, entry: tuple) -> None:
        """Near tier. Bucket index relative to the window start; times
        at or before the current bucket (including float-edge rounding
        and out-of-order pushes below the window) join the opened
        sorted run, where an ordered insert keeps pop order exact."""
        idx = int((entry[0] - self._win_start) * self._inv_width)
        if idx >= NEAR_BUCKETS:
            idx = NEAR_BUCKETS - 1
        if idx > self._cur:
            bucket = self._buckets[idx]
            if not bucket:
                heapq.heappush(self._occ, idx)
            bucket.append(entry)
        else:
            s = self._sorted
            si = self._si
            if si >= len(s):
                # The opened run is fully consumed (its slots are
                # tombstoned to None); start a fresh run.
                self._sorted = [entry]
                self._si = 0
            elif entry >= s[-1]:
                s.append(entry)  # overwhelmingly common: same-time FIFO
            else:
                insort(s, entry, si)
        self._near += 1

    def _insert_far(self, entry: tuple) -> None:
        """Far tier, with the sorted-append fast path and the
        near-miss pressure accounting the adaptive window feeds on."""
        heap = self._heap
        if self._heap_sorted and (not heap or entry >= heap[-1]):
            heap.append(entry)  # a sorted list stays a valid heap
        else:
            heapq.heappush(heap, entry)
            self._heap_sorted = False
        time = entry[0]
        if time < self._win_end + self._span * MISS_HORIZON_SPANS:
            # A near miss: had the window been a few spans wider this
            # push would have been an O(1) bucket append. The widest
            # miss is kept as an absolute time — the window start will
            # have moved by the time it is read at the next re-anchor.
            self._miss_near += 1
            if time > self._miss_span:
                self._miss_span = time

    # ------------------------------------------------------------------
    # Near-tier machinery
    # ------------------------------------------------------------------
    def _open_next_bucket(self) -> None:
        """Advance the cursor to the next nonempty bucket and sort it."""
        occ = self._occ
        buckets = self._buckets
        while True:
            idx = heapq.heappop(occ)  # _near > 0 guarantees a hit
            bucket = buckets[idx]
            if bucket:
                bucket.sort()
                buckets[idx] = []
                self._sorted = bucket
                self._si = 0
                self._cur = idx
                return

    def _advance_window(self) -> None:
        """Re-anchor the (empty) near window at the heap's top time and
        migrate every heap entry inside the new window into the near
        tier.

        The new window's span is *adaptive*, derived from the far
        tier's observed inter-event gaps: it is sized to hold about
        :data:`TARGET_WINDOW_EVENTS` entries (the offset of the
        TARGET-th entry of the sorted far tier), floored at the
        original ``NEAR_BUCKETS * BUCKET_WIDTH`` geometry, and widened
        to cover sustained near-miss push pressure. Adaptation depends
        only on queue contents, never on wall clock, so it is fully
        deterministic.

        Migration is sort-based: the far tier is sorted in place (a
        sorted list is a valid heap; a no-op when monotone appends
        kept it sorted), the window sliced off its front and
        distributed into buckets — in ascending order, so each bucket
        is born sorted and its open-time ``sort()`` is a linear scan.
        Only bucket 0 is opened: the opened run never spans more than
        one bucket, so the ordered inserts of later same-window pushes
        move a bucket's worth of live entries, not a window's, and the
        run's consumed slots are dropped at the next bucket.
        """
        heap = self._heap
        if not self._heap_sorted:
            heap.sort()
            self._heap_sorted = True
        t0 = heap[0][0]
        n = len(heap)
        if n > TARGET_WINDOW_EVENTS:
            cand = heap[TARGET_WINDOW_EVENTS][0] - t0
        else:
            cand = heap[-1][0] - t0  # small far tier: take all of it
        if self._miss_near >= MISS_PRESSURE_MIN and self._miss_span - t0 > cand:
            cand = self._miss_span - t0
        self._miss_near = 0
        self._miss_span = 0.0
        min_span = NEAR_BUCKETS * BUCKET_WIDTH
        span = cand if cand > min_span else min_span
        self._span = span
        inv = self._inv_width = NEAR_BUCKETS / span
        self._win_start = t0
        end = self._win_end = t0 + span
        # Entries with time == end stay in the heap (the invariant is
        # strict: near times < _win_end). ``(end,)`` sorts before any
        # real ``(end, prio, seq, ev)`` entry, so bisect_left lands on
        # the first entry with time >= end.
        k = bisect_left(heap, (end,))
        run = heap[:k]
        del heap[:k]
        self._occ.clear()
        self._near = k
        buckets = self._buckets
        occ = self._occ
        self._cur = 0
        heappush = heapq.heappush
        for entry in run:
            idx = int((entry[0] - t0) * inv)
            if idx >= NEAR_BUCKETS:
                idx = NEAR_BUCKETS - 1
            bucket = buckets[idx]
            if not bucket and idx > 0:
                heappush(occ, idx)
            bucket.append(entry)
        bucket = buckets[0]  # holds the old heap top (idx 0) by construction
        buckets[0] = []
        self._sorted = bucket  # slices of a sorted run are sorted
        self._si = 0

    def peek_entry(self) -> Optional[tuple]:
        """The next live ``(time, priority, seq, event)`` entry without
        consuming it, or ``None``. Tombstones are discarded."""
        while True:
            s = self._sorted
            si = self._si
            n = len(s)
            while si < n:
                entry = s[si]
                if entry[3].callback is not None:
                    self._si = si
                    return entry
                s[si] = None  # release the tombstone's payload
                si += 1
                self._near -= 1
            self._si = si
            if self._near > 0:
                self._open_next_bucket()
                continue
            heap = self._heap
            if self._heap_sorted:
                # Sweep dead tops with one front slice, keeping the
                # sorted-far-tier invariant (heappop would scramble it).
                i = 0
                hn = len(heap)
                while i < hn and heap[i][3].callback is None:
                    i += 1
                if i:
                    del heap[:i]
                if heap:
                    self._advance_window()
                    continue
                return None
            while heap:
                if heap[0][3].callback is not None:
                    self._advance_window()
                    break
                heapq.heappop(heap)
            else:
                return None

    def _consume(self, entry: tuple) -> Event:
        """Remove the entry returned by :meth:`peek_entry`."""
        si = self._si
        self._sorted[si] = None  # drop the tuple's reference to the event
        self._si = si + 1
        self._near -= 1
        self._live -= 1
        return entry[3]

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises
        ------
        SimulationError
            If the queue holds no live events.
        """
        entry = self.peek_entry()
        if entry is None:
            raise SimulationError("pop from empty event queue")
        return self._consume(entry)

    def pop_ready(self, until: Optional[float] = None) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` when
        the queue is empty or the next event fires after ``until``.

        This is the kernel's single-walk fallback: one call replaces a
        peek + ``pop`` pair (which traversed the queue twice per
        event). The common case — next slot of the opened sorted run
        holds a live entry — is fully inlined.
        """
        s = self._sorted
        si = self._si
        # Invariant: the slot at ``_si`` is never a consumed/None
        # slot (tombstone sweeps null the slot *and* advance _si),
        # so it is either past the end or a real entry tuple.
        if si < len(s):
            entry = s[si]
            if entry[3].callback is not None:
                if until is not None and entry[0] > until:
                    return None
                s[si] = None
                self._si = si + 1
                self._near -= 1
                self._live -= 1
                return entry[3]
        entry = self.peek_entry()
        if entry is None or (until is not None and entry[0] > until):
            return None
        return self._consume(entry)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def recycle(self, ev: Event) -> None:
        """Return a *proven-unreferenced* event handle to the free list.

        Only the kernel calls this, and only after checking that no
        external reference to the handle survives — recycling a handle
        someone still holds would let a stale ``cancel()`` kill an
        unrelated future event.
        """
        free = self._free
        if len(free) < EVENT_POOL_CAP:
            ev.callback = None
            ev.args = ()
            free.append(ev)

    def note_cancelled(self) -> None:
        """Account for one external cancellation (kept O(1))."""
        self._live -= 1

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0
        for bucket in self._buckets:
            bucket.clear()
        self._occ.clear()
        self._sorted = []
        self._si = 0
        self._cur = 0
        self._span = NEAR_BUCKETS * BUCKET_WIDTH
        self._inv_width = 1.0 / BUCKET_WIDTH
        self._win_start = 0.0
        self._win_end = self._span
        self._near = 0
        self._heap_sorted = True
        self._miss_near = 0
        self._miss_span = 0.0
