"""Reference kernel: a plain ``heapq`` queue and the naive run loop.

What :mod:`repro.sim.event` and :mod:`repro.sim.kernel` must be
indistinguishable from: events ordered by ``(time, priority, seq)`` in
one binary heap, cancellation by tombstone, and a run loop that peeks
the next time, pops, and calls — no free list, no inlined loop, no
collector policy.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Handle:
    """A scheduled callback; ``callback`` is ``None`` once cancelled."""

    __slots__ = ("time", "priority", "seq", "callback", "args")

    def __init__(self, time, priority, seq, callback, args) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args

    @property
    def cancelled(self) -> bool:
        return self.callback is None


class HeapQueue:
    """``(time, priority, seq)``-ordered events in one ``heapq`` list."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[..., Any], args: tuple = (),
             priority: int = 0) -> Handle:
        handle = Handle(time, priority, self._seq, callback, args)
        heapq.heappush(self._heap, (time, priority, self._seq, handle))
        self._seq += 1
        self._live += 1
        return handle

    def cancel(self, handle: Handle) -> None:
        if handle.callback is not None:
            handle.callback = None
            self._live -= 1

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0][3].callback is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop(self) -> Handle:
        """The earliest live event; ``IndexError`` when there is none."""
        while True:
            handle = heapq.heappop(self._heap)[3]
            if handle.callback is not None:
                self._live -= 1
                return handle


class HeapKernel:
    """The clock and run loop over a :class:`HeapQueue`, with the
    scheduling surface a :class:`~repro.net.pipe.DummynetPipe` uses."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._queue = HeapQueue()
        self._stopped = False

    @property
    def pending(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Handle:
        return self._queue.push(self.now + delay, callback, args, priority)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Handle:
        return self._queue.push(time, callback, args, priority)

    def cancel(self, handle: Handle) -> None:
        self._queue.cancel(handle)

    def stop(self) -> None:
        self._stopped = True

    def _fire(self) -> None:
        handle = self._queue.pop()
        self.now = handle.time
        callback, args = handle.callback, handle.args
        handle.callback = None
        callback(*args)
        self.events_processed += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Fire events in order until the queue drains, ``stop()`` is
        called, ``max_events`` have fired, or the next event is past
        ``until`` (the clock then stands at ``until``)."""
        self._stopped = False
        fired = 0
        while not self._stopped and (max_events is None or fired < max_events):
            next_time = self._queue.peek_time()
            if next_time is None:
                if until is not None and until > self.now:
                    self.now = until
                return
            if until is not None and next_time > until:
                self.now = until
                return
            self._fire()
            fired += 1

    def step(self) -> bool:
        """Fire one event; ``False`` when none was pending."""
        if self._queue.peek_time() is None:
            return False
        self._fire()
        return True
