"""Synchronisation primitives built on :class:`~repro.sim.process.Signal`.

These are the queueing building blocks used by the socket layer
(receive buffers), the tracker (request queues) and the host-OS model
(run queues are bespoke, but tasks block on these).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.process import Signal


class Channel:
    """Unbounded FIFO message channel.

    ``put`` never blocks; ``get`` returns a :class:`Signal` that a
    process yields on and which triggers with the next item. Items are
    delivered in FIFO order to getters in FIFO order.

    Examples
    --------
    >>> from repro.sim import Simulator
    >>> from repro.sim.process import Process
    >>> sim = Simulator()
    >>> ch = Channel(sim, name="demo")
    >>> got = []
    >>> def consumer():
    ...     item = yield ch.get()
    ...     got.append(item)
    >>> _ = Process(sim, consumer())
    >>> ch.put(42)
    >>> sim.run()
    >>> got
    [42]
    """

    __slots__ = ("sim", "name", "_items", "_getters", "_subscriber", "closed")

    def __init__(self, sim, name: str = "channel") -> None:
        self.sim = sim
        self.name = name
        # Each queue exists only while it holds something (``None``
        # otherwise): an empty deque is 760 bytes, and at swarm scale
        # almost every channel is idle or subscribed and never queues.
        self._items: Optional[Deque[Any]] = None
        self._getters: Optional[Deque[Signal]] = None
        self._subscriber = None
        self.closed = False

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self.closed:
            raise SimulationError(f"put on closed channel {self.name!r}")
        if self._subscriber is not None:
            self._subscriber(item)
        elif self._getters is not None:
            self._pop_getter().trigger(item)
        elif self._items is None:
            self._items = deque((item,))
        else:
            self._items.append(item)

    def subscribe(self, callback) -> None:
        """Push mode: deliver every item (queued and future) to
        ``callback`` synchronously; ``None`` is delivered at close.
        Used where a waiting process per channel would be too heavy
        (one BitTorrent peer connection per remote peer)."""
        if self._subscriber is not None:
            raise SimulationError(f"channel {self.name!r} already subscribed")
        if self._getters is not None:
            raise SimulationError(
                f"channel {self.name!r} has blocked getters; cannot subscribe"
            )
        self._subscriber = callback
        while self._items is not None:
            callback(self._pop_item())
        if self.closed:
            callback(None)

    def get(self) -> Signal:
        """Return a signal that fires with the next item (or ``None`` at close)."""
        sig = Signal(self.sim, name=self.name)
        if self._items is not None:
            sig.trigger(self._pop_item())
        elif self.closed:
            sig.trigger(None)
        elif self._getters is None:
            self._getters = deque((sig,))
        else:
            self._getters.append(sig)
        return sig

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        return self._pop_item() if self._items is not None else None

    def close(self) -> None:
        """Close the channel: pending and future getters receive ``None``."""
        if self.closed:
            return
        self.closed = True
        if self._subscriber is not None:
            self._subscriber(None)
        while self._getters is not None:
            self._pop_getter().trigger(None)

    def _pop_item(self) -> Any:
        """Oldest queued item; the queue is released once drained."""
        items = self._items
        item = items.popleft()
        if not items:
            self._items = None
        return item

    def _pop_getter(self) -> Signal:
        """Oldest blocked getter; the queue is released once drained."""
        getters = self._getters
        sig = getters.popleft()
        if not getters:
            self._getters = None
        return sig

    def __len__(self) -> int:
        return len(self._items) if self._items is not None else 0


#: A Store is semantically identical to a Channel in this kernel.
Store = Channel


class Resource:
    """Counted resource (semaphore) with FIFO acquisition order.

    Examples
    --------
    >>> from repro.sim import Simulator
    >>> from repro.sim.process import Process
    >>> sim = Simulator()
    >>> res = Resource(sim, capacity=1)
    >>> order = []
    >>> def user(tag, hold):
    ...     yield res.acquire()
    ...     order.append((tag, sim.now))
    ...     yield hold
    ...     res.release()
    >>> _ = Process(sim, user("a", 2.0))
    >>> _ = Process(sim, user("b", 1.0))
    >>> sim.run()
    >>> order
    [('a', 0.0), ('b', 2.0)]
    """

    __slots__ = ("sim", "name", "capacity", "in_use", "_waiters")

    def __init__(self, sim, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Signal] = deque()

    def acquire(self) -> Signal:
        """Return a signal that fires once a unit is granted."""
        sig = Signal(self.sim, name=f"{self.name}.acquire")
        if self.in_use < self.capacity:
            self.in_use += 1
            sig.trigger(None)
        else:
            self._waiters.append(sig)
        return sig

    def try_acquire(self) -> bool:
        """Non-blocking acquire."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return one unit; grants it to the oldest waiter, if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of unheld resource {self.name!r}")
        if self._waiters:
            # Hand the unit directly to the next waiter; in_use unchanged.
            self._waiters.popleft().trigger(None)
        else:
            self.in_use -= 1

    @property
    def waiting(self) -> int:
        return len(self._waiters)
