"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator. The generator *yields*
what it wants to wait for, and the kernel resumes it when the wait is
satisfied:

``yield 2.5``
    sleep for 2.5 simulated seconds;
``yield signal``
    wait until the :class:`Signal` is triggered; the trigger value is
    returned by the ``yield``;
``yield (signal, timeout)``
    wait with a timeout; returns :data:`TIMEOUT` if it expires first;
``yield other_process``
    join: wait for the other process to finish; returns its result.

Application code in the emulation (BitTorrent clients, trackers, the
workload tasks of the scheduler study) is written as such processes.

Examples
--------
>>> from repro.sim import Simulator
>>> from repro.sim.process import Process
>>> sim = Simulator()
>>> def worker():
...     yield 1.0
...     return "done"
>>> p = Process(sim, worker(), name="w")
>>> sim.run()
>>> (p.result, sim.now)
('done', 1.0)
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Tuple, Union

from repro.errors import SimulationError


class _Timeout:
    """Sentinel returned by a ``(signal, timeout)`` wait that timed out."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMEOUT"


TIMEOUT = _Timeout()


class Signal:
    """A one-shot waitable event carrying an optional value.

    Processes wait on it by yielding it; plain callbacks can subscribe
    with :meth:`wait_callback`. Triggering an already-triggered signal
    raises unless ``idempotent`` was requested.
    """

    __slots__ = ("sim", "name", "triggered", "value", "_waiters", "idempotent")

    def __init__(self, sim, name: str = "", idempotent: bool = False) -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self.idempotent = idempotent
        self._waiters: List[Callable[[Any], None]] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the signal, resuming all waiters with ``value``."""
        if self.triggered:
            if self.idempotent:
                return
            raise SimulationError(f"signal {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            cb(value)

    def wait_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when triggered (immediately if already)."""
        if self.triggered:
            callback(self.value)
        else:
            self._waiters.append(callback)

    def remove_callback(self, callback: Callable[[Any], None]) -> None:
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered value={self.value!r}" if self.triggered else "pending"
        return f"Signal({self.name!r}, {state})"


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        self.cause = cause
        super().__init__(cause)


class Process:
    """A simulated process executing a generator on a simulator.

    The process is scheduled to take its first step at ``start_delay``
    seconds after construction (default: immediately, i.e. at the
    current simulation time once the kernel runs).
    """

    __slots__ = (
        "sim",
        "name",
        "gen",
        "done",
        "result",
        "alive",
        "_pending_event",
        "_waiting_on",
    )

    def __init__(
        self,
        sim,
        gen: Generator[Any, Any, Any],
        name: str = "process",
        start_delay: float = 0.0,
    ) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.name = name
        self.gen = gen
        self.done = Signal(sim, name=f"{name}.done", idempotent=True)
        self.result: Any = None
        self.alive = True
        self._waiting_on: Union[Tuple[Signal, Callable], _TimedWait, None] = None
        self._pending_event = sim.schedule(start_delay, self._resume, None)

    # ------------------------------------------------------------------
    def _resume(self, send_value: Any) -> None:
        """Advance the generator by one step and dispatch its next wait."""
        if not self.alive:
            return
        self._pending_event = None
        self._waiting_on = None
        try:
            target = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(target)

    def _throw(self, exc: BaseException) -> None:
        """Throw an exception into the generator (used by interrupt)."""
        if not self.alive:
            return
        self._pending_event = None
        self._waiting_on = None
        try:
            target = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(target)

    def _dispatch(self, target: Any) -> None:
        sim = self.sim
        if isinstance(target, (int, float)):
            self._pending_event = sim.schedule(float(target), self._resume, None)
        elif isinstance(target, Signal):
            self._wait_signal(target)
        elif isinstance(target, Process):
            self._wait_signal(target.done)
        elif isinstance(target, tuple) and len(target) == 2:
            signal, timeout = target
            if not isinstance(signal, Signal):
                raise SimulationError(f"cannot wait on {target!r}")
            self._wait_signal_timeout(signal, float(timeout))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unwaitable {target!r}"
            )

    def _wait_signal(self, signal: Signal) -> None:
        if signal.triggered:
            # Resume via the queue (not synchronously) to bound stack depth
            # and preserve event ordering.
            self._pending_event = self.sim.schedule(0.0, self._resume, signal.value)
            return
        on_trigger = self._resume
        self._waiting_on = (signal, on_trigger)
        signal.wait_callback(on_trigger)

    def _wait_signal_timeout(self, signal: Signal, timeout: float) -> None:
        if signal.triggered:
            self._pending_event = self.sim.schedule(0.0, self._resume, signal.value)
            return
        waiter = _TimedWait(self, signal)
        on_trigger = waiter.on_trigger
        waiter.timer = self.sim.schedule(timeout, waiter.on_timeout)
        self._waiting_on = waiter
        signal.wait_callback(on_trigger)

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self.gen = None  # type: ignore[assignment]
        self.done.trigger(result)

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process may catch it to clean up; if uncaught, the process
        terminates with the exception propagating to the kernel.
        """
        if not self.alive:
            return
        self._disarm()
        self.sim.schedule(0.0, self._throw, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process without running any more of its code."""
        if not self.alive:
            return
        self._disarm()
        gen = self.gen
        self._finish(None)
        if gen is not None:
            gen.close()

    def _disarm(self) -> None:
        """Cancel whatever would resume the process: its pending event,
        its signal subscription or its timed wait (timer included)."""
        if self._pending_event is not None:
            self.sim.cancel(self._pending_event)
            self._pending_event = None
        waiting, self._waiting_on = self._waiting_on, None
        if isinstance(waiting, _TimedWait):
            waiting.disarm()
        elif waiting is not None:
            waiting[0].remove_callback(waiting[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else f"done result={self.result!r}"
        return f"Process({self.name!r}, {state})"


class _TimedWait:
    """One ``(signal, timeout)`` wait: whichever of the signal and the
    timer comes first resumes the process, and the other is disarmed.
    Its two bound methods are the callbacks, so a wait allocates no
    closure, cell or dict."""

    __slots__ = ("process", "signal", "timer", "done")

    def __init__(self, process: Process, signal: Signal) -> None:
        self.process = process
        self.signal = signal
        self.timer = None
        self.done = False

    def on_trigger(self, value: Any) -> None:
        if self.done:
            return
        self.done = True
        process = self.process
        process.sim.cancel(self.timer)
        process._resume(value)

    def disarm(self) -> None:  # the process was interrupted or killed
        self.done = True
        self.process.sim.cancel(self.timer)
        self.signal.remove_callback(self.on_trigger)

    def on_timeout(self) -> None:
        if self.done:
            return
        self.done = True
        self.timer = None  # the firing handle may go back to the free list
        self.signal.remove_callback(self.on_trigger)
        self.process._resume(TIMEOUT)
