"""Parallel, fault-tolerant execution of an :class:`ExecutionPlan`.

Everything this package runs in another process is one call in one
:class:`CommandWorker` — a sweep point, or a ``fig10_cells`` cell
(which is a sweep point of its own plan) — and goes through one seam:

* **one child entry point** (:func:`_child_main`): build a handler,
  call it once, send the result or the exception with its traceback,
  exit;
* **one parent-side pump** (:func:`_pump`): multiplex any set of
  :class:`CommandWorker` pipes, fold interleaved telemetry into its
  sink, turn EOF or a shipped error into the one
  :class:`WorkerCrashed` report, hand back replies;
* **one retry ladder** (:meth:`SweepExecutor._settle`) shared by
  ``parallel=0`` (points run inline in the calling process — no
  isolation, but convenient under a debugger) and ``parallel>=1``.

The sweep engine adds three robustness mechanisms on top:

* **wall-clock timeouts** — a worker past its per-point deadline is
  killed and the point is retried;
* **crash/exception capture** — a worker that raises, or dies without
  reporting (segfault, ``os._exit``, OOM-kill), surfaces as a failed
  attempt instead of hanging the sweep;
* **bounded retry with exponential backoff** — each point gets up to
  ``max_attempts`` tries; a point that exhausts them is recorded as
  ``status="failed"`` and the sweep continues.

Completed points stream into an incremental JSONL checkpoint
(:mod:`repro.runtime.checkpoint`); re-running with ``resume=True``
skips them. Because every point's seed is fixed by the plan (not by
scheduling), results are byte-identical whatever ``parallel`` is.

Worker start method defaults to ``fork`` where available (closures in
custom runners work, module import cost is not repaid per point) and
``spawn`` elsewhere; pass ``mp_context="spawn"`` explicitly to test
the pickling path. The engine instruments itself through
:mod:`repro.obs` metrics (``runtime.points_*``,
``runtime.workers_active``).

Live telemetry: workers interleave wall-clock-only ``("telemetry",
event)`` messages (heartbeats, per-point lifecycle) with their reply
on the same pipe, and the pump hands them to a
:class:`~repro.obs.telemetry.TelemetryHub` when one is passed — else
to the process's ambient emitter when that is enabled, so a plan run
inside a run that is itself streaming (``run fig10_cells partitions=2
--telemetry``) relays its workers' heartbeats upward. Inline points
likewise stream through the hub or the ambient emitter. The per-point
``started/finished/retried/crashed/failed`` records are also appended
to the checkpoint JSONL (telemetry or not), which is how a
``--resume`` run reports what previously failed. None of this touches
the deterministic path — results and aggregates are byte-identical
with telemetry on or off.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.experiments.api import RunRequest, RunResult
from repro.obs import telemetry as obs_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryHub
from repro.runtime.aggregate import SweepOutcome
from repro.runtime.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    load_checkpoint_events,
)
from repro.runtime.plan import ExecutionPlan

#: Environment variable exposing the current attempt number (1-based)
#: to the code running a point — used by fault-injection tests.
ATTEMPT_ENV = "REPRO_RUNTIME_ATTEMPT"

#: How long the parent waits for a child that should already be gone
#: (its exit code after EOF, its EOF in ``close``) before killing it.
_REAP_SECONDS = 5.0

Runner = Callable[[RunRequest], RunResult]


def registry_runner(request: RunRequest) -> RunResult:
    """Default runner: one sweep point through the registry entry's
    :meth:`~repro.experiments.registry.ExperimentEntry.point_runner`
    (the entry's point function, else the whole experiment)."""
    from repro.experiments import get_experiment

    return get_experiment(request.experiment_id).point_runner(request)


def _cause(exc: BaseException) -> str:
    """The one-line form of a failure, the same whichever process the
    point ran in (it is recorded in checkpoints and aggregates)."""
    return f"{type(exc).__name__}: {exc}"


def _child_main(
    conn: Connection,
    handler_factory,
    init_payload,
    source: Optional[str],
    heartbeat_interval: Optional[float],
) -> None:
    """Child-process entry point of every :class:`CommandWorker`.

    Builds the handler, calls it once and sends ``("ok", result)``.
    Any exception — in the factory or in the call — is sent as
    ``("error", {"error", "traceback"})`` instead; a child that dies
    without a word is the parent's EOF.

    With a ``source`` the child streams telemetry: a pipe emitter is
    installed as the process-ambient emitter *before* the factory runs
    (so the factory can register progress probes, or relabel the
    stream as :func:`_point_handler` does) and a heartbeat thread
    starts after it. Both share ``conn`` with the reply, serialized by
    a lock so a heartbeat can never tear it.
    """
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    # A forked child inherits the parent's ambient emitter and probe
    # table — neither may leak into this process's stream.
    obs_telemetry.clear_probes()
    obs_telemetry.set_emitter(
        obs_telemetry.pipe_emitter(conn, send_lock, source)
        if source is not None
        else None
    )
    heartbeat: Optional[obs_telemetry.Heartbeat] = None
    try:
        handler = handler_factory(init_payload)
        if source is not None:
            heartbeat = obs_telemetry.Heartbeat(
                obs_telemetry.get_emitter(), interval=heartbeat_interval
            ).start()
        send(("ok", handler()))
    except BaseException as exc:  # noqa: BLE001 — must never escape silently
        try:
            send(
                ("error", {"error": _cause(exc), "traceback": traceback.format_exc()})
            )
        except Exception:  # conn already broken — parent sees a crash
            pass
    finally:
        if heartbeat is not None:
            try:
                heartbeat.stop()  # final sample, ahead of the EOF
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


class WorkerCrashed(RuntimeError):
    """A :class:`CommandWorker` child died or reported an exception.

    ``error`` is the one-line cause — the child's ``"Type: message"``,
    or ``"worker crashed (exitcode N)"`` when it died without a word —
    which is what a sweep records for a failed attempt; ``str()``
    names the worker and appends the child's traceback.
    """

    def __init__(self, worker: str, error: str, traceback: str = "") -> None:
        super().__init__(f"{worker}: {error}\n{traceback}".rstrip())
        self.error = error


class CommandWorker:
    """A worker process that makes one call and exits.

    ``handler_factory(init_payload)`` runs in the child and returns a
    zero-argument ``handler``; the child calls it once and sends the
    result back. The parent reads the reply with :func:`_pump`, which
    returns a :class:`WorkerCrashed` instead when the child raised or
    died without a word.

    With ``telemetry=True`` the child streams heartbeat events
    (``source`` = ``name``) on the same pipe; the pump hands each one
    to ``on_telemetry`` (a hub's ``ingest``, or the ambient emitter's
    ``forward``).
    """

    def __init__(
        self,
        handler_factory,
        init_payload=None,
        mp_context: Optional[str] = None,
        name: str = "repro-worker",
        telemetry: bool = False,
        on_telemetry: Optional[Callable[[Dict[str, Any]], None]] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        ctx = multiprocessing.get_context(mp_context)
        self.name = name
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._on_telemetry = on_telemetry
        self._process = ctx.Process(
            target=_child_main,
            args=(
                child_conn,
                handler_factory,
                init_payload,
                name if telemetry else None,
                heartbeat_interval,
            ),
            daemon=True,
            name=name,
        )
        self._process.start()
        child_conn.close()
        self._dead = False

    def kill(self) -> None:
        """Kill the child without asking (a point past its deadline)."""
        self._dead = True
        self._process.kill()
        self.close()

    def close(self) -> None:
        """Reap the child (idempotent).

        Reads on to the child's EOF, so its last heartbeat (sent while
        it stops) still reaches the sink; a child still running
        :data:`_REAP_SECONDS` later is killed.
        """
        give_up = time.monotonic() + _REAP_SECONDS
        while not self._dead and time.monotonic() < give_up:
            _pump([self], give_up - time.monotonic())
        self._dead = True
        self._conn.close()
        self._process.join(timeout=_REAP_SECONDS)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=_REAP_SECONDS)


def _pump(
    workers: List[CommandWorker], timeout: Optional[float] = None
) -> List[Tuple[CommandWorker, Any]]:
    """The one parent-side reader of the worker protocol.

    Waits (at most ``timeout`` seconds; ``None`` = until something
    arrives) on every worker's pipe at once and reads one message from
    each pipe that is ready. ``("telemetry", event)`` goes to that
    worker's sink; anything else is a reply and is returned as
    ``(worker, payload)``. A worker whose pipe hit EOF (the process
    died, or closed it, without a word) or that shipped an ``error``
    is marked dead and its reply is the :class:`WorkerCrashed`
    describing it — returned, not raised, so one crash cannot swallow
    the other workers' replies.
    """
    by_conn = {worker._conn: worker for worker in workers}
    replies: List[Tuple[CommandWorker, Any]] = []
    for conn in connection_wait(list(by_conn), timeout):
        worker = by_conn[conn]
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            worker._process.join(timeout=_REAP_SECONDS)
            kind = "error"
            payload = {
                "error": f"worker crashed (exitcode {worker._process.exitcode})"
            }
        if kind == "telemetry":
            if worker._on_telemetry is not None:
                try:
                    worker._on_telemetry(payload)
                except Exception:
                    pass  # telemetry must never break the run it watches
        elif kind == "error":
            worker._dead = True
            replies.append((worker, WorkerCrashed(worker.name, **payload)))
        else:
            replies.append((worker, payload))
    return replies


def _run_attempt(runner: Runner, request: RunRequest, attempt: int) -> RunResult:
    """One try at one point, in whichever process runs it."""
    os.environ[ATTEMPT_ENV] = str(attempt)
    return runner(request).with_attempts(attempt)


def _point_handler(payload):
    """:class:`CommandWorker` factory for one sweep-point attempt: the
    handler runs it and returns the result dict."""
    runner, request, attempt = payload
    stream = obs_telemetry.get_emitter()
    if stream.enabled:
        # A sweep worker's events (heartbeats included — they start
        # after this factory) are labelled with its pid and its point.
        obs_telemetry.set_emitter(
            obs_telemetry.CallbackEmitter(
                stream.forward, f"sweep/pid{os.getpid()}", {"point": request.key}
            )
        )
    return lambda: _run_attempt(runner, request, attempt).as_dict()


@dataclass
class _Attempt:
    """One try at one point: queued in ``pending``, or (pool mode)
    running under a worker in ``active``."""

    request: RunRequest
    number: int = 1
    not_before: float = 0.0  # monotonic time gate (retry backoff)
    deadline: Optional[float] = None  # monotonic kill time once launched


@dataclass
class _Book:
    """Mutable execution state shared by the scheduling helpers."""

    results: Dict[str, RunResult] = field(default_factory=dict)
    pending: List[_Attempt] = field(default_factory=list)
    active: Dict[CommandWorker, _Attempt] = field(default_factory=dict)


class SweepExecutor:
    """Drives one plan to completion; reusable only via :func:`execute_plan`."""

    def __init__(
        self,
        plan: ExecutionPlan,
        parallel: int = 1,
        runner: Optional[Runner] = None,
        timeout: Optional[float] = None,
        max_attempts: int = 3,
        retry_backoff: float = 0.05,
        checkpoint_path: Optional[Union[str, os.PathLike]] = None,
        resume: bool = False,
        mp_context: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[TelemetryHub] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if parallel < 0:
            raise ValueError("parallel must be >= 0 (0 = inline)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.plan = plan
        self.parallel = parallel
        self.runner: Runner = runner if runner is not None else registry_runner
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.mp_context = mp_context
        self.telemetry = telemetry
        self.heartbeat_interval = heartbeat_interval
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._m_completed = m.counter("runtime.points_completed")
        self._m_failed = m.counter("runtime.points_failed")
        self._m_retried = m.counter("runtime.points_retried")
        self._m_timeout = m.counter("runtime.points_timeout")
        self._m_resumed = m.counter("runtime.points_resumed")
        self._m_workers = m.gauge("runtime.workers_active")

    # -- telemetry seams ------------------------------------------------
    def _emit(self, kind: str, **fields: Any) -> None:
        """Hub-only lifecycle event (no checkpoint line)."""
        if self.telemetry is not None:
            self.telemetry.ingest(
                {"ts": time.time(), "kind": kind, "source": "executor", **fields}
            )

    def _point_event(
        self,
        writer: Optional[CheckpointWriter],
        kind: str,
        key: str,
        **fields: Any,
    ) -> None:
        """Per-point lifecycle record: into the hub (when streaming)
        AND the checkpoint JSONL (always — resume reads it back)."""
        doc = {"ts": time.time(), "kind": kind, "source": "executor",
               "key": key, **fields}
        if self.telemetry is not None:
            self.telemetry.ingest(doc)
        if writer is not None:
            writer.event(doc)

    def _prior_failures(self) -> List[Dict[str, Any]]:
        """Failure/retry history from the checkpoint being resumed
        (timestamp-free, so reports stay deterministic)."""
        failures: List[Dict[str, Any]] = []
        for event in load_checkpoint_events(self.checkpoint_path):
            if event.get("kind") not in (
                "point_crashed", "point_retried", "point_failed"
            ):
                continue
            failures.append({
                "key": event.get("key"),
                "kind": event.get("kind"),
                "error": event.get("error"),
                "attempt": event.get("attempt"),
            })
        return failures

    # ------------------------------------------------------------------
    def run(self) -> SweepOutcome:
        started = time.perf_counter()
        book = _Book()
        resumed = 0
        prior_failures: List[Dict[str, Any]] = []

        if self.checkpoint_path is not None and self.resume:
            done = load_checkpoint(self.checkpoint_path)
            for point in self.plan:
                stored = done.get(point.key)
                # Only successful points are final; failed ones get a
                # fresh round of attempts on resume.
                if stored is not None and stored.is_ok:
                    book.results[point.key] = stored
                    resumed += 1
            self._m_resumed.inc(resumed)
            prior_failures = self._prior_failures()

        for point in self.plan:
            if point.key not in book.results:
                book.pending.append(_Attempt(point))

        self._emit(
            "run_started",
            experiment=self.plan.experiment_id,
            points=len(self.plan),
            pending=len(book.pending),
            resumed=resumed,
            parallel=self.parallel,
        )
        if prior_failures:
            self._emit(
                "resume_report",
                failures=prior_failures,
                resumed=resumed,
            )

        writer: Optional[CheckpointWriter] = None
        if self.checkpoint_path is not None:
            writer = CheckpointWriter(self.checkpoint_path)
        try:
            if self.parallel == 0:
                with self._inline_scope():
                    self._drive(book, writer)
            else:
                self._drive(book, writer)
        finally:
            if writer is not None:
                writer.close()
            for worker in book.active:  # pragma: no cover - interrupt path
                worker.kill()

        ordered = [book.results[p.key] for p in self.plan]
        outcome = SweepOutcome(
            plan=self.plan,
            results=ordered,
            metrics=self.metrics.snapshot(),
            wall_time_seconds=time.perf_counter() - started,
            resumed_points=resumed,
            prior_failures=prior_failures,
        )
        self._emit(
            "run_finished",
            completed=len(outcome.completed),
            failed=len(outcome.failed),
            wall_seconds=outcome.wall_time_seconds,
        )
        return outcome

    # -- scheduling -----------------------------------------------------
    def _drive(self, book: _Book, writer: Optional[CheckpointWriter]) -> None:
        """Start every ready attempt up to the concurrency cap, settle
        what finishes, until nothing is queued or running. Inline mode
        is the same loop with the calling process as its one worker."""
        slots = max(1, self.parallel)
        while book.pending or book.active:
            now = time.monotonic()
            ready = [a for a in book.pending if a.not_before <= now]
            for item in ready[: slots - len(book.active)]:
                book.pending.remove(item)
                self._point_event(
                    writer, "point_started", item.request.key, attempt=item.number
                )
                if self.parallel == 0:
                    self._settle(book, writer, item, self._run_inline(item))
                else:
                    self._launch(book, item)
            if book.active:
                self._collect(book, writer)
            elif not ready:
                # Everything left is backoff-gated; sleep until the gate.
                gate = min(a.not_before for a in book.pending)
                time.sleep(max(0.0, gate - time.monotonic()))

    def _settle(
        self,
        book: _Book,
        writer: Optional[CheckpointWriter],
        item: _Attempt,
        outcome: Union[RunResult, str],
    ) -> None:
        """The retry ladder: record a result; on an error string,
        requeue the point behind its backoff gate or, out of attempts,
        record it as failed."""
        if isinstance(outcome, RunResult):
            self._record(book, writer, outcome)
            return
        key = item.request.key
        self._point_event(
            writer, "point_crashed", key, attempt=item.number, error=outcome
        )
        if item.number < self.max_attempts:
            self._m_retried.inc()
            self._point_event(
                writer, "point_retried", key, attempt=item.number, error=outcome
            )
            backoff = self.retry_backoff * (2 ** (item.number - 1))
            book.pending.append(
                _Attempt(item.request, item.number + 1, time.monotonic() + backoff)
            )
        else:
            self._record(
                book, writer,
                RunResult.failed(item.request, outcome, attempts=item.number),
            )

    # -- inline (parallel=0) -------------------------------------------
    @contextmanager
    def _inline_scope(self):
        """Inline points run in *this* process: they stream through the
        ambient emitter — the hub's, when there is a hub, else whatever
        this process already streams to — exactly as they would from a
        worker; the caller's ``ATTEMPT_ENV`` is put back afterwards."""
        saved = os.environ.get(ATTEMPT_ENV)
        emitter = (
            self.telemetry.emitter("inline")
            if self.telemetry is not None
            else obs_telemetry.get_emitter()
        )
        try:
            with obs_telemetry.use_emitter(emitter):
                yield
        finally:
            if saved is None:
                os.environ.pop(ATTEMPT_ENV, None)
            else:
                os.environ[ATTEMPT_ENV] = saved

    def _run_inline(self, item: _Attempt) -> Union[RunResult, str]:
        try:
            return _run_attempt(self.runner, item.request, item.number)
        except Exception as exc:  # noqa: BLE001
            return _cause(exc)

    # -- process pool ---------------------------------------------------
    def _launch(self, book: _Book, item: _Attempt) -> None:
        if self.telemetry is not None:
            sink = self.telemetry.ingest
        else:
            ambient = obs_telemetry.get_emitter()
            sink = ambient.forward if ambient.enabled else None
        worker = CommandWorker(
            _point_handler,
            (self.runner, item.request, item.number),
            mp_context=self.mp_context,
            name=f"repro-sweep-{item.request.replication}",
            telemetry=sink is not None,
            on_telemetry=sink,
            heartbeat_interval=self.heartbeat_interval,
        )
        book.active[worker] = item
        self._m_workers.inc()
        if self.timeout is not None:
            item.deadline = time.monotonic() + self.timeout

    def _collect(self, book: _Book, writer: Optional[CheckpointWriter]) -> None:
        """One pump over the running workers, bounded by the nearest
        deadline; settle every attempt that answered, died or ran out
        of time."""
        now = time.monotonic()
        wait_for = min(
            [0.25]  # also the latency of noticing an opened backoff gate
            + [a.deadline - now for a in book.active.values() if a.deadline is not None]
        )
        finished: Dict[CommandWorker, Union[RunResult, str]] = {}
        for worker, reply in _pump(list(book.active), max(0.0, wait_for)):
            finished[worker] = (
                reply.error
                if isinstance(reply, WorkerCrashed)
                else RunResult.from_dict(reply)
            )
        now = time.monotonic()
        for worker, item in book.active.items():
            if worker not in finished and item.deadline is not None and now >= item.deadline:
                worker.kill()
                finished[worker] = f"timeout after {self.timeout:g}s"
                self._m_timeout.inc()
        for worker, outcome in finished.items():
            item = book.active.pop(worker)
            worker.close()
            self._m_workers.dec()
            self._settle(book, writer, item, outcome)

    # ------------------------------------------------------------------
    def _record(
        self, book: _Book, writer: Optional[CheckpointWriter], result: RunResult
    ) -> None:
        book.results[result.request.key] = result
        if result.is_ok:
            self._m_completed.inc()
            self._point_event(
                writer, "point_finished", result.request.key,
                attempt=result.attempts, status=result.status,
            )
        else:
            self._m_failed.inc()
            self._point_event(
                writer, "point_failed", result.request.key,
                attempt=result.attempts, error=result.error,
            )
        if writer is not None:
            writer.record(result)


def execute_plan(
    plan: ExecutionPlan,
    parallel: int = 1,
    runner: Optional[Runner] = None,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    retry_backoff: float = 0.05,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
    resume: bool = False,
    mp_context: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    telemetry: Optional[TelemetryHub] = None,
    heartbeat_interval: Optional[float] = None,
) -> SweepOutcome:
    """Execute ``plan`` and return its :class:`SweepOutcome`.

    ``parallel`` is the worker-process count (``0`` = inline in this
    process). ``telemetry`` streams live health into the given hub
    (without one, workers relay to the ambient emitter when it is
    enabled).
    See :class:`SweepExecutor` for the remaining knobs.
    """
    return SweepExecutor(
        plan,
        parallel=parallel,
        runner=runner,
        timeout=timeout,
        max_attempts=max_attempts,
        retry_backoff=retry_backoff,
        checkpoint_path=checkpoint_path,
        resume=resume,
        mp_context=mp_context,
        metrics=metrics,
        telemetry=telemetry,
        heartbeat_interval=heartbeat_interval,
    ).run()
