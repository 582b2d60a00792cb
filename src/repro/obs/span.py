"""Timeline spans keyed to simulation time.

A :class:`Span` is one named interval of *sim-time* with optional
key/value fields; a :class:`Tracer` manages a stack of open spans so
nested phases ("run", "announce", "rechoke-round") form a tree. Spans
complement the :class:`~repro.obs.metrics.MetricsRegistry`: metrics
aggregate, spans keep the timeline — which is what the paper's
download-evolution figures (Fig. 8/10) are, conceptually.

Because spans are stamped with the deterministic simulation clock,
their export is byte-identical across same-seed runs, unlike anything
read off the host's wall clock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

Clock = Callable[[], float]


class Span:
    """One named sim-time interval, possibly nested under a parent."""

    __slots__ = ("name", "start", "end", "depth", "parent", "fields", "index")

    def __init__(
        self,
        name: str,
        start: float,
        depth: int,
        parent: Optional["Span"],
        index: int,
        **fields: Any,
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.depth = depth
        self.parent = parent
        self.index = index
        self.fields: Dict[str, Any] = dict(fields)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def annotate(self, **fields: Any) -> "Span":
        self.fields.update(fields)
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "depth": self.depth,
            "parent": None if self.parent is None else self.parent.index,
            "fields": dict(sorted(self.fields.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.end is None else f"{self.end:.6f}"
        return f"Span({self.name!r}, {self.start:.6f}..{end}, depth={self.depth})"


class _SpanContext:
    """``with tracer.span("x"):`` support.

    ``__exit__`` must be safe under exception unwinds: if the span was
    already closed — e.g. an inner handler ended an *outer* span, which
    cascades and closes this one too — exiting is a no-op rather than
    an :class:`ObservabilityError` that would mask the in-flight
    exception. When an exception is propagating, the span is annotated
    with the exception type (deterministic: just the class name) before
    it closes, so traces show which phases aborted.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        if span.end is not None or span not in self._tracer._stack:
            return  # already closed by an outer unwind
        if exc_type is not None:
            span.annotate(error=exc_type.__name__)
        self._tracer.end(span)


class Tracer:
    """Span factory + stack bound to a clock (normally ``lambda: sim.now``)."""

    enabled = True

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._stack: List[Span] = []
        self.finished: List[Span] = []
        self._count = 0

    # -- span lifecycle ------------------------------------------------
    def begin(self, name: str, **fields: Any) -> Span:
        """Open a span nested under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            self._clock(),
            depth=len(self._stack),
            parent=parent,
            index=self._count,
            **fields,
        )
        self._count += 1
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` (and any deeper spans left open inside it)."""
        if span.end is not None:
            raise ObservabilityError(f"span {span.name!r} already ended")
        if span not in self._stack:
            raise ObservabilityError(f"span {span.name!r} is not open on this tracer")
        now = self._clock()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            self.finished.append(top)
            if top is span:
                break
        return span

    def span(self, name: str, **fields: Any) -> _SpanContext:
        """Context manager form: ``with tracer.span("phase") as s: ...``"""
        return _SpanContext(self, self.begin(name, **fields))

    # -- introspection -------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def active(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def select(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally filtered by name, in close order."""
        if name is None:
            return list(self.finished)
        return [s for s in self.finished if s.name == name]

    def as_list(self) -> List[Dict[str, Any]]:
        """Finished spans in *start* order, export-ready."""
        return [s.as_dict() for s in sorted(self.finished, key=lambda s: s.index)]

    def __len__(self) -> int:
        return len(self.finished)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(open={len(self._stack)}, finished={len(self.finished)})"


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NullSpan:
    """Do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()
    name = "<null>"
    start = 0.0
    end: Optional[float] = 0.0
    depth = 0
    parent = None
    index = -1
    fields: Dict[str, Any] = {}
    open = False
    duration: Optional[float] = 0.0

    def annotate(self, **fields: Any) -> "NullSpan":
        return self

    def as_dict(self) -> Dict[str, Any]:  # pragma: no cover - never exported
        return {}


_NULL_SPAN = NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """No-op tracer: spans cost one empty method call."""

    enabled = False
    depth = 0
    active = None
    finished: Tuple[Span, ...] = ()

    def __init__(self, clock: Optional[Clock] = None) -> None:
        pass

    def begin(self, name: str, **fields: Any) -> NullSpan:
        return _NULL_SPAN

    def end(self, span: Any) -> Any:
        return span

    def span(self, name: str, **fields: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def select(self, name: Optional[str] = None) -> List[Span]:
        return []

    def as_list(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTracer()"


#: Shared disabled tracer.
NULL_TRACER = NullTracer()
