"""Structured trace records.

The paper's experiments work from time-stamped client logs (the
BitTorrent client was "slightly modified to allow data collection: a
time-stamp was added to the default output"). :class:`TraceRecorder`
plays that role: components emit ``(time, category, fields)`` records.

Retaining a record and listening to it are separate requests. A
category is *retained* only after :meth:`TraceRecorder.enable`: its
records are kept for the whole run and :meth:`TraceRecorder.select`
reads them back (the ``trace`` CLI and the Chrome export ask for
this). :meth:`TraceRecorder.subscribe` hands each record of a category
to a listener as it is emitted and keeps nothing; the figure reducers
of :mod:`repro.core.collector` work this way. A category with neither
costs one dict lookup per record, and no :class:`TraceRecord` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One time-stamped log line."""

    time: float
    category: str
    fields: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.fields)


class TraceRecorder:
    """Record fan-out to listeners, plus a store of retained categories.

    Both are off by default per category: a record nobody retains or
    listens to is dropped at once, which keeps the hot path and the
    heap of large-scale runs cheap.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._enabled: set[str] = set()
        self._listeners: Dict[str, List[Callable[[TraceRecord], None]]] = {}

    def enable(self, *categories: str) -> None:
        """Start retaining the given categories' records."""
        self._enabled.update(categories)

    def disable(self, *categories: str) -> None:
        self._enabled.difference_update(categories)

    def enabled(self, category: str) -> bool:
        return category in self._enabled

    def categories(self) -> "set[str]":
        """The categories currently being retained (a copy)."""
        return set(self._enabled)

    def subscribe(self, category: str, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener`` for every record of ``category``.

        Listening does not retain: call :meth:`enable` as well to keep
        the records for :meth:`select`.
        """
        self._listeners.setdefault(category, []).append(listener)

    def unsubscribe(
        self, category: str, listener: Callable[[TraceRecord], None]
    ) -> None:
        """Detach one listener mid-run.

        Retention is untouched: an enabled category keeps its records
        until :meth:`disable`. Unknown listeners are a no-op so
        teardown code can unsubscribe unconditionally.
        """
        listeners = self._listeners.get(category)
        if not listeners:
            return
        try:
            listeners.remove(listener)
        except ValueError:
            return
        if not listeners:
            del self._listeners[category]

    def record(self, time: float, category: str, **fields: Any) -> None:
        """Hand a record to its category's listeners, and keep it if the
        category is retained; do nothing if it is neither."""
        listeners = self._listeners.get(category)
        retained = category in self._enabled
        if listeners is None and not retained:
            return
        rec = TraceRecord(time, category, tuple(fields.items()))
        if retained:
            self._records.append(rec)
        if listeners is not None:
            for listener in listeners:
                listener(rec)

    def select(
        self, category: Optional[str] = None, **field_filters: Any
    ) -> Iterator[TraceRecord]:
        """Iterate records, optionally filtering by category and field values."""
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if field_filters and any(
                rec.get(k, _MISSING) != v for k, v in field_filters.items()
            ):
                continue
            yield rec

    def __len__(self) -> int:
        """The number of retained records."""
        return len(self._records)

    def clear(self) -> None:
        """Drop accumulated records; categories and listeners persist
        (mid-run truncation between measurement windows)."""
        self._records.clear()

    def reset(self) -> None:
        """Full reset: records, retained categories *and* listeners —
        back to the freshly-constructed state."""
        self._records.clear()
        self._enabled.clear()
        self._listeners.clear()


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
