"""Incremental JSONL checkpointing for sweep execution.

One line per finished point, appended and flushed the moment the
executor records it::

    {"key": "<request key>", "result": {<RunResult.as_dict()>}}

An interrupted sweep re-run with ``resume=True`` loads the file, skips
every point whose key is already present, and seeds the aggregate with
the stored results — no finished work is redone. Keys are the stable
:attr:`~repro.experiments.api.RunRequest.key`, so a checkpoint written
by a ``--parallel 8`` run resumes correctly under ``--parallel 1`` and
vice versa. An unparseable line (a crash mid-write) is ignored by the
loaders, and a writer that finds one at the end of the file starts on
a fresh line, which makes the format append-crash-safe.

The executor also interleaves per-point *lifecycle event* lines::

    {"event": {"kind": "point_retried", "point": "<key>", ...}}

Events carry wall-clock context (what crashed, how often a point was
retried) that the result lines deliberately flatten away. They are
invisible to :func:`load_checkpoint` (no ``"key"`` field → skipped),
so old checkpoints and new ones resume identically; a ``--resume``
run reads them back via :func:`load_checkpoint_events` to report what
previously failed instead of silently swallowing the history.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Mapping, Optional, TextIO, Union

from repro.experiments.api import RunResult

PathLike = Union[str, pathlib.Path]


class CheckpointWriter:
    """Append-only JSONL sink; one flushed line per completed point."""

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[TextIO] = None
        self.lines_written = 0

    def _append(self, line: str) -> None:
        if self._fh is None:
            # A crash mid-write leaves a torn last line. Appending
            # straight onto it would glue this line to the fragment
            # and the loaders would drop both: start on a fresh line.
            torn = False
            if self.path.exists() and self.path.stat().st_size:
                with self.path.open("rb") as fh:
                    fh.seek(-1, 2)
                    torn = fh.read(1) != b"\n"
            self._fh = self.path.open("a")
            if torn:
                self._fh.write("\n")
        self._fh.write(line + "\n")
        self._fh.flush()
        self.lines_written += 1

    def record(self, result: RunResult) -> None:
        self._append(
            json.dumps(
                {"key": result.request.key, "result": result.as_dict()},
                sort_keys=True,
                separators=(",", ":"),
            )
        )

    def event(self, doc: Mapping[str, Any]) -> None:
        """Append one lifecycle-event line (``{"event": {...}}``).

        Best-effort durability for *observability* data: serialization
        failures are swallowed so a weird event payload can never take
        down the sweep it is describing.
        """
        try:
            line = json.dumps(
                {"event": dict(doc)}, sort_keys=True, separators=(",", ":")
            )
        except (TypeError, ValueError):
            return
        self._append(line)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_checkpoint(path: PathLike) -> Dict[str, RunResult]:
    """Load ``key -> RunResult`` from a checkpoint file.

    Missing file → empty dict. Corrupt lines (partial writes from a
    crash) are skipped; later duplicates of a key win, so a point that
    was retried across interruptions resolves to its final outcome.
    """
    path = pathlib.Path(path)
    done: Dict[str, RunResult] = {}
    if not path.exists():
        return done
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                done[doc["key"]] = RunResult.from_dict(doc["result"])
            except (ValueError, KeyError, TypeError):
                continue  # torn write or event line — ignore
    return done


def load_checkpoint_events(path: PathLike) -> List[Dict[str, Any]]:
    """Load the lifecycle-event lines from a checkpoint file, in order.

    Missing file → empty list; torn writes and result lines are
    skipped. Used by ``--resume`` to report what crashed or was
    retried in the interrupted run.
    """
    path = pathlib.Path(path)
    events: List[Dict[str, Any]] = []
    if not path.exists():
        return events
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn write — ignore
            event = doc.get("event") if isinstance(doc, dict) else None
            if isinstance(event, dict):
                events.append(event)
    return events
