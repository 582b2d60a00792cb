"""Time-series sampler: periodic registry diffs as per-metric series.

A snapshot tells you where the platform ended up; the paper's figures
need the *trajectory* (download evolution, load over time). The
:class:`TimeSeriesSampler` periodically snapshots a
:class:`~repro.obs.metrics.MetricsRegistry` on the simulation clock,
diffs consecutive snapshots, and accumulates one deterministic series
per metric:

* counters → per-interval delta (a rate when divided by the period);
* gauges → sampled value;
* histograms → per-interval observation-count delta plus sum delta.

Because sampling is an ordinary simulation event and the snapshot
excludes wall-flagged instruments, the resulting series are
byte-identical across same-seed runs — they can sit inside determinism
checks and the Perfetto export (as counter tracks).

Export: :meth:`TimeSeriesSampler.as_dict` (JSON-ready),
:meth:`to_csv` (``time,metric,field,value`` rows).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs.metrics import Snapshot

PathLike = Union[str, pathlib.Path]

#: One series: ``[(sim_time, value), ...]``.
Series = List[Tuple[float, float]]


class TimeSeriesSampler:
    """Periodic deterministic sampler over one metrics registry.

    Parameters
    ----------
    sim:
        The simulator whose clock and event queue drive sampling.
    registry:
        Registry to sample (default: ``sim.metrics``).
    period:
        Sampling period in sim-seconds.
    metrics:
        Optional name filter — only these metrics are tracked. ``None``
        tracks everything present at each sampling instant.
    """

    def __init__(
        self,
        sim,
        registry=None,
        period: float = 10.0,
        metrics: Optional[List[str]] = None,
    ) -> None:
        if period <= 0:
            raise ObservabilityError(f"sampling period must be positive, got {period}")
        self.sim = sim
        self.registry = registry if registry is not None else sim.metrics
        self.period = period
        self.filter = set(metrics) if metrics is not None else None
        #: metric name -> field -> series. Fields: counters ``delta``;
        #: gauges ``value``; histograms ``count_delta`` and ``sum_delta``.
        self.series: Dict[str, Dict[str, Series]] = {}
        self.sample_times: List[float] = []
        self._prev: Optional[Snapshot] = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Take a baseline sample now and then one every ``period``."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(0.0, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample_now()
        self.sim.schedule(self.period, self._tick)

    # ------------------------------------------------------------------
    def sample_now(self) -> None:
        """Take one sample immediately (also usable without start())."""
        now = self.sim.now
        snap = self.registry.snapshot()
        prev = self._prev if self._prev is not None else {}
        self.sample_times.append(now)
        for name in sorted(snap):
            if self.filter is not None and name not in self.filter:
                continue
            cur = snap[name]
            old = prev.get(name)
            kind = cur["kind"]
            if kind == "counter":
                before = old["value"] if old else 0
                self._append(name, "delta", now, cur["value"] - before)  # type: ignore[operator]
            elif kind == "gauge":
                self._append(name, "value", now, cur["value"])  # type: ignore[arg-type]
            elif kind == "histogram":
                c0 = old["count"] if old else 0
                s0 = old["sum"] if old else 0.0
                self._append(name, "count_delta", now, cur["count"] - c0)  # type: ignore[operator]
                self._append(name, "sum_delta", now, cur["sum"] - s0)  # type: ignore[operator]
        self._prev = snap

    def _append(self, name: str, field: str, t: float, value: float) -> None:
        self.series.setdefault(name, {}).setdefault(field, []).append((t, value))

    # -- views ---------------------------------------------------------
    def get(self, name: str, field: Optional[str] = None) -> Series:
        """One metric's series (field defaults to the metric's primary:
        counter→delta, gauge→value, histogram→count_delta)."""
        fields = self.series.get(name)
        if not fields:
            return []
        if field is None:
            for candidate in ("delta", "value", "count_delta"):
                if candidate in fields:
                    return list(fields[candidate])
            return []
        return list(fields.get(field, []))

    def rate(self, name: str) -> Series:
        """Counter deltas divided by the sampling period (per-second)."""
        return [(t, v / self.period) for t, v in self.get(name, "delta")]

    def names(self) -> List[str]:
        return sorted(self.series)

    def __len__(self) -> int:
        return len(self.sample_times)

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-ready, deterministic document."""
        return {
            "period": self.period,
            "samples": len(self.sample_times),
            "series": {
                name: {
                    field: [[t, v] for t, v in points]
                    for field, points in sorted(fields.items())
                }
                for name, fields in sorted(self.series.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def to_csv(self, path: PathLike) -> pathlib.Path:
        """Long-format ``time,metric,field,value`` rows."""
        path = pathlib.Path(path)
        lines = ["time,metric,field,value"]
        rows: List[Tuple[float, str, str, float]] = []
        for name, fields in sorted(self.series.items()):
            for field, points in sorted(fields.items()):
                for t, v in points:
                    rows.append((t, name, field, v))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        for t, name, field, v in rows:
            lines.append(f"{t},{name},{field},{v}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSeriesSampler(period={self.period}, "
            f"samples={len(self.sample_times)}, metrics={len(self.series)})"
        )
