"""P2PLab experiment orchestration — the library's top-level API.

An :class:`Experiment` owns the whole stack: a testbed of physical
nodes, a compiled topology of virtual nodes, application launch
schedules and the trace collector. The BitTorrent study uses the
specialized :class:`repro.bittorrent.swarm.Swarm`, which composes the
same pieces.

* :mod:`repro.core.experiment` — experiment definition and run loop;
* :mod:`repro.core.launcher` — staggered application launches;
* :mod:`repro.core.collector` — reducers that turn the client log
  (the paper's time-stamped client output) into per-node time series;
* :mod:`repro.core.report` — figure-shaped summaries.
"""

from repro.core.collector import (
    Completions,
    PayloadCurve,
    ProgressSeries,
    completion_curve,
    progress_series,
    total_payload_curve,
)
from repro.core.control import Console, ControlDaemon
from repro.core.experiment import Experiment
from repro.core.launcher import staggered_launch
from repro.core.monitor import ResourceMonitor

__all__ = [
    "Experiment",
    "staggered_launch",
    "ProgressSeries",
    "Completions",
    "PayloadCurve",
    "progress_series",
    "completion_curve",
    "total_payload_curve",
    "ResourceMonitor",
    "Console",
    "ControlDaemon",
]
