"""Discrete-event simulation kernel.

This subpackage is the substrate for the whole emulation: a
deterministic event queue (:mod:`repro.sim.event`), a simulator clock
and run loop (:mod:`repro.sim.kernel`), generator-based simulated
processes (:mod:`repro.sim.process`), synchronisation primitives
(:mod:`repro.sim.resources`), named seeded RNG streams
(:mod:`repro.sim.rng`) and structured tracing (:mod:`repro.sim.trace`).
The cell layout and merge of ``fig10_cells`` are imported from
:mod:`repro.sim.partition` itself; a plain run never loads them.

The kernel is intentionally small and allocation-light: the BitTorrent
scalability experiments (Figures 10/11 of the paper) push millions of
events through it.
"""

from repro.sim.config import DEFAULT_CONFIG, SimConfig
from repro.sim.event import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import Process, Signal
from repro.sim.resources import Channel, Resource, Store
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = [
    "DEFAULT_CONFIG",
    "SimConfig",
    "Event",
    "EventQueue",
    "Simulator",
    "Process",
    "Signal",
    "Channel",
    "Resource",
    "Store",
    "RngRegistry",
    "TraceRecorder",
]
