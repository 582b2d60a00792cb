"""The unified simulator configuration surface: :class:`SimConfig`.

:class:`~repro.sim.kernel.Simulator` accreted one keyword argument per
feature (``flight=``, ``fluid=``). ``SimConfig`` absorbs that sprawl
into one frozen dataclass so a simulator's behaviour is named by a
single hashable value.

``Simulator(config=SimConfig(...))`` is the only constructor surface;
``Testbed(sim_config=...)`` passes one through (``Swarm`` builds it
from ``SwarmConfig.flight``/``fluid``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimConfig:
    """Everything that selects a :class:`Simulator`'s behaviour.

    Attributes
    ----------
    flight:
        Attach a :class:`~repro.obs.flight.FlightRecorder` (requires an
        observing simulator).
    fluid:
        Attach a :class:`~repro.net.fluid.FlowScheduler` to the
        simulator: eligible long-lived bulk TCP transfers are modelled
        as *flows* advanced by rate-change epochs instead of per-packet
        events.
    """

    flight: bool = False
    fluid: bool = False
