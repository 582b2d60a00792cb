"""The unified simulator configuration surface: :class:`SimConfig`.

:class:`~repro.sim.kernel.Simulator` accreted one keyword argument per
feature (``flight=``, ``fluid=``). ``SimConfig`` absorbs that sprawl
into one frozen dataclass so a simulator's behaviour is named by a
single hashable value that can be stored in manifests or sent to
another process without re-encoding each knob.

``Simulator(config=SimConfig(...))`` is the only constructor surface.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict


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

    def replace(self, **changes: Any) -> "SimConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (manifests, cross-process transfer)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SimConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


#: The all-defaults config (shared; SimConfig is immutable).
DEFAULT_CONFIG = SimConfig()
