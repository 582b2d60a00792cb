"""The unified simulator configuration surface: :class:`SimConfig`.

:class:`~repro.sim.kernel.Simulator` accreted one keyword argument per
feature (``flight=``, ``fluid=``). ``SimConfig`` absorbs that sprawl
into one frozen dataclass so a simulator's behaviour is named by a
single hashable value that can be stored in manifests, threaded through
:class:`~repro.experiments.api.RunRequest`, and shipped to partition
worker processes (:mod:`repro.sim.partition`) without re-encoding each
knob.

``Simulator(config=SimConfig(...))`` is the only constructor surface.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import SimulationError


@dataclass(frozen=True)
class SimConfig:
    """Everything that selects a :class:`Simulator`'s behaviour.

    Attributes
    ----------
    flight:
        Attach a :class:`~repro.obs.flight.FlightRecorder` (requires an
        observing simulator).
    partitions:
        Worker processes a partitioned run may use
        (:mod:`repro.sim.partition`). ``1`` = a single worker; the
        value is a *cap*, not a layout: the model's cell decomposition
        is fixed independently, so results never depend on it.
    fluid:
        Attach a :class:`~repro.net.fluid.FlowScheduler` to the
        simulator: eligible long-lived bulk TCP transfers are modelled
        as *flows* advanced by rate-change epochs instead of per-packet
        events.
    """

    flight: bool = False
    partitions: int = 1
    fluid: bool = False

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise SimulationError(
                f"partitions must be >= 1, got {self.partitions!r}"
            )

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
