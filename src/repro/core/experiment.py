"""Experiment definition: topology + applications + schedule.

Example
-------
>>> from repro.core import Experiment
>>> from repro.topology.presets import uniform_swarm
>>> exp = Experiment("demo", uniform_swarm(4), num_pnodes=2, seed=1)
>>> vnodes = exp.deploy()
>>> def app(vnode):
...     vnode.log("demo.hello")
...     yield 1.0
>>> exp.sim.trace.enable("demo.hello")
>>> procs = [exp.schedule_app(v, app) for v in vnodes]
>>> exp.run(until=10.0)
>>> len(list(exp.trace.select("demo.hello")))
4
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import ExperimentError
from repro.obs import telemetry
from repro.sim import Simulator
from repro.topology.compiler import TopologyCompiler
from repro.topology.spec import TopologySpec
from repro.virt.deployment import PLACEMENT_BLOCK, Testbed
from repro.virt.vnode import AppFactory, VirtualNode


class Experiment:
    """One reproducible emulation experiment on a :class:`Testbed`
    built from ``num_pnodes``, ``seed`` and ``enforce_cpu``."""

    def __init__(
        self,
        name: str,
        spec: TopologySpec,
        num_pnodes: int = 2,
        seed: int = 0,
        placement: str = PLACEMENT_BLOCK,
        trace_categories: tuple = (),
        enforce_cpu: bool = False,
    ) -> None:
        self.name = name
        self.spec = spec
        self.placement = placement
        self.testbed = Testbed(num_pnodes=num_pnodes, seed=seed, enforce_cpu=enforce_cpu)
        self.sim: Simulator = self.testbed.sim
        if trace_categories:
            self.sim.trace.enable(*trace_categories)
        self.compiler: Optional[TopologyCompiler] = None
        self._deployed = False

    # ------------------------------------------------------------------
    def deploy(self) -> List[VirtualNode]:
        """Build all virtual nodes and install the network emulation."""
        if self._deployed:
            raise ExperimentError(f"experiment {self.name!r} already deployed")
        self._deployed = True
        self.compiler = TopologyCompiler(self.spec, self.testbed)
        self.compiler.deploy(placement=self.placement)
        # Surface the topology footprint (defined vs. materialised
        # pipes) on live telemetry /health; weakly held, so the probe
        # dies with the compiler.
        telemetry.register_topology(self.compiler, f"topo/{self.name}")
        return self.compiler.all_vnodes()

    def vnodes(self, group: Optional[str] = None) -> List[VirtualNode]:
        if self.compiler is None:
            raise ExperimentError("deploy() first")
        return self.compiler.vnodes(group) if group else self.compiler.all_vnodes()

    # ------------------------------------------------------------------
    def schedule_app(
        self,
        vnode: VirtualNode,
        app: AppFactory,
        at: float = 0.0,
        name: Optional[str] = None,
    ):
        """Start ``app`` on ``vnode`` at absolute time ``at``."""
        if at < self.sim.now:
            raise ExperimentError(f"cannot schedule app in the past (at={at})")
        return vnode.spawn(app, start_delay=at - self.sim.now, name=name)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    @property
    def trace(self):
        return self.sim.trace

    def emulation_stats(self) -> dict:
        """Installed rules/pipes and traffic counters (diagnostics)."""
        stats = self.compiler.stats() if self.compiler is not None else {}
        stats["pnodes"] = len(self.testbed.pnodes)
        stats["events"] = self.sim.events_processed
        stats["switch_forwarded"] = self.testbed.switch.packets_forwarded
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Experiment({self.name!r}, deployed={self._deployed}, t={self.sim.now:.1f})"
