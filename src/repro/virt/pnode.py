"""Physical nodes: a machine hosting many virtual nodes.

Each physical node owns one network stack (interface + firewall +
Dummynet pipes) attached to the cluster switch, and an optional CPU
account used to study virtualization overhead: the paper monitored
"the system load, the memory usage, and the disk I/O on every physical
node" and found none limiting before the network saturated, so CPU
enforcement is off by default and available for ablations.

Its hosted vnodes are :class:`~repro.virt.vnode.VnodeRun` runs in
hosting order, the one record of membership that every view reads.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import VirtualizationError
from repro.net.addr import IPv4Address, ip
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.virt.vnode import VirtualNode, VnodeRun


class CpuAccount:
    """Aggregate CPU-time accounting for one physical node.

    ``charge(seconds)`` registers CPU work. When ``enforce`` is on, the
    caller must yield the returned delay: work is serialized across
    ``ncpus`` virtual processors, so an oversubscribed host slows its
    vnodes down — the overhead mechanism folding experiments look for.
    """

    __slots__ = ("sim", "ncpus", "enforce", "busy_seconds", "_cpu_free")

    def __init__(self, sim, ncpus: int = 2, enforce: bool = False) -> None:
        self.sim = sim
        self.ncpus = ncpus
        self.enforce = enforce
        self.busy_seconds = 0.0
        self._cpu_free = [0.0] * ncpus

    def charge(self, seconds: float, speed: float = 1.0) -> float:
        """Account ``seconds`` of CPU work; returns the delay to yield.

        ``speed`` scales the virtual processor: the paper notes P2PLab
        "is not possible to perform experiments where virtual
        processors of different speeds are assigned to instances"
        (making it unsuitable for Desktop Computing studies) and that
        "more complex virtualization solutions could help avoid this
        limitation" — this parameter is that extension: a vnode with
        ``speed=0.5`` needs twice the wall time for the same work.
        """
        if speed <= 0:
            raise VirtualizationError(f"cpu speed must be positive, got {speed}")
        demand = seconds / speed
        self.busy_seconds += demand
        if not self.enforce:
            return demand
        now = self.sim.now
        # Pick the least-loaded virtual CPU (earliest free time).
        idx = min(range(self.ncpus), key=self._cpu_free.__getitem__)
        start = self._cpu_free[idx] if self._cpu_free[idx] > now else now
        finish = start + demand
        self._cpu_free[idx] = finish
        return finish - now

    def utilization(self, elapsed: float) -> float:
        """Fraction of total CPU capacity used over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_seconds / (elapsed * self.ncpus)


class VnodeView(Mapping):
    """Name-keyed view of the vnodes hosted on some physical nodes, in
    hosting order. Looking a name up finds its run by arithmetic and
    builds at most that one vnode; membership tests build none."""

    __slots__ = ("_pnodes",)

    def __init__(self, pnodes: Sequence["PhysicalNode"]) -> None:
        self._pnodes = pnodes

    def locate(self, name: str) -> Optional[Tuple[VnodeRun, int]]:
        for pnode in self._pnodes:
            for run in pnode.runs:
                k = run.index_of_name(name)
                if k is not None:
                    return run, k
        return None

    def __getitem__(self, name: str) -> VirtualNode:
        found = self.locate(name)
        if found is None:
            raise KeyError(name)
        return found[0].vnode(found[1])

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.locate(name) is not None

    def __iter__(self) -> Iterator[str]:
        return (run.name_at(k) for p in self._pnodes for run in p.runs for k in range(run.count))

    def __len__(self) -> int:
        return sum(p.folding_ratio for p in self._pnodes)

    def values(self) -> List[VirtualNode]:  # type: ignore[override]
        return [run.vnode(k) for p in self._pnodes for run in p.runs for k in range(run.count)]


class PhysicalNode:
    """One cluster machine (GridExplorer dual-Opteron in the paper)."""

    __slots__ = ("sim", "name", "stack", "admin_address", "cpu", "runs")

    def __init__(
        self,
        sim,
        name: str,
        admin_address: Union[IPv4Address, str],
        switch: Optional[Switch] = None,
        ncpus: int = 2,
        enforce_cpu: bool = False,
        tcp_explicit_acks: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.stack = NetworkStack(
            sim, name, switch=switch, tcp_explicit_acks=tcp_explicit_acks
        )
        self.admin_address = self.stack.set_admin_address(ip(admin_address))
        self.cpu = CpuAccount(sim, ncpus=ncpus, enforce=enforce_cpu)
        #: Hosted vnodes as runs, in hosting order (read-only).
        self.runs: List[VnodeRun] = []

    @property
    def vnodes(self) -> VnodeView:
        """Name-keyed view of the hosted vnodes."""
        return VnodeView((self,))

    def add_vnode(
        self,
        name: str,
        address: Union[IPv4Address, str],
        group: Optional[str] = None,
    ) -> VirtualNode:
        """Host a new virtual node: configure its alias and identity."""
        if name in self.vnodes:
            raise VirtualizationError(f"vnode {name!r} already hosted on {self.name!r}")
        address = ip(address)
        self.stack.add_address(address)
        run = VnodeRun(self, group, name, address.value, None)
        run._built.append(VirtualNode(self, name, address, group=group))
        self.runs.append(run)
        return run._built[0]

    def remove_vnode(self, name: str) -> None:
        found = self.vnodes.locate(name)
        if found is None:
            raise VirtualizationError(f"no vnode {name!r} on {self.name!r}")
        run, k = found
        i = self.runs.index(run)
        self.runs[i:i + 1] = [r for r in (run, run.split(k)) if r is not None and r.count]
        self.stack.remove_address(IPv4Address.from_value(run.start + k * run.step))

    @property
    def folding_ratio(self) -> int:
        """Number of virtual nodes hosted here."""
        return sum(run.count for run in self.runs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysicalNode({self.name!r}, {self.admin_address}, vnodes={self.folding_ratio})"
