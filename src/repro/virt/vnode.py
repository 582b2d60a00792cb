"""Virtual nodes: a network identity plus application processes.

A virtual node is *not* a virtual machine — it is exactly what P2PLab
makes it: an IP alias on its physical host plus processes whose libc is
configured with ``BINDIP`` pointing at that alias. All other resources
(CPU, memory, filesystem) are shared with the host, which is why the
folding experiments must watch for host saturation.

At million-vnode scale the per-node footprint matters more than the
API: the class is ``__slots__``-based, its ``name`` may be deferred
(stored as a shared prefix plus an ordinal and formatted on first
use), and the :class:`~repro.virt.libc.Libc` instance is created
lazily — an idle vnode is little more than an address and a couple of
firewall rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.net.addr import IPv4Address
from repro.sim.process import Process
from repro.virt.libc import DEFAULT_SYSCALL_COST, Libc

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.pnode import PhysicalNode

#: An application is a callable taking the vnode and returning a generator.
AppFactory = Callable[["VirtualNode"], Generator[Any, Any, Any]]


class VirtualNode:
    """One emulated peer: address, libc, processes, and a log."""

    __slots__ = (
        "pnode", "address", "group", "sim", "cpu_speed",
        "_name", "_name_prefix", "_ordinal", "_libc", "_processes",
        "_syscall_cost",
    )

    def __init__(
        self,
        pnode: "PhysicalNode",
        name: Optional[str],
        address: IPv4Address,
        group: Optional[str] = None,
        syscall_cost: float = DEFAULT_SYSCALL_COST,
        name_prefix: Optional[str] = None,
        ordinal: Optional[int] = None,
    ) -> None:
        if name is None and name_prefix is None:
            raise ValueError("VirtualNode needs a name or a name_prefix/ordinal")
        self.pnode = pnode
        self.address = address
        self.group = group
        self.sim = pnode.sim
        #: Relative virtual-processor speed (1.0 = a full host CPU) —
        #: the Desktop-Computing extension the paper lists as future
        #: work; see CpuAccount.charge.
        self.cpu_speed: float = 1.0
        # Deferred-name storage: the prefix string is shared by every
        # vnode of a deployment, so an un-named vnode costs one int
        # instead of one unique string.
        self._name = name
        self._name_prefix = name_prefix
        self._ordinal = ordinal
        self._libc: Optional[Libc] = None
        self._processes: Optional[List[Process]] = None
        self._syscall_cost = syscall_cost

    @property
    def name(self) -> str:
        n = self._name
        if n is None:
            n = self._name = f"{self._name_prefix}{self._ordinal}"
        return n

    @property
    def libc(self) -> Libc:
        lib = self._libc
        if lib is None:
            lib = self._libc = Libc(
                self.pnode.stack,
                bindip=self.address,
                intercepting=True,
                syscall_cost=self._syscall_cost,
            )
        return lib

    @property
    def processes(self) -> List[Process]:
        """The node's live processes, in spawn order."""
        procs = self._processes
        if procs is None:
            procs = self._processes = []
        return procs

    def spawn(self, app: AppFactory, start_delay: float = 0.0, name: Optional[str] = None) -> Process:
        """Start an application process on this virtual node.

        The node holds the process until it finishes: a process parked
        on a signal nothing else references must not be left to the
        cyclic collector, which would close it (running its ``finally``)
        at a moment no simulation event decides.
        """
        proc = Process(
            self.sim,
            app(self),
            name=name or f"{self.name}/{getattr(app, '__name__', 'app')}",
            start_delay=start_delay,
        )
        procs = self.processes
        procs.append(proc)
        proc.done.wait_callback(lambda _result: procs.remove(proc))
        return proc

    def log(self, category: str, **fields: Any) -> None:
        """Emit a time-stamped trace record tagged with this node.

        This models the paper's instrumentation: "a time-stamp was added
        to the default output" of the BitTorrent client.
        """
        self.sim.trace.record(self.sim.now, category, node=self.name, **fields)

    @property
    def rng(self):
        """A named RNG stream private to this virtual node."""
        return self.sim.rng.stream(f"vnode/{self.name}")

    def compute(self, cpu_seconds: float) -> float:
        """Charge CPU work at this vnode's speed; returns the wall-time
        delay the calling process must yield::

            yield vnode.compute(2.0)   # 2 CPU-seconds of work
        """
        return self.pnode.cpu.charge(cpu_seconds, speed=self.cpu_speed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualNode({self.name!r}, {self.address}, on {self.pnode.name!r})"
