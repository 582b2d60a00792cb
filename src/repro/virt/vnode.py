"""Virtual nodes: a network identity plus application processes.

A virtual node is *not* a virtual machine — it is exactly what P2PLab
makes it: an IP alias on its physical host plus processes whose libc is
configured with ``BINDIP`` pointing at that alias. All other resources
(CPU, memory, filesystem) are shared with the host, which is why the
folding experiments must watch for host saturation.

At million-vnode scale the per-node footprint matters more than the
API: a placed vnode is a position of a :class:`VnodeRun` until something
reads it, and a :class:`VirtualNode`'s libc is built on first use.
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
        "pnode", "name", "address", "group", "sim", "cpu_speed",
        "_libc", "_processes", "_syscall_cost",
    )

    def __init__(
        self,
        pnode: "PhysicalNode",
        name: str,
        address: IPv4Address,
        group: Optional[str] = None,
        syscall_cost: float = DEFAULT_SYSCALL_COST,
    ) -> None:
        self.pnode = pnode
        self.name = name
        self.address = address
        self.group = group
        self.sim = pnode.sim
        #: Relative virtual-processor speed (1.0 = a full host CPU) —
        #: the Desktop-Computing extension the paper lists as future
        #: work; see CpuAccount.charge.
        self.cpu_speed: float = 1.0
        self._libc: Optional[Libc] = None
        self._processes: Optional[List[Process]] = None
        self._syscall_cost = syscall_cost

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


class VnodeRun:
    """Vnodes placed on one physical node and one group, in hosting
    order: position ``k`` has address value ``start + k * step`` and
    name ``f"{prefix}{first + k * step}"`` (a run of one added by name
    has ``first=None`` and that name as ``prefix``). :meth:`vnode`
    builds a position's :class:`VirtualNode` on first read and keeps it.
    """

    __slots__ = ("pnode", "group", "prefix", "start", "step", "first", "count", "_built")

    def __init__(self, pnode, group, prefix, start, first, step=1, count=1) -> None:
        self.pnode = pnode
        self.group = group
        self.prefix = prefix
        self.start = start
        self.step = step
        self.first = first
        self.count = count
        self._built: List[Optional[VirtualNode]] = []  # by position, as read

    def name_at(self, k: int) -> str:
        first = self.first
        return self.prefix if first is None else f"{self.prefix}{first + k * self.step}"

    def vnode(self, k: int) -> VirtualNode:
        built = self._built
        if len(built) <= k:
            built.extend([None] * (self.count - len(built)))
        vnode = built[k]
        if vnode is None:
            vnode = built[k] = VirtualNode(
                self.pnode, self.name_at(k),
                IPv4Address.from_value(self.start + k * self.step), group=self.group,
            )
        return vnode

    def index_of_value(self, value: int) -> Optional[int]:
        k, rem = divmod(value - self.start, self.step)
        return k if not rem and 0 <= k < self.count else None

    def index_of_name(self, name: str) -> Optional[int]:
        prefix, first = self.prefix, self.first
        digits = name[len(prefix):]
        if first is None or not (name.startswith(prefix) and digits.isascii()
                                 and digits.isdigit() and digits[0] != "0"):
            return 0 if name == prefix and first is None else None
        return self.index_of_value(self.start + int(digits) - first)

    def covers(self, net) -> bool:
        """Does ``net`` hold one of this run's address values?"""
        k = max(0, -((self.start - net.address.value) // self.step))  # first one >= its base
        return k < self.count and net.contains_value(self.start + k * self.step)

    def split(self, k: int) -> Optional["VnodeRun"]:
        """Drop position ``k``: the positions after it move to the
        returned run (``None`` if there are none)."""
        skip, rest, built = (k + 1) * self.step, self.count - k - 1, self._built
        tail = None
        if rest:  # a run of one (``first is None``) has no positions after it
            tail = VnodeRun(self.pnode, self.group, self.prefix, self.start + skip,
                            self.first + skip, self.step, rest)
            tail._built = built[k + 1:]
        self.count = k
        del built[k:]
        return tail
