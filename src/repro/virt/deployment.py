"""Testbed construction and folding placement.

A :class:`Testbed` is the emulated GridExplorer cluster: a switch and a
set of physical nodes on the administration subnet. Deployment places N
virtual nodes on M physical nodes — the paper deploys the same 160
clients "successively on 160 physical nodes, 16 physical nodes (10
virtual nodes per physical node), 8, 4 and 2 physical nodes" and checks
that results do not change (Figure 9).

Placement records each pnode's share as :class:`~repro.virt.vnode.VnodeRun`
runs, one per (pnode, group) under either placement.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import VirtualizationError
from repro.net.addr import IPv4Address, IPv4Network, network
from repro.net.switch import Switch
from repro.sim import SimConfig, Simulator
from repro.units import gbps, us
from repro.virt.pnode import PhysicalNode, VnodeView
from repro.virt.vnode import VirtualNode, VnodeRun

#: Placement strategies.
PLACEMENT_BLOCK = "block"
PLACEMENT_ROUND_ROBIN = "round-robin"


class Testbed:
    """The emulated cluster: switch + physical nodes + virtual nodes."""

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        num_pnodes: int = 2,
        admin_network: Union[str, IPv4Network] = "192.168.38.0/24",
        port_bandwidth: float = gbps(1),
        port_delay: float = us(60),
        seed: int = 0,
        ncpus: int = 2,
        enforce_cpu: bool = False,
        tcp_explicit_acks: bool = False,
        observe: bool = True,
        sim_config: SimConfig = SimConfig(),
    ) -> None:
        if num_pnodes < 1:
            raise VirtualizationError(f"need at least one physical node, got {num_pnodes}")
        if sim is None:
            sim = Simulator(seed=seed, observe=observe, config=sim_config)
        for mode in ("flight", "fluid"):  # a supplied sim may have more, not fewer
            if getattr(sim_config, mode) and not getattr(sim.config, mode):
                raise VirtualizationError(f"the supplied simulator was built without {mode}")
        self.sim = sim
        self.admin_network = network(admin_network)
        if num_pnodes >= self.admin_network.num_addresses - 1:
            raise VirtualizationError(
                f"{num_pnodes} physical nodes do not fit in {self.admin_network}"
            )
        self.switch = Switch(self.sim, port_bandwidth=port_bandwidth, port_delay=port_delay)
        self.pnodes: List[PhysicalNode] = [
            PhysicalNode(
                self.sim,
                name=f"pnode{i + 1}",
                admin_address=self.admin_network.host(i + 1),
                switch=self.switch,
                ncpus=ncpus,
                enforce_cpu=enforce_cpu,
                tcp_explicit_acks=tcp_explicit_acks,
            )
            for i in range(num_pnodes)
        ]
        #: Name ordinals handed out so far (never reused).
        self.placed = 0

    # ------------------------------------------------------------------
    @property
    def vnodes(self) -> VnodeView:
        """Name-keyed view of every hosted vnode, pnode by pnode."""
        return VnodeView(self.pnodes)

    def deploy(
        self,
        addresses: Sequence[IPv4Address],
        placement: str = PLACEMENT_BLOCK,
        name_prefix: str = "vnode",
    ) -> List[VirtualNode]:
        """Place one virtual node per address onto the physical nodes.

        ``block`` placement fills physical nodes with contiguous slices
        (ceil(N/M) per node, the paper's "32 virtual nodes per physical
        node" style); ``round-robin`` deals addresses out cyclically.
        """
        return list(self.place(addresses, len(addresses), placement, name_prefix))

    def place(self, *args, **kwargs) -> Iterator[VirtualNode]:
        """Streaming placement: yield each vnode as it is placed (the
        arguments are :meth:`place_runs`')."""
        for run, k in self.place_runs(*args, **kwargs):
            yield run.vnode(k)

    def place_runs(
        self,
        items: Iterable[Union[IPv4Address, Tuple[IPv4Address, Optional[str]]]],
        count: Optional[int] = None,
        placement: str = PLACEMENT_BLOCK,
        name_prefix: str = "vnode",
        block_register: bool = False,
    ) -> Iterator[Tuple[VnodeRun, int]]:
        """The placement routine: record each item as the next position
        of a run on its physical node and yield ``(run, position)``.

        ``items`` is an iterable of addresses or ``(address, group)``
        pairs — a generator works, so a million-address topology never
        exists as a list. ``count`` must be given when ``items`` has no
        ``len()`` (block placement needs the total up front). The vnode
        at ordinal ``o`` is named ``f"{name_prefix}{o}"``; a run only
        grows while addresses and ordinals advance by the same step,
        and only within one call, so its positions are contiguous in
        its pnode's hosting order.

        ``block_register=True`` registers contiguous address runs with
        the stack/switch as O(1) blocks instead of per-address entries
        (the million-vnode fast path). A run is flushed when it breaks,
        so consume the stream fully before starting traffic.
        """
        try:
            n = len(items)  # type: ignore[arg-type]
        except TypeError:
            if count is None:
                raise VirtualizationError(
                    "streaming placement needs count= for unsized iterables"
                )
            n = count
        m = len(self.pnodes)
        if n == 0:
            return
        per_node = -(-n // m)  # ceil
        if placement not in (PLACEMENT_BLOCK, PLACEMENT_ROUND_ROBIN):
            raise VirtualizationError(f"unknown placement {placement!r}")
        block_placement = placement == PLACEMENT_BLOCK
        pnodes = self.pnodes
        open_runs: List[Optional[VnodeRun]] = [None] * m  # this call's, per pnode
        index = 0
        slots_left = per_node  # countdown replaces a per-item division
        run_stack = None  # current contiguous (stack, value-run) slice
        run_start = run_end = 0
        try:
            for i, item in enumerate(items):
                addr, group = item if type(item) is tuple else (item, None)
                if block_placement:
                    if slots_left == 0:
                        index += 1
                        slots_left = per_node
                    slots_left -= 1
                else:
                    index = i % m
                pnode = pnodes[index]
                value = addr.value
                if block_register:
                    stack = pnode.stack
                    if stack is run_stack and value == run_end:
                        run_end = value + 1
                    else:
                        if run_stack is not None:
                            run_stack.add_address_block(run_start, run_end)
                        run_stack = stack
                        run_start = value
                        run_end = value + 1
                else:
                    pnode.stack.add_address(addr)
                ordinal = self.placed = self.placed + 1
                run = open_runs[index]
                if run is not None and run.group == group and pnode.runs[-1] is run:
                    k, offset = run.count, value - run.start
                    if offset == ordinal - run.first > 0 and (k == 1 or offset == k * run.step):
                        run.step = offset // k
                        run.count = k + 1
                        yield run, k
                        continue
                run = open_runs[index] = VnodeRun(pnode, group, name_prefix, value, ordinal)
                pnode.runs.append(run)
                yield run, 0
        finally:
            if run_stack is not None and run_end > run_start:
                run_stack.add_address_block(run_start, run_end)

    def vnode_at(self, address: Union[IPv4Address, str]) -> VirtualNode:
        value = address.value if isinstance(address, IPv4Address) else IPv4Address(address).value
        for pnode in self.pnodes:
            for run in pnode.runs:
                k = run.index_of_value(value)
                if k is not None:
                    return run.vnode(k)
        raise VirtualizationError(f"no vnode at {address}")

    # ------------------------------------------------------------------
    @property
    def folding_ratios(self) -> List[int]:
        return [p.folding_ratio for p in self.pnodes]

    def total_vnodes(self) -> int:
        return sum(p.folding_ratio for p in self.pnodes)

    def run(self, until: Optional[float] = None) -> None:
        """Convenience passthrough to the simulator."""
        self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Testbed(pnodes={len(self.pnodes)}, vnodes={self.total_vnodes()}, "
            f"t={self.sim.now:.1f}s)"
        )
