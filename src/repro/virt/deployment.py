"""Testbed construction and folding placement.

A :class:`Testbed` is the emulated GridExplorer cluster: a switch and a
set of physical nodes on the administration subnet. Deployment places N
virtual nodes on M physical nodes — the paper deploys the same 160
clients "successively on 160 physical nodes, 16 physical nodes (10
virtual nodes per physical node), 8, 4 and 2 physical nodes" and checks
that results do not change (Figure 9).
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import VirtualizationError
from repro.net.addr import IPv4Address, IPv4Network, network
from repro.net.switch import Switch
from repro.sim import SimConfig, Simulator
from repro.units import gbps, us
from repro.virt.pnode import PhysicalNode
from repro.virt.vnode import VirtualNode

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
        self._vnodes: List[VirtualNode] = []
        self._vnode_map: Optional[Dict[str, VirtualNode]] = {}
        self._by_address: Optional[Dict[int, VirtualNode]] = {}

    # ------------------------------------------------------------------
    @property
    def vnodes(self) -> Dict[str, VirtualNode]:
        """Name-keyed view of every deployed vnode (built lazily —
        touching it forces any deferred names)."""
        vnode_map = self._vnode_map
        if vnode_map is None:
            vnode_map = self._vnode_map = {v.name: v for v in self._vnodes}
        return vnode_map

    def deploy(
        self,
        addresses: Sequence[IPv4Address],
        placement: str = PLACEMENT_BLOCK,
        name_prefix: str = "vnode",
        group_of: Optional[Callable[[IPv4Address], Optional[str]]] = None,
    ) -> List[VirtualNode]:
        """Place one virtual node per address onto the physical nodes.

        ``block`` placement fills physical nodes with contiguous slices
        (ceil(N/M) per node, the paper's "32 virtual nodes per physical
        node" style); ``round-robin`` deals addresses out cyclically.
        """
        return list(
            self.place(
                addresses,
                count=len(addresses),
                placement=placement,
                name_prefix=name_prefix,
                group_of=group_of,
            )
        )

    def place(
        self,
        items: Iterable[Union[IPv4Address, Tuple[IPv4Address, Optional[str]]]],
        count: Optional[int] = None,
        placement: str = PLACEMENT_BLOCK,
        name_prefix: str = "vnode",
        group_of: Optional[Callable[[IPv4Address], Optional[str]]] = None,
        block_register: bool = False,
    ) -> Iterator[VirtualNode]:
        """Streaming placement: yield vnodes as they are created.

        ``items`` is an iterable of addresses or ``(address, group)``
        pairs — a generator works, so a million-address topology never
        exists as a list. ``count`` must be given when ``items`` has no
        ``len()`` (block placement needs the total up front). Created
        vnodes carry deferred names (``f"{name_prefix}{ordinal}"``,
        formatted on first use) and lazy libc state.

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
        start = len(self._vnodes)
        pnodes = self.pnodes
        # Name- and address-keyed views go stale as vnodes stream in;
        # they rebuild from the list on next access.
        self._vnode_map = None
        self._by_address = None
        if placement == PLACEMENT_BLOCK:
            block_placement = True
        elif placement == PLACEMENT_ROUND_ROBIN:
            block_placement = False
        else:
            raise VirtualizationError(f"unknown placement {placement!r}")
        vnodes = self._vnodes
        pnode = pnodes[0]
        pnode_index = 0
        slots_left = per_node  # countdown replaces a per-item division
        run_stack = None  # current contiguous (stack, value-run) slice
        run_start = run_end = 0
        try:
            for i, item in enumerate(items):
                if type(item) is tuple:
                    addr, group = item
                else:
                    addr = item
                    group = group_of(addr) if group_of is not None else None
                if block_placement:
                    if slots_left == 0:
                        pnode_index += 1
                        pnode = pnodes[pnode_index]
                        slots_left = per_node
                    slots_left -= 1
                else:
                    pnode = pnodes[i % m]
                if block_register:
                    stack = pnode.stack
                    value = addr.value
                    if stack is run_stack and value == run_end:
                        run_end = value + 1
                    else:
                        if run_stack is not None:
                            run_stack.add_address_block(run_start, run_end)
                        run_stack = stack
                        run_start = value
                        run_end = value + 1
                    vnode = pnode.host(
                        addr, group=group, name_prefix=name_prefix,
                        ordinal=start + i + 1, register=False,
                    )
                else:
                    vnode = pnode.host(
                        addr, group=group, name_prefix=name_prefix,
                        ordinal=start + i + 1,
                    )
                vnodes.append(vnode)
                yield vnode
        finally:
            if run_stack is not None and run_end > run_start:
                run_stack.add_address_block(run_start, run_end)

    def vnode_at(self, address: Union[IPv4Address, str]) -> VirtualNode:
        value = address.value if isinstance(address, IPv4Address) else IPv4Address(address).value
        by_address = self._by_address
        if by_address is None:
            by_address = self._by_address = {
                v.address.value: v for v in self._vnodes
            }
        try:
            return by_address[value]
        except KeyError:
            raise VirtualizationError(f"no vnode at {address}") from None

    # ------------------------------------------------------------------
    @property
    def folding_ratios(self) -> List[int]:
        return [p.folding_ratio for p in self.pnodes]

    def total_vnodes(self) -> int:
        return len(self._vnodes)

    def run(self, until: Optional[float] = None) -> None:
        """Convenience passthrough to the simulator."""
        self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Testbed(pnodes={len(self.pnodes)}, vnodes={len(self._vnodes)}, "
            f"t={self.sim.now:.1f}s)"
        )
