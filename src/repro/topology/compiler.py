"""Compile a topology spec into decentralized per-node emulation state.

For every physical node the compiler installs exactly what the paper
describes for the node hosting 10.1.3.207:

* two rules (and two pipes) per hosted virtual node — outgoing traffic
  through the node's upload pipe, incoming traffic through its download
  pipe, both carrying the access-link latency and loss rate;
* one outgoing delay rule per inter-group latency entry whose source
  prefix covers at least one hosted virtual node ("the opposite rule
  being on the nodes hosting" the other group).

Rule numbering: vnode rules from 1000 upward (two per vnode, numbered
in hosting order per physical node), group latency rules from 100000
upward, so per-node shaping happens before group delays — matching the
example rule list in the paper.

Scale model (the million-vnode path):

* the spec is consumed as a *stream* — ``TopologySpec.iter_placements``
  feeds ``Testbed.place`` and rules are installed per vnode as it is
  created, so no intermediate address or vnode list is materialised;
* shaping state is *flyweight* — each group's bandwidth/delay/loss
  constants live in one interned :class:`ShapingProfile`, and the
  per-vnode :class:`DummynetPipe` pair is only built when (if ever) a
  packet first matches the vnode's rule, via the firewall's
  ``pipe_factory`` seam;
* the vnode's two rules are one entry of its host firewall's access
  table until a packet (or a control-plane reader) first needs them
  (:meth:`~repro.net.ipfw.Firewall.add_access_pair`). An idle vnode
  costs that entry and an address — no rules, no pipes, no name
  string, no libc.

Laziness is observationally invisible: rules built at first use are
listed, counted and charged exactly as rules built at deploy time; a
pipe materialised at its first matching packet is in exactly the state
(idle, zero backlog, name-derived RNG stream) an eagerly built pipe
would be in at that moment, and registration bypasses the
flow-cache/generation invalidation because nothing can have cached a
path through a pipe that did not exist. ``tests/reference/eager_deploy.py`` builds every
pipe up front; the tests compare this compiler against it.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional

from repro.errors import FirewallError, TopologyError
from repro.net.ipfw import ACTION_PIPE, DIR_IN, DIR_OUT, Firewall, Rule
from repro.net.pipe import DummynetPipe, ShapingProfile
from repro.obs.metrics import NULL_REGISTRY
from repro.topology.spec import GroupSpec, TopologySpec
from repro.virt.deployment import PLACEMENT_BLOCK, Testbed
from repro.virt.vnode import VirtualNode

#: Rule number bases.
VNODE_RULE_BASE = 1000
GROUP_RULE_BASE = 100000


class _PipeLedger:
    """Wall-side accounting of deferred vs. materialised pipes.

    The registry twins are ``wall=True`` so deterministic metric
    snapshots never see them (how many pipes happen to have
    materialised is a memory fact, not an emulation observable) and
    are fed from the two slots when the registry is read. ``pending``
    only rises inside ``deploy()``, which ends with a fold so that the
    gauge's peak is the true high-water mark.
    """

    __slots__ = ("pending", "materialized")

    def __init__(self, registry) -> None:
        self.pending = 0
        self.materialized = 0
        registry.feed(
            self,
            pending=registry.gauge("topo.lazy_pipes_pending", wall=True),
            materialized=registry.counter("topo.pipes_materialized", wall=True),
        )

    def defer(self, n: int = 1) -> None:
        self.pending += n

    def materialize(self) -> None:
        self.pending -= 1
        self.materialized += 1


class _AccessPipeFactory:
    """Builds one vnode access pipe on the first matched packet.

    Shared per (physical node, group, direction): the factory carries
    only the flyweight profile and owner label; the concrete address —
    hence the pipe id ``2 * addr`` (up) / ``2 * addr + 1`` (down) and
    name — is recovered from the rule that fired.
    """

    __slots__ = ("sim", "fw", "profile", "direction", "owner", "ledger")

    def __init__(
        self, sim, fw: Firewall, profile: ShapingProfile, direction: str,
        owner: str, ledger: _PipeLedger,
    ) -> None:
        self.sim = sim
        self.fw = fw
        self.profile = profile
        self.direction = direction
        self.owner = owner
        self.ledger = ledger

    def __call__(self, rule: Rule) -> DummynetPipe:
        if self.direction == DIR_OUT:
            addr = rule.src
            pipe = self.profile.up_pipe(self.sim, f"up/{addr}", self.owner)
            self.fw.register_lazy_pipe(2 * addr.value, pipe)
        else:
            addr = rule.dst
            pipe = self.profile.down_pipe(self.sim, f"down/{addr}", self.owner)
            self.fw.register_lazy_pipe(2 * addr.value + 1, pipe)
        self.ledger.materialize()
        return pipe


class _GroupPipeFactory:
    """Builds one inter-group delay pipe on the first matched packet.

    Shared per physical node: the latency is looked up from the spec's
    entry table by the rule's (src, dst) prefixes, so the factory adds
    no per-rule state.
    """

    __slots__ = ("sim", "owner", "latencies", "ledger")

    def __init__(self, sim, owner: str, latencies: Dict, ledger: _PipeLedger) -> None:
        self.sim = sim
        self.owner = owner
        self.latencies = latencies
        self.ledger = ledger

    def __call__(self, rule: Rule) -> DummynetPipe:
        latency = self.latencies[(rule.src, rule.dst)]
        pipe = DummynetPipe(
            self.sim,
            delay=latency,
            name=f"grp/{self.owner}/{rule.src}->{rule.dst}",
            owner=self.owner,
        )
        self.ledger.materialize()
        return pipe


class TopologyCompiler:
    """Deploys a :class:`TopologySpec` onto a :class:`Testbed`, every
    pipe deferred to the first packet that matches its rule."""

    def __init__(self, spec: TopologySpec, testbed: Testbed) -> None:
        spec.validate()
        self.spec = spec
        self.testbed = testbed
        self.vnodes_by_group: Dict[str, List[VirtualNode]] = {}
        self.rules_installed = 0
        self.pipes_installed = 0
        self._metrics = getattr(testbed.sim, "metrics", None) or NULL_REGISTRY
        self._ledger = _PipeLedger(self._metrics)
        #: One interned flyweight profile per group.
        self._profiles: Dict[str, ShapingProfile] = {
            name: ShapingProfile(g.down_bw, g.up_bw, g.latency, g.plr)
            for name, g in spec.groups.items()
        }
        #: group name -> hosting pnodes in first-hosting order (the
        #: prefix coverage index for group-rule installation).
        self._group_pnodes: Dict[str, Dict] = {}
        #: (id(pnode), group) -> shared (up, down) access factories,
        #: with a last-hit memo for the block-contiguous common case.
        self._access_factories: Dict[tuple, tuple] = {}
        self._fact_key: Optional[tuple] = None
        self._fact: Optional[tuple] = None
        #: id(pnode) -> shared group-delay factory.
        self._group_factories: Dict[int, _GroupPipeFactory] = {}

    # ------------------------------------------------------------------
    def deploy(self, placement: str = PLACEMENT_BLOCK) -> List[VirtualNode]:
        """Create all virtual nodes and install all emulation rules.

        All groups are deployed in a single placement pass so block
        placement keeps each group on contiguous physical nodes (the
        paper's "32 virtual nodes per physical node" style). Placement
        streams: each vnode's rules are installed as it is created.
        """
        self.vnodes_by_group = {name: [] for name in self.spec.groups}
        self._group_pnodes = {name: {} for name in self.spec.groups}
        groups = self.spec.groups
        created: List[VirtualNode] = []
        # The bulk build allocates no reference cycles (vnodes, rules
        # and blocks are all acyclic and freed by refcounting), but the
        # cyclic collector's full-heap passes scale with the number of
        # live objects and dominate large builds. Pause it for the
        # duration.
        pause_gc = gc.isenabled()
        if pause_gc:
            gc.disable()
        try:
            # Stream in placement order. Consecutive vnodes almost
            # always share a group and physical node (block placement),
            # so the per-vnode group/pnode bookkeeping is memoised on
            # change.
            group = None
            group_list = group_pnodes = None
            last_group_name = None
            last_pnode = None
            install = self._install_vnode_rules
            for vnode in self.testbed.place(
                self.spec.iter_placements(),
                count=self.spec.total_nodes(),
                placement=placement,
                name_prefix="node",
                block_register=True,
            ):
                name = vnode.group
                if name is not last_group_name:
                    last_group_name = name
                    group = groups[name]
                    group_list = self.vnodes_by_group[name]
                    group_pnodes = self._group_pnodes[name]
                    last_pnode = None
                group_list.append(vnode)
                if vnode.pnode is not last_pnode:
                    last_pnode = vnode.pnode
                    group_pnodes[last_pnode] = None
                install(vnode, group)
                created.append(vnode)
            # The pipe deferral is accounted in bulk here; per-vnode
            # ledger calls would be pure loop overhead.
            self._ledger.defer(2 * len(created))
            self._install_group_rules()
            self._metrics.fold()
        finally:
            if pause_gc:
                gc.enable()
        return created

    def _install_vnode_rules(self, vnode: VirtualNode, group: GroupSpec) -> None:
        """Two rules (and two deferred pipes) per vnode."""
        pnode = vnode.pnode
        up_f, down_f = self._factories_for(pnode, group)
        pnode.stack.fw.add_access_pair(
            vnode.address, VNODE_RULE_BASE + 2 * pnode.folding_ratio, up_f, down_f
        )
        self.pipes_installed += 2
        self.rules_installed += 2

    def _factories_for(self, pnode, group: GroupSpec):
        key = (id(pnode), group.name)
        if key == self._fact_key:
            return self._fact
        factories = self._access_factories.get(key)
        if factories is None:
            profile = self._profiles[group.name]
            sim = self.testbed.sim
            fw = pnode.stack.fw
            factories = (
                _AccessPipeFactory(sim, fw, profile, DIR_OUT, pnode.name, self._ledger),
                _AccessPipeFactory(sim, fw, profile, DIR_IN, pnode.name, self._ledger),
            )
            self._access_factories[key] = factories
        self._fact_key = key
        self._fact = factories
        return factories

    def _install_group_rules(self) -> None:
        """Outgoing inter-group delay rules on hosting physical nodes.

        A physical node needs the rule for a latency entry iff the
        entry's source prefix covers one of its hosted vnodes. Instead
        of scanning every hosted address per (pnode x entry) — the old
        O(entries x vnodes) pass — the coverage is classified per
        (entry, group) once: CIDR prefixes either nest or are disjoint,
        so a source prefix that contains a group's prefix covers every
        hosting pnode of that group, a prefix strictly inside it needs
        a per-vnode check for just that group, and anything else is
        disjoint.
        """
        sim = self.testbed.sim
        entries = list(self.spec.iter_latency_entries())
        if not entries:
            return
        covered: List[set] = []
        for src_net, _dst_net, _latency in entries:
            pnodes: set = set()
            for gname, group in self.spec.groups.items():
                hosting = self._group_pnodes.get(gname)
                if not hosting:
                    continue
                if src_net.contains_network(group.prefix):
                    pnodes.update(hosting)
                elif group.prefix.contains_network(src_net):
                    pnodes.update(
                        v.pnode
                        for v in self.vnodes_by_group[gname]
                        if src_net.contains_value(v.address.value)
                    )
            covered.append(pnodes)
        for pnode in self.testbed.pnodes:
            if not pnode.folding_ratio:
                continue
            number = GROUP_RULE_BASE
            fw = pnode.stack.fw
            for (src_net, dst_net, _latency), pset in zip(entries, covered):
                if pnode not in pset:
                    continue
                factory = self._group_factories.get(id(pnode))
                if factory is None:
                    factory = _GroupPipeFactory(
                        sim, pnode.name, self.spec._latencies, self._ledger
                    )
                    self._group_factories[id(pnode)] = factory
                fw.add(
                    ACTION_PIPE, number=number, pipe_factory=factory,
                    src=src_net, dst=dst_net, direction=DIR_OUT,
                )
                self._ledger.defer(1)
                number += 1
                self.pipes_installed += 1
                self.rules_installed += 1

    # ------------------------------------------------------------------
    def access_pipes(self, vnode: VirtualNode):
        """The vnode's (up, down) access pipes, materialising any
        still pending — the control-plane hook for runtime
        reconfiguration (``ipfw pipe N config`` style), which must work
        whether or not a packet has ever matched the vnode's rules.
        """
        fw = vnode.pnode.stack.fw
        addr = vnode.address
        base = 2 * addr.value
        out: List[DummynetPipe] = []
        for pipe_id, src, dst, direction in (
            (base, addr, None, DIR_OUT),
            (base + 1, None, addr, DIR_IN),
        ):
            try:
                out.append(fw.pipe(pipe_id))
            except FirewallError:
                rule = next(
                    r
                    for r in fw.rules_for(src=src, dst=dst)
                    if r.action == ACTION_PIPE and r.direction == direction
                )
                out.append(fw.materialize(rule))
        return out[0], out[1]

    def vnodes(self, group: str) -> List[VirtualNode]:
        try:
            return list(self.vnodes_by_group[group])
        except KeyError:
            raise TopologyError(f"no deployed group {group!r}") from None

    def all_vnodes(self) -> List[VirtualNode]:
        out: List[VirtualNode] = []
        for vnodes in self.vnodes_by_group.values():
            out.extend(vnodes)
        return out

    def stats(self) -> Dict[str, int]:
        """Deterministic footprint (vnodes/rules/pipes as *defined*)
        plus the wall-side lazy-pipe ledger: ``pipes_materialized`` /
        ``lazy_pipes_pending`` report how much Dummynet state actually
        exists — what telemetry ``/health`` surfaces for capacity
        planning. The ledger keys are wall-only diagnostics and must
        never enter deterministic output comparisons.
        """
        return {
            "vnodes": sum(len(v) for v in self.vnodes_by_group.values()),
            "rules": self.rules_installed,
            "pipes": self.pipes_installed,
            "pipes_materialized": self.pipes_installed - self._ledger.pending,
            "lazy_pipes_pending": self._ledger.pending,
        }


def compile_topology(
    spec: TopologySpec,
    testbed: Testbed,
    placement: str = PLACEMENT_BLOCK,
) -> TopologyCompiler:
    """One-shot helper: deploy ``spec`` onto ``testbed`` and return the
    compiler (for group lookups and stats)."""
    compiler = TopologyCompiler(spec, testbed)
    compiler.deploy(placement=placement)
    return compiler
