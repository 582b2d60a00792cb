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
  feeds ``Testbed.place_runs``, which records placement as arithmetic
  runs: no address list, vnode list or idle ``VirtualNode`` exists;
* shaping state is *flyweight* — each group's bandwidth/delay/loss
  constants live in one interned :class:`ShapingProfile`, and the
  per-vnode :class:`DummynetPipe` pair is only built when (if ever) a
  packet first matches the vnode's rule, via the firewall's
  ``pipe_factory`` seam;
* the vnode's two rules are one entry of its host firewall's access
  table until a packet (or a control-plane reader) first needs them
  (:meth:`~repro.net.ipfw.Firewall.add_access_pair`). An idle vnode
  costs that entry and one position of a run — no vnode object, no
  address object, no rules, no pipes, no name string, no libc.

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
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FirewallError, TopologyError
from repro.net.addr import IPv4Address
from repro.net.ipfw import ACTION_PIPE, DIR_IN, DIR_OUT, Firewall, Rule
from repro.net.pipe import DummynetPipe, ShapingProfile
from repro.obs.metrics import NULL_REGISTRY
from repro.topology.spec import GroupSpec, TopologySpec
from repro.virt.deployment import PLACEMENT_BLOCK, Testbed
from repro.virt.vnode import VirtualNode, VnodeRun

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
        #: The testbed ordinals ``[lo, hi)`` this compiler placed.
        self._ordinals: Optional[Tuple[int, int]] = None
        self.rules_installed = 0
        self.pipes_installed = 0
        self._metrics = getattr(testbed.sim, "metrics", None) or NULL_REGISTRY
        self._ledger = _PipeLedger(self._metrics)
        #: One interned flyweight profile per group.
        self._profiles: Dict[str, ShapingProfile] = {
            name: ShapingProfile(g.down_bw, g.up_bw, g.latency, g.plr)
            for name, g in spec.groups.items()
        }
        #: (id(pnode), group) -> shared (up, down) access factories.
        self._access_factories: Dict[tuple, tuple] = {}
        #: id(pnode) -> shared group-delay factory.
        self._group_factories: Dict[int, _GroupPipeFactory] = {}

    # ------------------------------------------------------------------
    def deploy(self, placement: str = PLACEMENT_BLOCK) -> None:
        """Place all virtual nodes and install all emulation rules.

        All groups are deployed in a single placement pass so block
        placement keeps each group on contiguous physical nodes (the
        paper's "32 virtual nodes per physical node" style); then each
        pnode's new runs are walked in hosting order, one access-table
        entry per vnode (``VNODE_RULE_BASE + 2 * hosting index``).
        """
        testbed = self.testbed
        marks = [(len(p.runs), p.folding_ratio) for p in testbed.pnodes]
        lo = testbed.placed + 1
        from_value = IPv4Address.from_value
        # The bulk build allocates no reference cycles, but the cyclic
        # collector's full-heap passes scale with the number of live
        # objects and dominate large builds. Pause it for the duration.
        pause_gc = gc.isenabled()
        if pause_gc:
            gc.disable()
        try:
            for _ in testbed.place_runs(
                self.spec.iter_placements(), self.spec.total_nodes(),
                placement, "node", block_register=True,
            ):
                pass
            self._ordinals = (lo, testbed.placed + 1)
            for pnode, (mark, hosted) in zip(testbed.pnodes, marks):
                add = pnode.stack.fw.add_access_pair
                number = VNODE_RULE_BASE + 2 * hosted
                for run in pnode.runs[mark:]:
                    up_f, down_f = self._factories_for(pnode, self.spec.groups[run.group])
                    step = run.step
                    for value in range(run.start, run.start + step * run.count, step):
                        number += 2
                        add(from_value(value), number, up_f, down_f)
            placed = testbed.placed + 1 - lo
            self.pipes_installed += 2 * placed
            self.rules_installed += 2 * placed
            # The pipe deferral is accounted in bulk here; per-vnode
            # ledger calls would be pure loop overhead.
            self._ledger.defer(2 * placed)
            self._install_group_rules()
            self._metrics.fold()
        finally:
            if pause_gc:
                gc.enable()

    def _factories_for(self, pnode, group: GroupSpec):
        key = (id(pnode), group.name)
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
        a per-run check for just that group, and anything else is
        disjoint.
        """
        sim = self.testbed.sim
        entries = list(self.spec.iter_latency_entries())
        if not entries:
            return
        hosting: Dict[str, set] = {name: set() for name in self.spec.groups}
        for run in self._runs():
            hosting[run.group].add(run.pnode)
        covered: List[set] = []
        for src_net, _dst_net, _latency in entries:
            pnodes: set = set()
            for gname, group in self.spec.groups.items():
                if src_net.contains_network(group.prefix):
                    pnodes.update(hosting[gname])
                elif group.prefix.contains_network(src_net):
                    pnodes.update(run.pnode for run in self._runs(gname) if run.covers(src_net))
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

    def _runs(self, group: Optional[str] = None) -> Iterator[VnodeRun]:
        """This compiler's runs (of ``group``), pnode by pnode."""
        lo, hi = self._ordinals or (0, 0)
        return (
            run for pnode in self.testbed.pnodes for run in pnode.runs
            if run.first is not None and lo <= run.first < hi and group in (None, run.group)
        )

    def vnodes(self, group: str) -> List[VirtualNode]:
        """The group's vnodes in placement order (built on this read)."""
        if self._ordinals is None or group not in self.spec.groups:
            raise TopologyError(f"no deployed group {group!r}")
        # Round-robin runs interleave; ordinals are unique, so no run is compared.
        order = sorted((run.first + k * run.step, k, run)
                       for run in self._runs(group) for k in range(run.count))
        return [run.vnode(k) for _, k, run in order]

    def all_vnodes(self) -> List[VirtualNode]:
        return [vnode for group in self.spec.groups for vnode in self.vnodes(group)]

    def stats(self) -> Dict[str, int]:
        """Deterministic footprint (vnodes/rules/pipes as *defined*)
        plus the wall-side lazy-pipe ledger: ``pipes_materialized`` /
        ``lazy_pipes_pending`` report how much Dummynet state actually
        exists — what telemetry ``/health`` surfaces for capacity
        planning. The ledger keys are wall-only diagnostics and must
        never enter deterministic output comparisons.
        """
        return {
            "vnodes": sum(run.count for run in self._runs()),
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
