"""Reference deployer: every pipe of a topology built up front.

What :mod:`repro.topology.compiler`'s lazy deployment must be
indistinguishable from: vnodes placed and registered one address at a
time, each vnode's name, libc and two access pipes built at deploy
time and installed with plain ``Firewall.add_pipe``/``Firewall.add``
calls, and one inter-group delay pipe per latency entry whose source
prefix covers a hosted vnode. Rule numbers follow the compiler's
documented scheme: access pairs from 1000 upward (two per vnode, in
hosting order per physical node), group delay rules from 100000.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.ipfw import ACTION_PIPE, DIR_IN, DIR_OUT
from repro.net.pipe import DummynetPipe
from repro.virt.deployment import PLACEMENT_BLOCK

VNODE_RULE_BASE = 1000
GROUP_RULE_BASE = 100000


def eager_deploy(spec, testbed, placement: str = PLACEMENT_BLOCK) -> Dict[str, List]:
    """Deploy ``spec`` onto ``testbed``; returns ``{group: [vnode, ...]}``."""
    spec.validate()
    sim = testbed.sim
    by_group: Dict[str, List] = {name: [] for name in spec.groups}
    hosted: Dict = {}  # pnode -> address values it hosts
    for vnode in testbed.place(
        spec.iter_placements(), count=spec.total_nodes(),
        placement=placement, name_prefix="node",
    ):
        group = spec.groups[vnode.group]
        pnode, addr = vnode.pnode, vnode.address
        fw = pnode.stack.fw
        up = DummynetPipe(
            sim, bandwidth=group.up_bw, delay=group.latency, plr=group.plr,
            name=f"up/{addr}", owner=pnode.name,
        )
        down = DummynetPipe(
            sim, bandwidth=group.down_bw, delay=group.latency, plr=group.plr,
            name=f"down/{addr}", owner=pnode.name,
        )
        fw.add_pipe(2 * addr.value, up)
        fw.add_pipe(2 * addr.value + 1, down)
        number = VNODE_RULE_BASE + 2 * pnode.folding_ratio
        fw.add(ACTION_PIPE, number=number, pipe=up, src=addr, direction=DIR_OUT)
        fw.add(ACTION_PIPE, number=number + 1, pipe=down, dst=addr, direction=DIR_IN)
        _ = (vnode.name, vnode.libc)
        by_group[vnode.group].append(vnode)
        hosted.setdefault(pnode, []).append(addr.value)
    entries = list(spec.iter_latency_entries())
    for pnode in testbed.pnodes:
        values = hosted.get(pnode, ())
        number = GROUP_RULE_BASE
        for src_net, dst_net, latency in entries:
            if not any(src_net.contains_value(v) for v in values):
                continue
            pipe = DummynetPipe(
                sim, delay=latency, name=f"grp/{pnode.name}/{src_net}->{dst_net}",
                owner=pnode.name,
            )
            pnode.stack.fw.add(
                ACTION_PIPE, number=number, pipe=pipe,
                src=src_net, dst=dst_net, direction=DIR_OUT,
            )
            number += 1
    return by_group
