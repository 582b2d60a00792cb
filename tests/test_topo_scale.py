"""Million-vnode topology path: laziness must be observationally
invisible and the streaming build must stay flat in memory.

The contract under test (see ``repro.topology.compiler``): the lazy
build — streaming placement, block address registration, flyweight
shaping profiles, pipes deferred to first matching packet — installs
the rule tables and produces the emulation output of the eager
reference deployer in ``tests/reference/eager_deploy.py``, while an
idle vnode never materialises any Dummynet state.
"""

import gc
import hashlib
import json
import tracemalloc

import pytest

from repro.errors import FirewallError, VirtualizationError
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ping import ping
from repro.topology import TopologySpec, compile_topology
from repro.topology.presets import uniform_swarm
from repro.units import kbps, ms
from repro.virt import Testbed, VirtualNode
from tests.reference.eager_deploy import eager_deploy
from tests.test_fluid import _run_child


# ----------------------------------------------------------------------
# Golden digest: a reduced fig10 across hash seeds
# ----------------------------------------------------------------------
#: BLAKE2b of the reduced fig10 document. Computed before the eager
#: path left the product, on the lazy and on the eager deployer under
#: PYTHONHASHSEED 1 and 31337: all four runs agreed.
GOLDEN_FIG10_DIGEST = "34b5933806f5cf8fc2f530ba629ad3d3"


def _fig10_digest():
    """A reduced-scale fig10 swarm (the full stack: topology compile,
    BitTorrent swarm, completion curve) as a digest of its result."""
    from repro.experiments.fig10_scalability import run_fig10

    result = run_fig10(scale=0.004, stagger=0.25, seed=7)
    doc = {
        "clients": result.clients,
        "pnodes": result.pnodes,
        "completion": result.completion,
        "selected": result.selected_progress,
        "first": result.first_completion,
        "last": result.last_completion,
        "median": result.median_completion,
    }
    assert doc["completion"] and doc["clients"] >= 10
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def test_fig10_golden_digest_across_hash_seeds():
    code = "import tests.test_topo_scale as t; print(t._fig10_digest())"
    for hash_seed in ("1", "31337"):
        digest = _run_child(code, PYTHONHASHSEED=hash_seed).strip()
        assert digest == GOLDEN_FIG10_DIGEST, hash_seed


# ----------------------------------------------------------------------
# Flyweight/lazy shaping state
# ----------------------------------------------------------------------
def test_idle_vnode_never_materializes_pipes():
    """Traffic between two vnodes must not build Dummynet state for
    the other vnodes on the same physical nodes."""
    testbed = Testbed(num_pnodes=2)
    spec = uniform_swarm(4, prefix="10.0.0.0/24")
    comp = compile_topology(spec, testbed)
    v1, v2, v3, v4 = comp.vnodes("peers")

    stats = comp.stats()
    assert stats["pipes"] == 8
    assert stats["pipes_materialized"] == 0
    assert stats["lazy_pipes_pending"] == 8

    p = ping(
        testbed.sim, v1.pnode.stack, v1.address, v2.address,
        count=2, interval=0.5, timeout=5.0,
    )
    testbed.run()
    assert p.result.received == 2

    # The echo round-trip touches exactly v1 and v2, both directions.
    stats = comp.stats()
    assert stats["pipes_materialized"] == 4
    assert stats["lazy_pipes_pending"] == 4
    for vnode in (v1, v2):
        assert vnode.pnode.stack.fw.pipe(2 * vnode.address.value) is not None
        assert vnode.pnode.stack.fw.pipe(2 * vnode.address.value + 1) is not None
    for idle in (v3, v4):
        fw = idle.pnode.stack.fw
        with pytest.raises(FirewallError):
            fw.pipe(2 * idle.address.value)
        with pytest.raises(FirewallError):
            fw.pipe(2 * idle.address.value + 1)


def _two_group_spec():
    spec = TopologySpec()
    spec.add_group("a", "10.1.0.0/24", 5, up_bw=kbps(128), latency=ms(10))
    spec.add_group("b", "10.2.0.0/24", 3, down_bw=kbps(512), plr=0.05)
    spec.add_latency("a", "b", ms(100))
    return spec


def test_lazy_and_eager_install_identical_rule_tables():
    """The deterministic firewall footprint (rule numbers, pipe ids as
    configured, order) must not depend on the laziness mode."""
    spec = _two_group_spec()

    def table(deploy):
        testbed = Testbed(num_pnodes=2)
        deploy(spec, testbed)
        return [
            [
                (r.number, r.action, str(r.src), str(r.dst), r.direction)
                for r in pnode.stack.fw
            ]
            for pnode in testbed.pnodes
        ]

    assert table(compile_topology) == table(eager_deploy)


def test_lazy_and_eager_ping_every_pair_identically():
    """Echoes between every ordered pair of vnodes, across groups and
    pnodes, through lossy and shaped pipes: same RTTs, same losses, same
    deterministic metrics whichever deployer built the pipes."""

    def run(deploy):
        testbed = Testbed(num_pnodes=2, seed=4)
        deploy(spec, testbed)
        vnodes = sorted(testbed.vnodes.values(), key=lambda v: v.address.value)
        probes = [
            ping(testbed.sim, a.pnode.stack, a.address, b.address,
                 count=2, interval=0.3, timeout=5.0)
            for a in vnodes for b in vnodes if a is not b
        ]
        testbed.run()
        rtts = [(p.result.received, p.result.avg) for p in probes]
        return rtts, testbed.sim.metrics.snapshot()

    spec = _two_group_spec()
    lazy, eager = run(compile_topology), run(eager_deploy)
    assert lazy == eager
    assert 0 < sum(received for received, _ in lazy[0]) < 2 * len(lazy[0])


def test_access_pipes_materialize_on_demand():
    """The control-plane hook works before any packet has flowed."""
    testbed = Testbed(num_pnodes=1)
    spec = uniform_swarm(2, prefix="10.0.0.0/24")
    comp = compile_topology(spec, testbed)
    v1, _ = comp.vnodes("peers")
    up, down = comp.access_pipes(v1)
    assert up is not None and down is not None
    stats = comp.stats()
    assert stats["pipes_materialized"] == 2
    # Idempotent: a second call returns the same objects.
    assert comp.access_pipes(v1) == (up, down)


# ----------------------------------------------------------------------
# Streaming memory behaviour
# ----------------------------------------------------------------------
def test_100k_spec_streams_without_materializing_lists():
    """Iterating a 100 000-address spec allocates O(1) live memory —
    the generator never builds the address list."""
    spec = TopologySpec()
    spec.add_group("peers", "10.0.0.0/8", 100_000)
    spec.add_latency("peers", "172.16.0.0/12", ms(50))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = sum(1 for _ in spec.iter_placements())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 100_000
    # A materialised list alone would be ~800 kB plus 56 B per address.
    assert peak - before < 256 * 1024


def test_lazy_100k_deploy_stays_under_per_vnode_memory_budget():
    """A lazy 100k-vnode deploy retains a bounded live heap per vnode
    (the flyweight/slots/block-registration diet; the ratio gate runs
    in benchmarks/bench_topo.py)."""
    spec = TopologySpec()
    spec.add_group(
        "peers", "10.0.0.0/8", 100_000,
        down_bw=kbps(1024), up_bw=kbps(512), latency=ms(20),
    )
    testbed = Testbed(num_pnodes=128, observe=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        comp = compile_topology(spec, testbed)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert comp.stats()["vnodes"] == 100_000
    per_vnode = (after - before) / 100_000
    assert per_vnode < 1200, f"lazy deploy retains {per_vnode:.0f} B/vnode"


# ----------------------------------------------------------------------
# Placement runs: a vnode is built when something reads its position
# ----------------------------------------------------------------------
def _live(cls, lo=0, hi=1 << 32):
    """Live ``cls`` objects (an address type: those with a value in
    ``[lo, hi)``)."""
    gc.collect()
    return sum(
        1 for o in gc.get_objects()
        if type(o) is cls and (cls is not IPv4Address or lo <= o.value < hi)
    )


def test_deploy_builds_no_vnode_until_a_position_is_read():
    """A 20 000-vnode deploy builds no VirtualNode and no vnode address
    object; reading one position builds exactly one of each, and the
    position returns that object from then on."""
    prefix = IPv4Network("10.0.0.0/8")
    lo, hi = prefix.address.value, prefix.address.value + prefix.num_addresses
    spec = TopologySpec("idle")
    spec.add_group("peers", prefix, 20_000, up_bw=kbps(512), latency=ms(20))
    testbed = Testbed(num_pnodes=32, observe=False)
    vnodes0, addrs0 = _live(VirtualNode), _live(IPv4Address, lo, hi)
    compiler = compile_topology(spec, testbed)
    assert compiler.stats()["vnodes"] == testbed.total_vnodes() == 20_000
    assert "node12345" in testbed.vnodes and "node20001" not in testbed.vnodes
    assert _live(VirtualNode) == vnodes0
    assert _live(IPv4Address, lo, hi) == addrs0

    vnode = testbed.vnode_at("10.0.48.57")  # 10.0.0.0 + 12345
    assert vnode.name == "node12345" and vnode.group == "peers"
    assert _live(VirtualNode) == vnodes0 + 1
    assert _live(IPv4Address, lo, hi) == addrs0 + 1
    assert testbed.vnodes["node12345"] is vnode
    assert vnode.pnode.vnodes.get("node12345") is vnode
    assert testbed.vnode_at(vnode.address) is vnode
    assert _live(VirtualNode) == vnodes0 + 1


def _three_group_spec():
    spec = _two_group_spec()
    spec.add_group("c", "10.3.0.0/24", 7, up_bw=kbps(64), latency=ms(40))
    spec.add_latency("c", "a", ms(70))
    # Strictly inside group c: under round-robin on 3 pnodes it holds
    # the vnodes of two of the three pnodes hosting c.
    spec.add_latency("10.3.0.6/31", "b", ms(15), symmetric=False)
    return spec


@pytest.mark.parametrize("placement", ["block", "round-robin"])
def test_run_views_match_the_eager_reference_vnode_by_vnode(placement):
    """Runs yield the vnodes the eager reference places: same name,
    address, group, pnode, hosting order and access-rule numbers, and
    every lookup view agrees."""
    spec = _three_group_spec()
    lazy_tb, eager_tb = Testbed(num_pnodes=3), Testbed(num_pnodes=3)
    compiler = compile_topology(spec, lazy_tb, placement=placement)
    by_group = eager_deploy(spec, eager_tb, placement=placement)

    def rows(vnodes, testbed):
        out = []
        for v in vnodes:
            fw, hosted = v.pnode.stack.fw, list(v.pnode.vnodes)
            numbers = [r.number for r in fw.rules_for(src=v.address)]
            numbers += [r.number for r in fw.rules_for(dst=v.address)]
            out.append((v.name, v.address.value, v.group, v.pnode.name,
                        hosted.index(v.name), numbers))
            assert testbed.vnode_at(v.address) is v
            assert v.pnode.vnodes[v.name] is v and testbed.vnodes[v.name] is v
        return out

    for group in spec.groups:
        assert rows(compiler.vnodes(group), lazy_tb) == rows(by_group[group], eager_tb)
    assert lazy_tb.folding_ratios == eager_tb.folding_ratios
    assert lazy_tb.total_vnodes() == eager_tb.total_vnodes() == spec.total_nodes()
    assert list(lazy_tb.vnodes) == list(eager_tb.vnodes)
    for lazy_p, eager_p in zip(lazy_tb.pnodes, eager_tb.pnodes):
        assert list(lazy_p.vnodes) == list(eager_p.vnodes)
        assert [(r.number, str(r.src), str(r.dst), r.direction) for r in lazy_p.stack.fw] == [
            (r.number, str(r.src), str(r.dst), r.direction) for r in eager_p.stack.fw
        ]
    assert [v.name for v in compiler.all_vnodes()] == [
        v.name for group in spec.groups for v in by_group[group]
    ]


def test_remove_vnode_updates_every_view():
    """The pnode's runs are the one record of membership: a removed
    vnode leaves every count and lookup at once."""
    testbed = Testbed(num_pnodes=2)
    compiler = compile_topology(uniform_swarm(4), testbed)
    testbed.pnodes[0].remove_vnode("node1")
    assert testbed.pnodes[0].folding_ratio == 1
    assert testbed.total_vnodes() == 3 == len(testbed.vnodes)
    with pytest.raises(VirtualizationError):
        testbed.vnode_at("10.0.0.1")
    assert "node1" not in testbed.vnodes
    assert [v.name for v in compiler.vnodes("peers")] == ["node2", "node3", "node4"]
    assert compiler.stats()["vnodes"] == 3
    assert not testbed.pnodes[0].stack.has_address("10.0.0.1")


def test_removing_a_middle_position_splits_its_run():
    testbed = Testbed(num_pnodes=1)
    compiler = compile_topology(uniform_swarm(10), testbed)
    (pnode,) = testbed.pnodes
    node6 = testbed.vnode_at("10.0.0.6")
    pnode.remove_vnode("node5")
    assert [r.count for r in pnode.runs] == [4, 5]
    assert list(pnode.vnodes) == [f"node{i}" for i in (1, 2, 3, 4, 6, 7, 8, 9, 10)]
    assert testbed.vnode_at("10.0.0.6") is node6 and pnode.vnodes["node6"] is node6
    assert "node5" not in pnode.vnodes and pnode.folding_ratio == 9
    assert len(compiler.vnodes("peers")) == 9
    with pytest.raises(VirtualizationError):
        pnode.remove_vnode("node5")
