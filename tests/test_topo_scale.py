"""Million-vnode topology path: laziness must be observationally
invisible and the streaming build must stay flat in memory.

The contract under test (see ``repro.topology.compiler``): the lazy
build — streaming placement, block address registration, flyweight
shaping profiles, pipes deferred to first matching packet — installs
the rule tables and produces the emulation output of the eager
reference deployer in ``tests/reference/eager_deploy.py``, while an
idle vnode never materialises any Dummynet state.
"""

import hashlib
import json
import tracemalloc

import pytest

from repro.errors import FirewallError
from repro.net.ping import ping
from repro.topology import TopologySpec, compile_topology
from repro.topology.presets import uniform_swarm
from repro.units import kbps, ms
from repro.virt import Testbed
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
