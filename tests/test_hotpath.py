"""Hot-path optimisations must be semantically invisible.

Covers the three parts of the hot-path overhaul that carry semantic
risk, plus the headline acceptance proof:

* the ipfw **verdict flow cache** — invalidation on every mutating op
  (``add``/``delete``/``flush``/``add_pipe``/``indexed`` flip), hit
  accounting that replays the original scan charge bit-for-bit, and
  the ``delete``/``flush`` per-rule ``hits`` reset;
* the **packet pool** — fresh ids on reuse (the id stream is part of
  the deterministic surface) and tap-induced opt-out;
* the **subprocess A/B determinism proof** — the metrics snapshot and
  the Chrome trace of a small swarm are byte-identical between the
  optimised path and ``REPRO_SLOW_PATH=1``, under two different
  ``PYTHONHASHSEED`` values.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.net import packet as packet_mod
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import ACTION_ALLOW, ACTION_COUNT, ACTION_DENY, ACTION_PIPE, Firewall
from repro.net.packet import PROTO_TCP, Packet, acquire, release, retag
from repro.net.pipe import DummynetPipe
from repro.sim import SimConfig, Simulator

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def pkt(src="10.1.0.1", dst="10.2.0.1", proto=PROTO_TCP):
    return Packet(IPv4Address(src), IPv4Address(dst), proto, 1500)


def make_fw(flow_cache=True):
    fw = Firewall(flow_cache=flow_cache)
    fw.add(ACTION_COUNT, src=IPv4Network("10.1.0.0/16"))
    fw.add(ACTION_DENY, src=IPv4Network("10.9.0.0/16"))
    fw.add(ACTION_ALLOW)
    return fw


class TestFlowCacheAccounting:
    def test_hit_replays_identical_accounting(self):
        cached, scan = make_fw(True), make_fw(False)
        for _ in range(10):
            v1 = cached.evaluate(pkt(), "out")
            v2 = scan.evaluate(pkt(), "out")
            assert (v1.allowed, v1.scanned, v1.matched) == (
                v2.allowed,
                v2.scanned,
                v2.matched,
            )
        assert cached.packets_evaluated == scan.packets_evaluated == 10
        assert cached.rules_scanned_total == scan.rules_scanned_total
        assert [r.hits for r in cached.rules] == [r.hits for r in scan.rules]
        assert cached.flow_cache_hits == 9
        assert cached.flow_cache_misses == 1
        assert scan.flow_cache_hits == 0

    def test_distinct_flows_get_distinct_entries(self):
        fw = make_fw(True)
        fw.evaluate(pkt(src="10.1.0.1"), "out")
        fw.evaluate(pkt(src="10.9.0.1"), "out")  # hits the DENY rule
        fw.evaluate(pkt(), "in")  # direction is part of the key
        fw.evaluate(pkt(proto="udp"), "out")  # proto is part of the key
        assert fw.stats()["flow_cache_entries"] == 4
        assert fw.flow_cache_misses == 4
        denied = fw.evaluate(pkt(src="10.9.0.1"), "out")
        assert not denied.allowed
        assert fw.flow_cache_hits == 1


class TestFlowCacheInvalidation:
    """Every mutating op must flush the cache: a stale verdict after a
    rule change is a correctness bug, not a performance bug."""

    def test_add_invalidates(self):
        fw = make_fw(True)
        before = fw.evaluate(pkt(), "out")
        fw.add(ACTION_DENY, src=IPv4Network("10.1.0.0/16"), number=50)
        after = fw.evaluate(pkt(), "out")
        assert before.allowed and not after.allowed
        assert fw.flow_cache_hits == 0  # the cached verdict was dropped

    def test_delete_invalidates(self):
        fw = Firewall(flow_cache=True)
        deny = fw.add(ACTION_DENY, src=IPv4Network("10.1.0.0/16"))
        fw.add(ACTION_ALLOW)
        assert not fw.evaluate(pkt(), "out").allowed
        fw.delete(deny.number)
        assert fw.evaluate(pkt(), "out").allowed

    def test_flush_invalidates(self):
        fw = Firewall(flow_cache=True)
        fw.add(ACTION_DENY)
        assert not fw.evaluate(pkt(), "out").allowed
        fw.flush()
        assert fw.evaluate(pkt(), "out").allowed  # default policy
        assert fw.stats()["flow_cache_entries"] == 1

    def test_add_pipe_invalidates(self, monkeypatch):
        sim = Simulator(seed=0, observe=False)
        fw = Firewall(flow_cache=True)
        fw.add(ACTION_ALLOW)
        fw.evaluate(pkt(), "out")
        assert fw.stats()["flow_cache_entries"] == 1
        fw.add_pipe(1, DummynetPipe(sim, bandwidth=1e6))
        assert fw.stats()["flow_cache_entries"] == 0

    def test_indexed_flip_invalidates(self):
        fw = make_fw(True)
        linear = fw.evaluate(pkt(), "out")
        fw.indexed = True
        indexed = fw.evaluate(pkt(), "out")
        assert linear.allowed == indexed.allowed
        assert linear.scanned != indexed.scanned  # cost model changed
        assert fw.flow_cache_hits == 0

    def test_pipe_rule_verdicts_replay_the_pipe(self):
        sim = Simulator(seed=0, observe=False)
        fw = Firewall(flow_cache=True)
        p = fw.add_pipe(1, DummynetPipe(sim, bandwidth=1e6, name="up"))
        fw.add(ACTION_PIPE, pipe=1)
        fw.add(ACTION_ALLOW)
        v1 = fw.evaluate(pkt(), "out")
        v2 = fw.evaluate(pkt(), "out")
        assert v1.pipes == v2.pipes == (p,)
        assert fw.flow_cache_hits == 1


class TestHitsReset:
    def test_delete_resets_hits(self):
        fw = Firewall(flow_cache=False)
        count = fw.add(ACTION_COUNT)
        fw.add(ACTION_ALLOW)
        for _ in range(5):
            fw.evaluate(pkt(), "out")
        assert count.hits == 5
        fw.delete(count.number)
        assert count.hits == 0

    def test_flush_resets_hits(self):
        fw = Firewall(flow_cache=False)
        rules = [fw.add(ACTION_COUNT), fw.add(ACTION_ALLOW)]
        for _ in range(3):
            fw.evaluate(pkt(), "out")
        assert [r.hits for r in rules] == [3, 3]
        fw.flush()
        assert [r.hits for r in rules] == [0, 0]

    def test_hits_reset_also_under_cache_hits(self):
        """Cache-hit bookkeeping must not resurrect counters either."""
        fw = make_fw(True)
        for _ in range(4):
            fw.evaluate(pkt(), "out")
        count_rule = fw.rules[0]
        assert count_rule.hits == 4
        fw.flush()
        assert count_rule.hits == 0


class TestPacketPool:
    def test_reused_packet_gets_fresh_id(self):
        a = acquire(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), PROTO_TCP, 100)
        first_id = a.id
        release(a)
        b = acquire(IPv4Address("10.0.0.3"), IPv4Address("10.0.0.4"), PROTO_TCP, 200)
        assert b is a  # recycled object...
        assert b.id > first_id  # ...with a fresh identity
        assert b.payload is None and b.size == 200

    def test_retag_swaps_endpoints_and_refreshes_id(self):
        p = acquire(
            IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "icmp", 64, kind="echo"
        )
        old_id = p.id
        r = retag(p, p.dst, p.src, "echoreply")
        assert r is p
        assert (str(r.src), str(r.dst)) == ("10.0.0.2", "10.0.0.1")
        assert r.kind == "echoreply" and r.id > old_id

    def test_pool_is_bounded(self):
        for _ in range(packet_mod.POOL_CAP + 10):
            release(
                acquire(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), PROTO_TCP, 1)
            )
        assert len(packet_mod._pool) <= packet_mod.POOL_CAP

    def test_tap_disables_reuse_permanently(self):
        from repro.net.stack import NetworkStack

        sim = Simulator(seed=0, observe=False, config=SimConfig(fast=True))
        assert sim.allow_packet_reuse is True
        stack = NetworkStack(sim, "node1")
        stack.add_tap(lambda p: None)
        assert sim.allow_packet_reuse is False  # taps may retain packets

    def test_slow_path_sim_never_reuses(self):
        sim = Simulator(seed=0, observe=False, config=SimConfig(fast=False))
        assert sim.allow_packet_reuse is False


#: One child per (path, hash seed): runs a small flight-recorded swarm
#: and prints the deterministic metrics JSON plus the full Chrome trace
#: document. Any behavioural divergence between the optimised and
#: reference paths shows up as a byte diff.
AB_SCRIPT = """
import json
from repro.bittorrent import Swarm, SwarmConfig
from repro.analysis.export import metrics_json
from repro.units import MB

config = SwarmConfig(leechers=4, seeders=1, file_size=1 * MB, stagger=1.0,
                     num_pnodes=2, seed=7, observe=True, flight=True)
swarm = Swarm(config)
swarm.run(max_time=20000)
manifest = swarm.manifest(wall_time_seconds=None)
snapshot = swarm.metrics_snapshot()
spans = swarm.sim.tracer.as_list()
doc = {
    "metrics": json.loads(metrics_json(manifest, snapshot, spans,
                                       deterministic_only=True)),
    "trace": swarm.chrome_trace(experiment="ab"),
}
print(json.dumps(doc, sort_keys=True))
"""


def _run_ab_child(slow_path: str, hash_seed: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", AB_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
        env={
            "PYTHONHASHSEED": hash_seed,
            "REPRO_SLOW_PATH": slow_path,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC_DIR,
        },
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_ab_fast_vs_slow_path_byte_identical_across_hash_seeds():
    """Acceptance proof: trace + metrics snapshot are byte-identical
    with all optimisations on vs. ``REPRO_SLOW_PATH=1``, under two
    different hash seeds (flushing out any dict/set-order dependence
    the caches could have introduced)."""
    fast_1 = _run_ab_child(slow_path="0", hash_seed="1")
    slow_1 = _run_ab_child(slow_path="1", hash_seed="1")
    assert fast_1 == slow_1
    fast_2 = _run_ab_child(slow_path="0", hash_seed="31337")
    assert fast_2 == fast_1
    slow_2 = _run_ab_child(slow_path="1", hash_seed="31337")
    assert slow_2 == slow_1
    # Sanity: the output actually contains both documents.
    doc = json.loads(fast_1)
    assert doc["metrics"]
    assert doc["trace"]["traceEvents"]
