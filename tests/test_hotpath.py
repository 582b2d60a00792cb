"""Hot-path optimisations must be semantically invisible.

Covers the parts of the hot-path overhaul that carry semantic risk,
plus the headline acceptance proof:

* the ipfw **verdict flow cache** — hit accounting that replays the
  scan charge of the reference walk (``tests/reference/rule_walk.py``)
  bit-for-bit, invalidation on every mutating op
  (``add``/``delete``/``flush``/``add_pipe``/``indexed`` flip), and
  the ``delete``/``flush`` per-rule ``hits`` reset;
* the **golden digests** — the metrics document and Chrome trace of a
  small swarm, and a reduced fig6 under both cost models, hash to the
  values every path produced before the reference paths left the
  product, under two different ``PYTHONHASHSEED`` values.
"""

import hashlib
import json

import pytest

from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import ACTION_ALLOW, ACTION_COUNT, ACTION_DENY, ACTION_PIPE, Firewall
from repro.net.packet import PROTO_TCP, Packet
from repro.net.pipe import DummynetPipe
from repro.sim import SimConfig, Simulator
from tests.reference.rule_walk import RuleWalk
from tests.test_fluid import _run_child


def pkt(src="10.1.0.1", dst="10.2.0.1", proto=PROTO_TCP):
    return Packet(IPv4Address(src), IPv4Address(dst), proto, 1500)


def make_fw(fw=None):
    """Count, deny and allow rules on ``fw`` (a new Firewall by default)."""
    fw = Firewall() if fw is None else fw
    fw.add(ACTION_COUNT, src=IPv4Network("10.1.0.0/16"))
    fw.add(ACTION_DENY, src=IPv4Network("10.9.0.0/16"))
    fw.add(ACTION_ALLOW)
    return fw


class TestFlowCacheAccounting:
    def test_hit_replays_identical_accounting(self):
        cached, walk = make_fw(), make_fw(RuleWalk())
        for _ in range(10):
            v = cached.evaluate(pkt(), "out")
            assert (v.allowed, v.pipes, v.scanned, v.matched) == walk.evaluate(pkt(), "out")
        assert cached.packets_evaluated == walk.packets_evaluated == 10
        assert cached.rules_scanned_total == walk.rules_scanned_total
        assert [r.hits for r in cached.rules] == walk.hits
        assert cached.flow_cache_hits == 9
        assert cached.flow_cache_misses == 1

    def test_distinct_flows_get_distinct_entries(self):
        fw = make_fw()
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
        fw = make_fw()
        before = fw.evaluate(pkt(), "out")
        fw.add(ACTION_DENY, src=IPv4Network("10.1.0.0/16"), number=50)
        after = fw.evaluate(pkt(), "out")
        assert before.allowed and not after.allowed
        assert fw.flow_cache_hits == 0  # the cached verdict was dropped

    def test_delete_invalidates(self):
        fw = Firewall()
        deny = fw.add(ACTION_DENY, src=IPv4Network("10.1.0.0/16"))
        fw.add(ACTION_ALLOW)
        assert not fw.evaluate(pkt(), "out").allowed
        fw.delete(deny.number)
        assert fw.evaluate(pkt(), "out").allowed

    def test_flush_invalidates(self):
        fw = Firewall()
        fw.add(ACTION_DENY)
        assert not fw.evaluate(pkt(), "out").allowed
        fw.flush()
        assert fw.evaluate(pkt(), "out").allowed  # default policy
        assert fw.stats()["flow_cache_entries"] == 1

    def test_add_pipe_invalidates(self, monkeypatch):
        sim = Simulator(seed=0, observe=False)
        fw = Firewall()
        fw.add(ACTION_ALLOW)
        fw.evaluate(pkt(), "out")
        assert fw.stats()["flow_cache_entries"] == 1
        fw.add_pipe(1, DummynetPipe(sim, bandwidth=1e6))
        assert fw.stats()["flow_cache_entries"] == 0

    def test_indexed_flip_invalidates(self):
        fw = make_fw()
        linear = fw.evaluate(pkt(), "out")
        fw.indexed = True
        indexed = fw.evaluate(pkt(), "out")
        assert linear.allowed == indexed.allowed
        assert linear.scanned != indexed.scanned  # cost model changed
        assert fw.flow_cache_hits == 0

    def test_pipe_rule_verdicts_replay_the_pipe(self):
        sim = Simulator(seed=0, observe=False)
        fw = Firewall()
        p = fw.add_pipe(1, DummynetPipe(sim, bandwidth=1e6, name="up"))
        fw.add(ACTION_PIPE, pipe=1)
        fw.add(ACTION_ALLOW)
        v1 = fw.evaluate(pkt(), "out")
        v2 = fw.evaluate(pkt(), "out")
        assert v1.pipes == v2.pipes == (p,)
        assert fw.flow_cache_hits == 1


class TestHitsReset:
    def test_delete_resets_hits(self):
        fw = Firewall()
        count = fw.add(ACTION_COUNT)
        fw.add(ACTION_ALLOW)
        for _ in range(5):
            fw.evaluate(pkt(), "out")
        assert count.hits == 5
        fw.delete(count.number)
        assert count.hits == 0

    def test_flush_resets_hits(self):
        fw = Firewall()
        rules = [fw.add(ACTION_COUNT), fw.add(ACTION_ALLOW)]
        for _ in range(3):
            fw.evaluate(pkt(), "out")
        assert [r.hits for r in rules] == [3, 3]
        fw.flush()
        assert [r.hits for r in rules] == [0, 0]

    def test_hits_reset_also_under_cache_hits(self):
        """Cache-hit bookkeeping must not resurrect counters either."""
        fw = make_fw()
        for _ in range(4):
            fw.evaluate(pkt(), "out")
        count_rule = fw.rules[0]
        assert count_rule.hits == 4
        fw.flush()
        assert count_rule.hits == 0


class TestPacketPool:
    def test_every_simulator_carries_the_attributes_the_stack_reads(self):
        """The delivery path reads ``fluid`` as a plain attribute: every
        simulator has it from construction."""
        for config in (SimConfig(), SimConfig(fluid=True)):
            sim = Simulator(seed=0, observe=False, config=config)
            assert (sim.fluid is not None) == config.fluid


# ----------------------------------------------------------------------
# Golden digests: the byte-identity proof of every optimisation above
# ----------------------------------------------------------------------
def _ab_document():
    """A small flight-recorded swarm: the deterministic metrics document
    plus the full Chrome trace."""
    from repro.analysis.export import metrics_json
    from repro.bittorrent import Swarm, SwarmConfig
    from repro.units import MB

    swarm = Swarm(SwarmConfig(
        leechers=4, seeders=1, file_size=1 * MB, stagger=1.0,
        num_pnodes=2, seed=7, observe=True, flight=True,
    ))
    swarm.run(max_time=20000)
    manifest = swarm.manifest(wall_time_seconds=None)
    doc = {
        "metrics": json.loads(metrics_json(
            manifest, swarm.metrics_snapshot(), swarm.sim.tracer.as_list(),
            deterministic_only=True,
        )),
        "trace": swarm.chrome_trace(experiment="ab"),
    }
    assert doc["metrics"] and doc["trace"]["traceEvents"]
    return doc


def _fig6_document():
    """Reduced fig6: the same probes under the linear and the indexed
    cost model. Every RTT carries the rules-scanned charge of the
    verdicts it crossed, flow-cache hits included."""
    from repro.experiments.fig6_rule_scaling import run_fig6

    result = run_fig6(rule_counts=(0, 5000, 10000, 20000), pings_per_point=4, seed=0)
    return {
        "rule_counts": result.rule_counts,
        "linear": result.rtts,
        "indexed": result.indexed_rtts,
    }


#: BLAKE2b of each document. Computed before the reference paths left
#: the product — with the calendar queue, flow cache, packet pool and
#: lazy deployer on and with all of them off — under PYTHONHASHSEED 1
#: and 31337: all four runs agreed.
GOLDEN_DIGESTS = {
    "ab": "8ebbc6e950c34650144f3890b5fa1ad0",
    "fig6": "6c60ae98f7f4e9668088c9ae14c30dce",
}


def _golden_digest(kind):
    doc = {"ab": _ab_document, "fig6": _fig6_document}[kind]()
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_golden_digest(kind):
    """Acceptance proof, under two hash seeds (flushing out any
    dict/set-order dependence the caches could introduce)."""
    code = f"import tests.test_hotpath as t; print(t._golden_digest({kind!r}))"
    for hash_seed in ("1", "31337"):
        digest = _run_child(code, PYTHONHASHSEED=hash_seed).strip()
        assert digest == GOLDEN_DIGESTS[kind], hash_seed
