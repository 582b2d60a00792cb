"""Rule-scan microbenchmark: ipfw flow-cache hits vs never-seen flows.

Times one :class:`~repro.net.ipfw.Firewall` the way ``perf/layers.py``'s
ipfw drive does: flows it has seen before (a flow-cache hit replays the
cached verdict's accounting) against flows it has never seen (a miss:
the candidate walk, then a new cache entry). The workload is the one the
cache targets: the paper's emulation rulesets are dominated by long runs
of generic (no-port) pipe/count rules that every packet of a flow
re-scans identically. P2PLab's figure-6 experiment is exactly this
shape — per-pair latency rules scanned linearly for every packet.

Workload: ``RULES`` generic COUNT rules over distinct /16 networks with
a terminal ALLOW. Hits: ``EVALS`` evaluations round-robin over ``FLOWS``
warmed flows. Misses: ``MISSES`` flows with fresh source addresses that
match the same rule sets. ``speedup`` is the cost of a miss over the
cost of a hit, per evaluation.

The bench also checks that the firewall's accounting (verdicts,
``rules_scanned_total``, per-rule hit counts) equals the uncached
reference walk of ``tests/reference/rule_walk.py`` over hits and misses
alike — the cache must be an optimisation, not a semantic change — and
gates on a **2x** floor (measured ratios are far higher; the floor is
deliberately conservative so CI noise cannot flake the gate).

Scale: ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies the
evaluation counts — CI smoke runs use 0.1.
"""

import os
import time

from repro.net.addr import IPv4Network, ip
from repro.net.ipfw import ACTION_ALLOW, ACTION_COUNT, Firewall
from repro.net.packet import PROTO_TCP, Packet
from tests.reference.rule_walk import RuleWalk

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0") or "1.0")

#: Ruleset shape: long generic run + terminal allow (the paper's
#: inter-group latency rules compile to exactly this pattern).
RULES = 400
#: Distinct repeated flows — small relative to EVALS so hits dominate.
FLOWS = 64
#: Packet evaluations of repeated flows.
EVALS = max(2000, int(20_000 * SCALE))
#: Never-seen flows, one evaluation each.
MISSES = max(200, int(2000 * SCALE))

#: Gate: a miss must cost at least this many hits.
MIN_SPEEDUP = 2.0

#: Each wall-clock number is the best of this many runs — a single
#: shot is at the mercy of scheduler/allocator noise (see
#: ``bench_kernel.py`` on the +14% drift this caused).
TIMING_ROUNDS = 3


def build_firewall(fw=None):
    """The bench ruleset on ``fw`` (a new Firewall by default)."""
    fw = Firewall(name="bench") if fw is None else fw
    for i in range(RULES):
        fw.add(
            ACTION_COUNT,
            src=IPv4Network(f"10.{i % 200}.0.0/16"),
            dst=IPv4Network(f"172.{i % 100}.0.0/16"),
        )
    fw.add(ACTION_ALLOW)
    return fw


def _flow(i: int, host_block: int) -> Packet:
    """Flow ``i`` of a block: its /16 pair (hence its matched rule
    set) depends on ``i`` alone, its source host on the block too."""
    src = ip(f"10.{i % 200}.{host_block + i // 250}.{1 + i % 250}")
    dst = ip(f"172.{i % 100}.2.{1 + (i * 7) % 250}")
    return Packet(src, dst, PROTO_TCP, 1500, sport=1000 + i % 1000, dport=6881)


def build_flows(n: int = FLOWS):
    return [_flow(i, host_block=1) for i in range(n)]


def cold_flows(n: int = MISSES):
    """``n`` flows no firewall has seen: source hosts outside the
    repeated flows' block, over the same rule sets."""
    return [_flow(i, host_block=100) for i in range(n)]


def evaluate_all(fw: Firewall, flows, evals: int) -> float:
    """Evaluate ``evals`` packets round-robin over ``flows``; return wall."""
    evaluate = fw.evaluate
    n = len(flows)
    t0 = time.perf_counter()
    for i in range(evals):
        evaluate(flows[i % n], "out")
    return time.perf_counter() - t0


def warm_firewall(flows):
    fw = build_firewall()
    evaluate_all(fw, flows, len(flows))
    return fw


def test_ipfw_flow_cache_speedup(benchmark, bench_json):
    flows, cold = build_flows(), cold_flows()

    # Warm-up (interpreter caches) on a small firewall.
    evaluate_all(warm_firewall(flows), flows, 500)

    # ``wall_seconds`` (tracked by compare.py) is the hit loop; each
    # round gets a fresh warmed firewall, so every cold flow misses.
    benchmark.pedantic(
        evaluate_all,
        setup=lambda: ((warm_firewall(flows), flows, EVALS), {}),
        rounds=TIMING_ROUNDS,
        iterations=1,
    )
    hit_wall = miss_wall = float("inf")
    for _ in range(TIMING_ROUNDS):
        fw = warm_firewall(flows)
        hit_wall = min(hit_wall, evaluate_all(fw, flows, EVALS))
        miss_wall = min(miss_wall, evaluate_all(fw, cold, len(cold)))
        assert fw.flow_cache_misses == FLOWS + len(cold)
    hit_us = 1e6 * hit_wall / EVALS
    miss_us = 1e6 * miss_wall / len(cold)
    speedup = miss_us / hit_us

    # The cache must not change the accounting the figures read:
    # hits and misses against the uncached reference walk.
    fw, walk = build_firewall(), build_firewall(RuleWalk())
    for pkt in flows * 3 + cold[:FLOWS]:
        v = fw.evaluate(pkt, "out")
        assert (v.allowed, v.pipes, v.scanned, v.matched) == walk.evaluate(pkt, "out")
    assert fw.packets_evaluated == walk.packets_evaluated
    assert fw.rules_scanned_total == walk.rules_scanned_total
    assert [r.hits for r in fw.rules] == walk.hits
    assert fw.flow_cache_hits == 2 * FLOWS

    bench_json(
        "ipfw",
        rules=RULES,
        flows=FLOWS,
        evals=EVALS,
        misses=len(cold),
        hit_us=round(hit_us, 4),
        miss_us=round(miss_us, 4),
        speedup=round(speedup, 3),
        evals_per_second_hit=round(EVALS / hit_wall),
        evals_per_second_miss=round(len(cold) / miss_wall),
    )
    print(
        f"\nipfw evaluate: hit={hit_us:.2f}us miss={miss_us:.2f}us "
        f"-> {speedup:.1f}x over {RULES} rules\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"a flow-cache hit is only {speedup:.2f}x cheaper than a miss "
        f"(need >= {MIN_SPEEDUP}x)"
    )
