"""Unbuilt access pairs are observationally invisible.

``Firewall.add_access_pair`` records a per-vnode pair as one table
entry and builds its two rules at first use. This file drives that
table against ``tests/reference/rule_walk.py``, which installs every
rule up front and walks all of them: the pairs are interleaved with
``add()`` rules that share their numbers, a terminal rule sorts
between unbuilt pairs, one half of a pair is deleted, and packets go
out and in, to co-hosted and to remote addresses, under both cost
models.
"""

import pytest

from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import (
    ACTION_ALLOW,
    ACTION_COUNT,
    ACTION_DENY,
    ACTION_PIPE,
    DIR_IN,
    DIR_OUT,
    Firewall,
)
from repro.net.packet import PROTO_TCP, Packet
from repro.net.pipe import DummynetPipe
from repro.sim import Simulator
from tests.reference.rule_walk import RuleWalk

LOCAL = [IPv4Address(f"10.1.0.{i}") for i in range(1, 13)]
REMOTE = [IPv4Address("10.2.0.1"), IPv4Address("10.9.0.9")]


class _Factory:
    """An access-pipe factory that logs the pipes it builds, in order."""

    def __init__(self, sim, tag, created):
        self.sim, self.tag, self.created = sim, tag, created

    def __call__(self, rule):
        addr = rule.src if rule.direction == DIR_OUT else rule.dst
        side = "up" if rule.direction == DIR_OUT else "down"
        pipe = DummynetPipe(self.sim, delay=0.001, name=f"{self.tag}/{side}/{addr}")
        self.created.append(pipe.name)
        return pipe


class _Pair:
    """Both firewalls, driven through the same operations."""

    def __init__(self, indexed):
        self.sim = Simulator(seed=0, observe=False)
        self.fw = Firewall(indexed=indexed)
        self.walk = RuleWalk(indexed=indexed)
        self.created = []
        self.seen = []
        self.factories = {
            tag: (_Factory(self.sim, tag, self.created),) * 2 for tag in ("a", "b")
        }

    def access(self, addr, number, tag="a"):
        up, down = self.factories[tag]
        self.fw.add_access_pair(addr, number, up, down)
        self.walk.add(ACTION_PIPE, number=number, pipe=f"{tag}/up/{addr}",
                      src=addr, direction=DIR_OUT)
        self.walk.add(ACTION_PIPE, number=number + 1, pipe=f"{tag}/down/{addr}",
                      dst=addr, direction=DIR_IN)

    def add(self, action, number, **match):
        self.fw.add(action, number=number, **match)
        self.walk.add(action, number=number, **match)

    def delete(self, number):
        self.fw.delete(number)
        self.walk.delete(number)

    def traffic(self):
        for src in LOCAL + REMOTE:
            for dst in LOCAL + REMOTE:
                if src is dst:
                    continue
                for direction in (DIR_OUT, DIR_IN):
                    packet = Packet(src, dst, PROTO_TCP, 64)
                    for _miss_then_hit in range(2):
                        v = self.fw.evaluate(packet, direction)
                        allowed, pipes, scanned, matched = self.walk.evaluate(packet, direction)
                        assert (v.allowed, v.scanned, v.matched) == (allowed, scanned, matched)
                        assert [p.name for p in v.pipes] == list(pipes)
                        self.seen.extend(p for p in pipes if p not in self.seen)
        self.check_counts()

    def check_counts(self):
        """What can be read without building a rule."""
        assert len(self.fw) == self.fw.stats()["rules"] == len(self.walk.rules)
        assert self.fw.packets_evaluated == self.walk.packets_evaluated
        assert self.fw.rules_scanned_total == self.walk.rules_scanned_total
        assert self.created == self.seen

    def check_listing(self):
        listing = [(r.number, r.action, r.src, r.dst, r.direction) for r in self.fw.rules]
        assert listing == [
            (r.number, r.action, r.src, r.dst, r.direction) for r in self.walk.rules
        ]
        assert [r.hits for r in self.fw] == self.walk.hits


@pytest.mark.parametrize("indexed", [False, True], ids=["linear", "indexed"])
def test_access_pairs_match_the_reference_walk(indexed):
    both = _Pair(indexed)
    both.add(ACTION_COUNT, 50)
    for i, addr in enumerate(LOCAL[:8]):
        both.access(addr, 1000 + 2 * i)
    # Rules that share a number with an unbuilt up rule and down rule.
    both.add(ACTION_COUNT, 1004, src=IPv4Network("10.1.0.0/24"))
    both.add(ACTION_ALLOW, 1004, src=LOCAL[2])  # after the pipe it ties
    both.add(ACTION_DENY, 1009, src=LOCAL[6])
    # A terminal rule between pairs that stay unbuilt until it matches.
    both.add(ACTION_ALLOW, 1013, dst=REMOTE[1])
    # A rule with no exact address, numbered below earlier ones.
    both.add(ACTION_DENY, 900, src=IPv4Network("10.9.0.0/16"))
    # A second factory run, then a pair sharing numbers with the first.
    both.access(LOCAL[8], 1016, tag="b")
    both.access(LOCAL[9], 1018, tag="b")
    both.access(LOCAL[10], 1001)
    both.traffic()
    both.delete(1003)  # the down half of LOCAL[1]'s pair
    both.access(LOCAL[11], 1020)
    both.traffic()
    both.check_listing()


def test_pairs_stay_unbuilt_until_needed_and_keep_their_handles():
    """White-box: evaluation builds only the packet's own pairs, a
    full-list read builds the rest, and the built rules are the ones
    later readers and later packets see."""
    both = _Pair(indexed=False)
    for i, addr in enumerate(LOCAL[:6]):
        both.access(addr, 1000 + 2 * i)
    both.add(ACTION_DENY, 2000)
    fw = both.fw
    v = fw.evaluate(Packet(LOCAL[0], LOCAL[1], PROTO_TCP, 64), DIR_OUT)
    assert v.scanned == 13 and not v.allowed
    assert sorted(fw._lazy) == [a.value for a in LOCAL[2:6]]
    up = fw.rules_for(src=LOCAL[0])[0]
    assert fw.rules_for(src=LOCAL[2])[0].number == 1004
    assert sorted(fw._lazy) == [a.value for a in LOCAL[3:6]]
    listed = fw.rules
    assert not fw._lazy and up in listed and len(listed) == len(fw) == 13
    fw.evaluate(Packet(LOCAL[0], LOCAL[4], PROTO_TCP, 64), DIR_OUT)
    assert up.hits == 2


def test_flush_drops_unbuilt_pairs():
    fw = Firewall()
    factory = lambda rule: None  # noqa: E731 - never called
    for i, addr in enumerate(LOCAL[:4]):
        fw.add_access_pair(addr, 1000 + 2 * i, factory, factory)
    assert len(fw) == 8
    fw.flush()
    assert len(fw) == 0 and fw.rules == []
    fw.add_access_pair(LOCAL[0], 1000, factory, factory)
    assert [r.number for r in fw] == [1000, 1001]


@pytest.mark.parametrize("indexed", [False, True], ids=["linear", "indexed"])
def test_deleting_from_unbuilt_pairs_matches_the_reference_walk(indexed):
    """``delete`` before any packet: the pair holding the number is
    built (one half deleted, one kept), the other pairs stay table
    entries, and verdicts, scan charges and the listing are the walk's."""
    both = _Pair(indexed)
    for i, addr in enumerate(LOCAL[:8]):
        both.access(addr, 1000 + 2 * i)
    both.add(ACTION_DENY, 1007, dst=REMOTE[0])
    both.delete(1002)  # the up half of LOCAL[1]'s pair
    both.delete(1007)  # the down half of LOCAL[3]'s, and the deny tied to it
    assert sorted(both.fw._lazy) == sorted(
        a.value for i, a in enumerate(LOCAL[:8]) if i not in (1, 3)
    )
    both.check_counts()
    both.traffic()
    both.check_listing()


def test_delete_builds_only_the_pair_that_holds_the_number():
    fw = Firewall()
    factory = lambda rule: None  # noqa: E731 - never called
    pairs = 10_000
    for i in range(pairs):
        fw.add_access_pair(IPv4Address((10 << 24) + i), 1000 + 2 * i, factory, factory)
    assert len(fw) == 2 * pairs and not fw._rules
    fw.delete(1000 + 2 * 4321)
    assert len(fw._lazy) == pairs - 1
    assert IPv4Address((10 << 24) + 4321).value not in fw._lazy
    assert len(fw) == 2 * pairs - 1
    # The kept half is built and filed; no other pair is.
    assert [(r.number, r.dst) for r in fw._rules] == [
        (1000 + 2 * 4321 + 1, IPv4Address((10 << 24) + 4321))
    ]
    assert not fw._by_src and list(fw._by_dst) == [(10 << 24) + 4321]
