"""Tests for the IPFW-style firewall."""

import pytest

from repro.errors import FirewallError
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import (
    ACTION_ALLOW,
    ACTION_COUNT,
    ACTION_DENY,
    ACTION_PIPE,
    DIR_IN,
    DIR_OUT,
    Firewall,
    Rule,
)
from repro.net.packet import Packet
from repro.net.pipe import DummynetPipe
from repro.sim import Simulator


def pkt(src="10.1.3.207", dst="10.2.2.117", proto="tcp"):
    return Packet(src=IPv4Address(src), dst=IPv4Address(dst), proto=proto, size=100)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fw():
    return Firewall()


def matches(rule, packet, direction):
    """The predicate the firewall runs for ``rule``."""
    return rule.matches(packet, direction)


class TestRuleMatching:
    def test_wildcard_rule_matches_anything(self):
        r = Rule(100, ACTION_ALLOW)
        assert matches(r, pkt(), DIR_OUT)
        assert matches(r, pkt(proto="udp"), DIR_IN)

    def test_src_network_match(self):
        r = Rule(100, ACTION_ALLOW, src=IPv4Network("10.1.0.0/16"))
        assert matches(r, pkt(src="10.1.3.207"), DIR_OUT)
        assert not matches(r, pkt(src="10.2.0.1"), DIR_OUT)

    def test_dst_exact_address_match(self):
        r = Rule(100, ACTION_ALLOW, dst=IPv4Address("10.2.2.117"))
        assert matches(r, pkt(dst="10.2.2.117"), DIR_OUT)
        assert not matches(r, pkt(dst="10.2.2.118"), DIR_OUT)

    def test_direction_match(self):
        r = Rule(100, ACTION_ALLOW, direction=DIR_OUT)
        assert matches(r, pkt(), DIR_OUT)
        assert not matches(r, pkt(), DIR_IN)

    def test_proto_match(self):
        r = Rule(100, ACTION_ALLOW, proto="udp")
        assert not matches(r, pkt(proto="tcp"), DIR_OUT)
        assert matches(r, pkt(proto="udp"), DIR_OUT)

    def test_pipe_action_requires_pipe(self):
        with pytest.raises(FirewallError):
            Rule(100, ACTION_PIPE)

    def test_non_pipe_action_rejects_pipe(self, sim):
        with pytest.raises(FirewallError):
            Rule(100, ACTION_ALLOW, pipe=DummynetPipe(sim))

    def test_unknown_action_rejected(self):
        with pytest.raises(FirewallError):
            Rule(100, "reject")

    def test_bad_direction_rejected(self):
        with pytest.raises(FirewallError):
            Rule(100, ACTION_ALLOW, direction="sideways")


class TestRuleList:
    def test_auto_numbering(self, fw):
        r1 = fw.add(ACTION_COUNT)
        r2 = fw.add(ACTION_COUNT)
        assert r2.number == r1.number + 100

    def test_explicit_numbers_order_evaluation(self, fw):
        fw.add(ACTION_DENY, number=200)
        fw.add(ACTION_ALLOW, number=100)
        v = fw.evaluate(pkt(), DIR_OUT)
        assert v.allowed
        assert v.scanned == 1  # allow at 100 terminates first

    def test_delete(self, fw):
        fw.add(ACTION_DENY, number=100)
        fw.delete(100)
        assert fw.evaluate(pkt(), DIR_OUT).allowed

    def test_delete_missing_raises(self, fw):
        with pytest.raises(FirewallError):
            fw.delete(12345)

    def test_flush(self, fw):
        fw.add(ACTION_DENY)
        fw.flush()
        assert len(fw) == 0
        assert fw.evaluate(pkt(), DIR_OUT).allowed

    def test_len_and_iter(self, fw):
        fw.add(ACTION_COUNT)
        fw.add(ACTION_COUNT)
        assert len(fw) == 2
        assert len(list(fw)) == 2


class TestPipeTable:
    def test_add_and_get(self, fw, sim):
        p = DummynetPipe(sim)
        fw.add_pipe(1, p)
        assert fw.pipe(1) is p

    def test_duplicate_pipe_id_rejected(self, fw, sim):
        fw.add_pipe(1, DummynetPipe(sim))
        with pytest.raises(FirewallError):
            fw.add_pipe(1, DummynetPipe(sim))

    def test_missing_pipe_raises(self, fw):
        with pytest.raises(FirewallError):
            fw.pipe(9)

    def test_rule_by_pipe_id(self, fw, sim):
        p = fw.add_pipe(7, DummynetPipe(sim))
        rule = fw.add(ACTION_PIPE, pipe=7)
        assert rule.pipe is p


class TestEvaluation:
    def test_default_allow(self, fw):
        v = fw.evaluate(pkt(), DIR_OUT)
        assert v.allowed and v.pipes == () and v.scanned == 0

    def test_deny_terminates(self, fw):
        fw.add(ACTION_DENY, src=IPv4Network("10.1.0.0/16"))
        fw.add(ACTION_COUNT)
        v = fw.evaluate(pkt(src="10.1.0.5"), DIR_OUT)
        assert not v.allowed
        assert v.scanned == 1

    def test_pipe_rules_fall_through_and_collect(self, fw, sim):
        """one_pass=0: a packet can match several pipe rules in order."""
        up = fw.add_pipe(1, DummynetPipe(sim, name="up"))
        group = fw.add_pipe(2, DummynetPipe(sim, name="group"))
        fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.1.3.207"), direction=DIR_OUT)
        fw.add(
            ACTION_PIPE,
            pipe=2,
            src=IPv4Network("10.1.0.0/16"),
            dst=IPv4Network("10.2.0.0/16"),
            direction=DIR_OUT,
        )
        v = fw.evaluate(pkt(), DIR_OUT)
        assert v.allowed
        assert v.pipes == (up, group)
        assert v.scanned == 2

    def test_allow_short_circuits_later_pipes(self, fw, sim):
        fw.add_pipe(1, DummynetPipe(sim))
        fw.add(ACTION_ALLOW, number=100)
        fw.add(ACTION_PIPE, pipe=1, number=200)
        v = fw.evaluate(pkt(), DIR_OUT)
        assert v.pipes == ()
        assert v.scanned == 1

    def test_count_rules_fall_through(self, fw):
        r = fw.add(ACTION_COUNT)
        fw.evaluate(pkt(), DIR_OUT)
        fw.evaluate(pkt(), DIR_OUT)
        assert r.hits == 2

    def test_scanned_counts_non_matching_rules(self, fw):
        for _ in range(10):
            fw.add(ACTION_COUNT, src=IPv4Network("192.168.0.0/16"))
        v = fw.evaluate(pkt(), DIR_OUT)
        assert v.scanned == 10

    def test_linear_scan_is_observable(self, fw):
        """The paper's Figure 6 premise: cost grows with the rule count."""
        for _ in range(1000):
            fw.add(ACTION_COUNT, src=IPv4Network("192.168.0.0/16"))
        fw.evaluate(pkt(), DIR_OUT)
        assert fw.rules_scanned_total == 1000
        fw.evaluate(pkt(), DIR_OUT)
        assert fw.rules_scanned_total == 2000

    def test_stats(self, fw):
        fw.add(ACTION_COUNT)
        fw.evaluate(pkt(), DIR_OUT)
        s = fw.stats()
        assert s["rules"] == 1
        assert s["packets_evaluated"] == 1
        assert s["rules_scanned_total"] == 1
