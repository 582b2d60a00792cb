"""Reference rule walk: IPFW evaluation as a linear first-match scan.

What :class:`repro.net.ipfw.Firewall` must be indistinguishable from:
every packet walks the rule list in number order and tests every field
of every rule — no address index, no compiled match closures, no flow
cache. ``count`` and ``pipe`` rules fall through (``one_pass=0``),
``allow``/``deny`` end the walk, the default policy is allow.

The emulated charge follows the firewall's two cost models:
``indexed=False`` charges the rules a linear walk traverses (the whole
list unless a terminal rule matched); ``indexed=True`` charges two hash
probes plus the rules a hash index would hand over — those filed under
the packet's exact source, those filed under its exact destination,
and every rule with neither — up to the terminal one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.net.addr import IPv4Address, IPv4Network


class _Rule:
    __slots__ = ("number", "action", "pipe", "proto", "src", "dst", "direction", "hits")

    def __init__(self, number, action, pipe, proto, src, dst, direction) -> None:
        self.number = number
        self.action = action
        self.pipe = pipe
        self.proto = proto
        self.src = src
        self.dst = dst
        self.direction = direction
        self.hits = 0


def _addr_matches(matcher, value: int) -> bool:
    if matcher is None:
        return True
    if isinstance(matcher, IPv4Network):
        return matcher.contains_value(value)
    return matcher.value == value


def _exact(matcher) -> bool:
    return isinstance(matcher, IPv4Address)


class RuleWalk:
    """An ordered rule list, evaluated by walking all of it."""

    def __init__(self, indexed: bool = False) -> None:
        self.indexed = indexed
        self.rules: List[_Rule] = []
        self.packets_evaluated = 0
        self.rules_scanned_total = 0
        self._next_number = 100

    def add(self, action: str, number: Optional[int] = None, pipe=None,
            proto: Optional[str] = None, src=None, dst=None,
            direction: Optional[str] = None) -> int:
        """Insert a rule after every rule with a number <= its own
        (auto-numbered in steps of 100); returns its number."""
        if number is None:
            number = self._next_number
        self._next_number = max(self._next_number, number + 100)
        at = bisect_right([r.number for r in self.rules], number)
        self.rules.insert(at, _Rule(number, action, pipe, proto, src, dst, direction))
        return number

    def delete(self, number: int) -> None:
        """Remove every rule numbered ``number``."""
        self.rules = [r for r in self.rules if r.number != number]

    @property
    def hits(self) -> List[int]:
        """Per-rule hit counts, in rule order."""
        return [r.hits for r in self.rules]

    def evaluate(self, packet, direction: str) -> Tuple[bool, tuple, int, tuple]:
        """``(allowed, pipes, scanned, matched)`` for one packet."""
        src, dst = packet.src.value, packet.dst.value
        allowed = True
        pipes, matched = [], []
        scanned = len(self.rules)
        examined = 0
        for position, rule in enumerate(self.rules):
            if _exact(rule.src):
                filed_here = rule.src.value == src
            elif _exact(rule.dst):
                filed_here = rule.dst.value == dst
            else:
                filed_here = True
            examined += filed_here
            if rule.direction is not None and rule.direction != direction:
                continue
            if rule.proto is not None and rule.proto != packet.proto:
                continue
            if not (_addr_matches(rule.src, src) and _addr_matches(rule.dst, dst)):
                continue
            rule.hits += 1
            matched.append(rule.number)
            if rule.action == "pipe":
                pipes.append(rule.pipe)
            elif rule.action in ("allow", "deny"):
                allowed = rule.action == "allow"
                scanned = position + 1
                break
        if self.indexed:
            scanned = 2 + examined
        self.packets_evaluated += 1
        self.rules_scanned_total += scanned
        return allowed, tuple(pipes), scanned, tuple(matched)
