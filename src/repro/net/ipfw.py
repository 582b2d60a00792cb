"""IPFW-style firewall with linear rule evaluation.

P2PLab configures Dummynet through FreeBSD's firewall: two ``pipe``
rules per hosted virtual node plus one delay rule per inter-group pair
(paper, "Network Emulation"). The paper stresses that IPFW evaluates
rules *linearly* — "it is not possible to evaluate the rules in a
hierarchical way, or with a hash table" — which makes the rule count
the main scalability limit (Figure 6). This module therefore keeps the
linear scan observable: every evaluation reports how many rules were
scanned, and the owning stack converts that into processing latency.

Pipe-rule semantics follow ``net.inet.ip.fw.one_pass=0``: after a
packet traverses a matching pipe it re-enters the firewall at the next
rule, so one packet can be shaped by several pipes (per-node access
link, then inter-group delay). With a single linear scan that collects
every matching pipe, the number of rules scanned equals the index where
evaluation terminates — identical to the re-injection accounting.

Hot path: a **verdict flow cache** memoises a packet's verdict per
``(src, dst, proto, direction)`` — the discrete-event analogue of
ipfw's dynamic/``check-state`` rules. Rules match on exactly those four
fields, so they fully determine the verdict for a given rule list;
steady BitTorrent flows pay the linear scan once and O(1) afterwards.
The key is one int, ``src * _FLOW_STRIDE ^ dst``, in a table per
direction and protocol string. A cache *hit replays* the original verdict's full
accounting (``scanned`` charge, per-rule ``hits`` from the rules the
verdict holds, registry counters), so emulated latency, metrics
snapshots and fig6's linear-vs-indexed comparison are byte-identical
to an uncached walk — only wall clock changes;
``tests/reference/rule_walk.py`` is that walk, and the tests compare
against it. The registry counters are fed from this object's plain
slots at read time (:meth:`repro.obs.metrics.MetricsRegistry.feed`),
so no instrument is called per packet. Flows that matched the same
rules point at one shared verdict object, so a cached flow costs its
int key and a dict slot, plus a verdict of its own only when no other
flow matched the same rules. The cache is invalidated by every mutating
operation (``add``/``add_access_pair``/``delete``/``flush``/``add_pipe``)
and by flipping ``indexed``.

Per-vnode access pairs (:meth:`Firewall.add_access_pair`) are recorded
as one table entry, ``addr.value -> up-rule number``; their two
:class:`Rule` objects are built the first time something needs them —
an evaluation that meets the pair as a candidate, or a reader of the
full list — and are the same objects from then on. Like the lazy pipes
below them, the deferral is observationally invisible: verdicts, hit
counts, scan charges, ``len`` and the ``rules`` listing are those of a
firewall that built every rule up front.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import FirewallError
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.packet import Packet
from repro.net.pipe import DummynetPipe
from repro.obs.metrics import NULL_REGISTRY

#: Rule actions.
ACTION_PIPE = "pipe"
ACTION_ALLOW = "allow"
ACTION_DENY = "deny"
ACTION_COUNT = "count"

DIR_IN = "in"
DIR_OUT = "out"

AddrMatch = Union[IPv4Address, IPv4Network, None]


class Rule:
    """One firewall rule, ordered by its rule number."""

    __slots__ = (
        "number", "action", "pipe", "proto", "src", "dst", "direction", "hits",
        "pipe_factory", "order",
    )

    def __init__(
        self,
        number: int,
        action: str,
        pipe: Optional[DummynetPipe] = None,
        proto: Optional[str] = None,
        src: AddrMatch = None,
        dst: AddrMatch = None,
        direction: Optional[str] = None,
        pipe_factory: Optional[Callable[["Rule"], DummynetPipe]] = None,
    ) -> None:
        if action not in (ACTION_PIPE, ACTION_ALLOW, ACTION_DENY, ACTION_COUNT):
            raise FirewallError(f"unknown action {action!r}")
        if action == ACTION_PIPE and pipe is None and pipe_factory is None:
            raise FirewallError("pipe action needs a pipe (or a pipe_factory)")
        if action != ACTION_PIPE and (pipe is not None or pipe_factory is not None):
            raise FirewallError(f"{action!r} action cannot carry a pipe")
        if direction not in (None, DIR_IN, DIR_OUT):
            raise FirewallError(f"bad direction {direction!r}")
        self.number = number
        self.action = action
        self.pipe = pipe
        #: Lazy-pipe seam: when ``pipe`` is None, called (once) with the
        #: rule at the first matching packet; the returned pipe is
        #: stored back into ``pipe``. Idle vnodes never pay for their
        #: Dummynet state (see topology/compiler.py).
        self.pipe_factory = pipe_factory
        self.proto = proto
        self.src = src
        self.dst = dst
        self.direction = direction
        self.hits = 0
        #: List-order key, set when a firewall installs the rule: the
        #: rule number, or, for a rule installed after others with the
        #: same number, a float just above theirs. Rules sort by
        #: number, then insertion order, and the common key is the
        #: number's own small int.
        self.order = number

    def __lt__(self, other: "Rule") -> bool:
        return self.number < other.number

    def matches(self, packet: Packet, direction: str) -> bool:
        """Whether this rule matches ``packet`` travelling ``direction``.

        Every field the rule sets (direction, protocol, source and
        destination, each an exact address or a network) must agree; an
        unset field matches anything. One predicate serves every rule
        and reads only the rule's own slots, so a rule carries no
        compiled matcher of its own.
        """
        rdir = self.direction
        if rdir is not None and rdir != direction:
            return False
        proto = self.proto
        if proto is not None and proto != packet.proto:
            return False
        src = self.src
        if src is not None:
            if type(src) is IPv4Address:
                if packet.src.value != src.value:
                    return False
            elif type(src) is IPv4Network:
                if (packet.src.value & src.mask) != src.address.value:
                    return False
        dst = self.dst
        if dst is not None:
            if type(dst) is IPv4Address:
                if packet.dst.value != dst.value:
                    return False
            elif type(dst) is IPv4Network:
                if (packet.dst.value & dst.mask) != dst.address.value:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{self.number:05d}", self.action]
        if self.pipe is not None:
            parts.append(self.pipe.name)
        if self.proto:
            parts.append(self.proto)
        parts.append(f"from {self.src if self.src is not None else 'any'}")
        parts.append(f"to {self.dst if self.dst is not None else 'any'}")
        if self.direction:
            parts.append(self.direction)
        return "Rule(" + " ".join(parts) + ")"


_ORDER = attrgetter("order")
#: A flow's cache key is ``src * _FLOW_STRIDE ^ dst``. The stride is
#: above 2**32, so each source owns its own 2**32-aligned block of keys
#: and the XOR with a 32-bit ``dst`` stays in it: the key is one-to-one.
#: The odd part above 2**32 spreads the flows that share a destination
#: over the table's low bits, which ``src << 32 | dst`` would leave
#: equal (a dict probes by the low bits of an int's hash, the int
#: itself). A 10/8 source makes a key below 2**60, which the XOR keeps
#: a 32-byte int (an add would allocate a third digit).
_FLOW_STRIDE = (1 << 32) + 0x61C88647
#: Gap between the order keys of rules that share a number: exact in a
#: float for numbers below 2**32 and up to 2**20 rules per number.
_TIE_STEP = 2.0 ** -20


class Verdict:
    """Result of evaluating one packet against the rule list.

    ``rules`` holds the :class:`Rule` objects that matched, in
    evaluation order: a cache hit replays their ``hits`` from it, and
    everything else a verdict reports follows from it. ``matched`` is
    their numbers — what ``ipfw show`` hit counters would attribute this
    packet to, and what the flight recorder reports per hop — and
    ``pipes`` the pipes of the ``pipe`` rules among them; both are
    derived on read (chain compilation, the flight recorder and the
    fluid engine read them, not the per-packet path).

    ``to_switch`` / ``to_host`` / ``to_local`` belong to the owning
    :class:`~repro.net.stack.NetworkStack`: the entry point of the hop
    chain it compiled over ``pipes`` for each of its three
    continuations, ``None`` until a packet first needs it. They live on
    the verdict so that whatever drops a verdict drops its chains.
    """

    __slots__ = ("allowed", "scanned", "rules", "to_switch", "to_host", "to_local")

    def __init__(self, allowed: bool, scanned: int, rules: Tuple[Rule, ...]) -> None:
        self.allowed = allowed
        self.scanned = scanned
        self.rules = rules
        self.to_switch = self.to_host = self.to_local = None

    @property
    def pipes(self) -> Tuple[DummynetPipe, ...]:
        # A matched pipe rule's pipe was materialised by the evaluation
        # that matched it, and is never replaced.
        return tuple(rule.pipe for rule in self.rules if rule.action == ACTION_PIPE)

    @property
    def matched(self) -> Tuple[int, ...]:
        return tuple(rule.number for rule in self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Verdict(allowed={self.allowed}, pipes={len(self.pipes)}, "
            f"scanned={self.scanned}, matched={self.matched})"
        )


class Firewall:
    """Ordered rule list with linear evaluation plus a pipe table.

    Implementation note: the *emulated* cost model is the linear scan
    (``Verdict.scanned`` reports exactly what IPFW's walk over the full
    list would cost), but the Python implementation shortcuts the walk
    with hash indexes over exact-address rules — the typical P2PLab
    list is thousands of per-vnode rules of which a given packet can
    match at most a handful. The shortcut is observationally
    equivalent: non-matching rules only ever contribute scan count.

    Access pairs not yet built live in a compact table instead of the
    indexes (see :meth:`add_access_pair`). No unbuilt rule shares its
    number with any other rule, so a terminal rule's linear position is
    its index among the built rules plus a bisect over the unbuilt
    numbers.
    """

    def __init__(
        self,
        name: str = "ipfw",
        metrics=None,
        indexed: bool = False,
    ) -> None:
        # Verdict flow cache: ``direction -> proto -> {src *
        # _FLOW_STRIDE ^ dst: Verdict}``, one int-keyed table per
        # direction and protocol string seen. Rules match on exactly those four packet fields,
        # so they fully determine the verdict for a fixed rule list; a
        # hit replays the original accounting bit-for-bit (see module
        # docstring). Initialised first because the ``indexed``
        # property setter flushes it.
        self._flows: Dict[str, Dict[str, Dict[int, Verdict]]] = {}
        # Flows that matched the same rules share one verdict: keyed by
        # ``(matched Rule objects, scanned)`` — rules hash by identity
        # and fix ``allowed``; ``scanned`` stays in the key because
        # under ``indexed=True`` it counts the candidates examined, not
        # only the rules that matched. Thousands of flows on a pnode
        # reduce to a handful of rule sets, so a flow costs its key and
        # a dict slot. Emptied together with the flow cache
        # (:meth:`_invalidate`).
        self._verdicts: Dict[Tuple[Tuple[Rule, ...], int], Verdict] = {}
        #: Monotone counter bumped whenever a cached verdict could go
        #: stale (rule add/delete/flush, pipe table change, cost-model
        #: flip). The fluid flow engine (net/fluid.py) snapshots it per
        #: resolved path and re-probes when it moves.
        self.generation = 0
        #: Wall-clock performance counters for the cache itself (the
        #: registry twins are ``wall=True`` so they are excluded from
        #: deterministic snapshots — the cache is a wall-time
        #: optimisation, not an emulation observable).
        self.flow_cache_hits = 0
        self.flow_cache_misses = 0
        #: Cost model selector. ``indexed=False`` (IPFW reality) charges
        #: the full linear walk; ``indexed=True`` charges two hash
        #: probes plus the candidate rules examined — the counterfactual
        #: firewall the paper says IPFW cannot be ("it is not possible
        #: to evaluate the rules ... with a hash table"). Verdicts are
        #: identical either way; only the emulated latency differs. The
        #: flag may be flipped at runtime (e.g. fig6's two-path report);
        #: flipping it flushes the flow cache (``scanned`` differs).
        self._indexed = indexed
        self.name = name
        #: Built rules, in insertion order until :meth:`_ensure_sorted`.
        self._rules: List[Rule] = []
        self._pipes: dict[int, DummynetPipe] = {}
        self._next_number = 100
        #: Highest rule number installed since the last flush.
        self._top: Optional[int] = None
        self.packets_evaluated = 0
        self.rules_scanned_total = 0
        # Shared observability instruments (aggregated across every
        # firewall of the testbed; see repro.obs). The per-packet ones
        # are summed from the slots above whenever the registry is read.
        registry = metrics if metrics is not None else NULL_REGISTRY
        registry.feed(
            self,
            packets_evaluated=registry.counter("net.ipfw.packets_evaluated"),
            rules_scanned_total=registry.counter("net.ipfw.rules_scanned_total"),
            flow_cache_hits=registry.counter("net.ipfw.flow_cache_hits", wall=True),
            flow_cache_misses=registry.counter("net.ipfw.flow_cache_misses", wall=True),
        )
        self._m_denied = registry.counter("net.ipfw.packets_denied")
        self._m_rules = registry.gauge("net.ipfw.rules")
        # Evaluation shortcut indexes (see class docstring).
        # Bucket values are a bare Rule (the overwhelmingly common
        # case: one up rule per source address, one down rule per
        # destination address) or a list once a second rule lands on
        # the same address — a table of built access pairs would
        # otherwise spend a 56-byte list per bucket to hold one element.
        self._by_src: dict[int, Union[Rule, List[Rule]]] = {}
        self._by_dst: dict[int, Union[Rule, List[Rule]]] = {}
        #: Rules with no exact address, kept in list order.
        self._generic: List[Rule] = []
        #: Unbuilt access pairs: ``addr.value -> up-rule number`` (the
        #: down rule is ``number + 1``), those numbers sorted, and the
        #: factory pair of each run of consecutive numbers — run ``i``
        #: covers ``[_run_starts[i], _run_starts[i + 1])``.
        self._lazy: Dict[int, int] = {}
        self._lazy_numbers: List[int] = []
        self._run_starts: List[int] = []
        self._run_factories: List[Tuple[Callable, Callable]] = []
        #: Rules are appended, not insorted: topology compilation emits
        #: them in increasing number order, so the list is almost
        #: always already sorted and a deferred ``list.sort`` (timsort,
        #: O(n) on sorted input) beats n insorts. Set whenever an
        #: out-of-order number arrives; resolved by
        #: :meth:`_ensure_sorted` before any order-sensitive read.
        self._needs_sort = False

    # -- cost model ----------------------------------------------------
    @property
    def indexed(self) -> bool:
        return self._indexed

    @indexed.setter
    def indexed(self, value: bool) -> None:
        if value != self._indexed:
            self._indexed = value
            self._invalidate()

    def _invalidate(self) -> None:
        """Every cached verdict may be stale: drop them all (and with
        them the hop chains the stack compiled over their pipes)."""
        if self._flows:
            self._flows.clear()
            self._verdicts.clear()
        self.generation += 1

    # -- pipe table ----------------------------------------------------
    def add_pipe(self, pipe_id: int, pipe: DummynetPipe) -> DummynetPipe:
        """Register a pipe under an id (``ipfw pipe N config``)."""
        if pipe_id in self._pipes:
            raise FirewallError(f"pipe {pipe_id} already configured")
        self._pipes[pipe_id] = pipe
        self._invalidate()
        return pipe

    def register_lazy_pipe(self, pipe_id: int, pipe: DummynetPipe) -> DummynetPipe:
        """Record a pipe materialised mid-evaluation by a rule's
        ``pipe_factory``.

        Unlike :meth:`add_pipe` this neither flushes the flow cache nor
        bumps ``generation``: no cached verdict (and no fluid-flow
        resolved path) can reference a pipe that did not exist yet —
        materialisation happens *during* the very evaluation that would
        first cache it — so invalidating here would only force spurious
        re-probes that an eagerly built pipe table would never see.
        """
        if pipe_id in self._pipes:
            raise FirewallError(f"pipe {pipe_id} already configured")
        self._pipes[pipe_id] = pipe
        return pipe

    def pipe(self, pipe_id: int) -> DummynetPipe:
        try:
            return self._pipes[pipe_id]
        except KeyError:
            raise FirewallError(f"no pipe {pipe_id}") from None

    @property
    def pipes(self) -> dict[int, DummynetPipe]:
        return dict(self._pipes)

    # -- rule list -----------------------------------------------------
    def add(
        self,
        action: str,
        number: Optional[int] = None,
        pipe: Union[DummynetPipe, int, None] = None,
        proto: Optional[str] = None,
        src: AddrMatch = None,
        dst: AddrMatch = None,
        direction: Optional[str] = None,
        pipe_factory: Optional[Callable[[Rule], DummynetPipe]] = None,
    ) -> Rule:
        """Append a rule (auto-numbered in steps of 100 if ``number`` is None)."""
        if number is None:
            number = self._next_number
        if isinstance(pipe, int):
            pipe = self.pipe(pipe)
        rule = Rule(
            number, action, pipe=pipe, proto=proto, src=src, dst=dst,
            direction=direction, pipe_factory=pipe_factory,
        )
        if self._top is None or number > self._top:
            self._top = number
            self._install(rule, number)
        else:
            # An unbuilt rule with this number was installed first:
            # build its pair now, so that it keeps its place ahead.
            self._build_lazy_at(number)
            self._install(rule, self._order_after(number))
        self._invalidate()
        self._m_rules.inc()
        if number >= self._next_number:
            self._next_number = number + 100
        return rule

    def add_access_pair(
        self,
        addr: IPv4Address,
        number: int,
        up_factory: Callable[[Rule], DummynetPipe],
        down_factory: Callable[[Rule], DummynetPipe],
    ) -> None:
        """Install the canonical per-vnode access-rule pair in one call.

        Semantically identical to two :meth:`add` calls — ``pipe from
        addr out`` at ``number``, ``pipe to addr in`` at ``number + 1``,
        each pipe built by its factory at the first matching packet —
        but the pair costs one table entry until something needs its
        rules: an evaluation meeting it as a candidate, a reader of the
        full list (``rules``, iteration), or a call that names the pair
        (``rules_for`` its address, ``delete`` one of its numbers).
        This is the streaming topology compiler's hot loop, and most
        vnodes of a large topology never see a packet on their host.

        A pair that would share a number with an installed rule, or an
        address with another unbuilt pair, is built at once instead.
        """
        value = addr.value
        top = self._top
        if (top is not None and number <= top) or value in self._lazy:
            # Unbuilt rules it would tie were installed first: build
            # them first, so that they keep their place ahead.
            self._build_lazy_at(number)
            self._build_lazy_at(number + 1)
            self._build_pair(addr, number, up_factory, down_factory, tied=True)
        else:
            self._lazy[value] = number
            # ``number`` is above every installed number: the list
            # stays sorted.
            self._lazy_numbers.append(number)
            runs = self._run_factories
            if not runs or runs[-1][0] is not up_factory or runs[-1][1] is not down_factory:
                self._run_starts.append(number)
                runs.append((up_factory, down_factory))
        if top is None or number + 1 > top:
            self._top = number + 1
        self._invalidate()
        self._m_rules.inc(2)
        if number + 1 >= self._next_number:
            self._next_number = number + 101

    def _build_pair(
        self,
        addr: IPv4Address,
        number: int,
        up_factory: Callable[[Rule], DummynetPipe],
        down_factory: Callable[[Rule], DummynetPipe],
        tied: bool = False,
    ) -> None:
        """Build and index an access pair's two rules, with direct slot
        stores instead of the validating constructor (the pair's shapes
        are fixed). ``tied``: other rules may share their numbers (an
        unbuilt pair's never do)."""
        up = Rule.__new__(Rule)
        up.number = number
        up.action = ACTION_PIPE
        up.pipe = None
        up.pipe_factory = up_factory
        up.proto = None
        up.src = addr
        up.dst = None
        up.direction = DIR_OUT
        up.hits = 0
        down = Rule.__new__(Rule)
        down.number = number + 1
        down.action = ACTION_PIPE
        down.pipe = None
        down.pipe_factory = down_factory
        down.proto = None
        down.src = None
        down.dst = addr
        down.direction = DIR_IN
        down.hits = 0
        if tied:
            self._install(up, self._order_after(number))
            self._install(down, self._order_after(number + 1))
        else:
            self._install(up, number)
            self._install(down, number + 1)

    def _build_lazy(self, value: int) -> None:
        """Build the unbuilt pair of address ``value``. Not an
        invalidation: no cached verdict can hold a rule that did not
        exist (compare :meth:`register_lazy_pipe`)."""
        number = self._lazy.pop(value)
        numbers = self._lazy_numbers
        del numbers[bisect_left(numbers, number)]
        up_f, down_f = self._run_factories[bisect_right(self._run_starts, number) - 1]
        self._build_pair(IPv4Address.from_value(value), number, up_f, down_f)

    def _build_lazy_at(self, number: int) -> None:
        """Build the unbuilt pair with a rule numbered ``number``, if any."""
        numbers = self._lazy_numbers
        i = bisect_left(numbers, number - 1)
        if i < len(numbers) and numbers[i] <= number:
            up = numbers[i]
            self._build_lazy(next(v for v, n in self._lazy.items() if n == up))

    def _build_all(self) -> None:
        """Build every unbuilt pair (a reader of the full list)."""
        lazy = self._lazy
        if not lazy:
            return
        starts, runs = self._run_starts, self._run_factories
        for value, number in lazy.items():
            up_f, down_f = runs[bisect_right(starts, number) - 1]
            self._build_pair(IPv4Address.from_value(value), number, up_f, down_f)
        lazy.clear()
        self._lazy_numbers.clear()
        starts.clear()
        runs.clear()

    def _order_after(self, number: int) -> Union[int, float]:
        """The order key of a new rule numbered ``number``: the number,
        or just above the last built rule with that number."""
        self._ensure_sorted()
        rules = self._rules
        i = bisect_left(rules, number + 1, key=_ORDER)
        if not i or rules[i - 1].number != number:
            return number
        last = rules[i - 1].order
        order = last + _TIE_STEP
        if not last < order < number + 1:
            raise FirewallError(f"too many rules numbered {number}")
        return order

    def _install(self, rule: Rule, order: Union[int, float]) -> None:
        """Append a built rule to the list and file it in an index."""
        rule.order = order
        rules = self._rules
        if rules and order < rules[-1].order:
            self._needs_sort = True
        rules.append(rule)
        if type(rule.src) is IPv4Address:
            self._bucket_insert(self._by_src, rule.src.value, rule)
        elif type(rule.dst) is IPv4Address:
            self._bucket_insert(self._by_dst, rule.dst.value, rule)
        else:
            generic = self._generic
            if generic and order < generic[-1].order:
                insort(generic, rule, key=_ORDER)
            else:
                generic.append(rule)

    @staticmethod
    def _bucket_insert(table: dict, value: int, rule: Rule) -> None:
        existing = table.get(value)
        if existing is None:
            table[value] = rule
        elif type(existing) is list:
            existing.append(rule)
        else:
            table[value] = [existing, rule]

    def _ensure_sorted(self) -> None:
        if self._needs_sort:
            self._rules.sort(key=_ORDER)
            self._needs_sort = False

    def delete(self, number: int) -> None:
        """Delete all rules with the given number.

        Deleted rules have their ``hits`` counters reset: a removed
        rule that is later re-referenced (callers sometimes keep the
        :class:`Rule` handle) must not carry stale accounting, matching
        ``ipfw delete`` which discards the kernel counter with the rule.
        """
        # Only the unbuilt pair holding ``number`` (at most one: pairs
        # never share numbers) has to become rules; the others stay
        # table entries.
        self._build_lazy_at(number)
        removed = [r for r in self._rules if r.number == number]
        if not removed:
            raise FirewallError(f"no rule numbered {number}")
        self._rules = [r for r in self._rules if r.number != number]
        self._m_rules.dec(len(removed))
        generic = False
        for rule in removed:
            rule.hits = 0
            # Re-file the bucket the rule was filed in (see _install).
            if type(rule.src) is IPv4Address:
                self._bucket_remove(self._by_src, rule.src.value, number)
            elif type(rule.dst) is IPv4Address:
                self._bucket_remove(self._by_dst, rule.dst.value, number)
            else:
                generic = True
        if generic:
            self._generic = [r for r in self._generic if r.number != number]
        self._invalidate()

    @staticmethod
    def _bucket_remove(table: dict, value: int, number: int) -> None:
        """Drop the rules numbered ``number`` from one index bucket."""
        bucket = table.get(value)
        if bucket is None:
            return  # already re-filed for an earlier removed rule
        kept = [
            r
            for r in (bucket if type(bucket) is list else (bucket,))
            if r.number != number
        ]
        if not kept:
            del table[value]
        elif len(kept) == 1:
            table[value] = kept[0]
        else:
            table[value] = kept

    def flush(self) -> None:
        self._m_rules.dec(len(self))
        for rule in self._rules:
            rule.hits = 0
        self._rules.clear()
        self._by_src.clear()
        self._by_dst.clear()
        self._generic.clear()
        self._lazy.clear()
        self._lazy_numbers.clear()
        self._run_starts.clear()
        self._run_factories.clear()
        self._next_number = 100
        self._top = None
        self._needs_sort = False
        self._invalidate()

    @property
    def rules(self) -> List[Rule]:
        self._build_all()
        self._ensure_sorted()
        return list(self._rules)

    def rules_for(
        self, src: Optional[IPv4Address] = None, dst: Optional[IPv4Address] = None
    ) -> List[Rule]:
        """Rules filed under an exact source or destination address
        (the evaluation shortcut buckets) — the control plane's lookup
        for per-vnode rules without a full-list scan."""
        if src is not None:
            value = src.value
            table = self._by_src
        elif dst is not None:
            value = dst.value
            table = self._by_dst
        else:
            return list(self._generic)
        if value in self._lazy:
            self._build_lazy(value)
        bucket = table.get(value)
        if bucket is None:
            return []
        return list(bucket) if type(bucket) is list else [bucket]

    def materialize(self, rule: Rule) -> DummynetPipe:
        """Force a lazy rule's pipe into existence.

        Control-plane entry point (runtime reconfiguration of a pipe
        no packet has matched yet); the data path materialises inline
        in :meth:`evaluate`. Idempotent — an existing pipe is returned
        as-is.
        """
        pipe = rule.pipe
        if pipe is None:
            if rule.pipe_factory is None:
                raise FirewallError(f"rule {rule.number} has no pipe")
            pipe = rule.pipe = rule.pipe_factory(rule)
        return pipe

    def __len__(self) -> int:
        return len(self._rules) + 2 * len(self._lazy)

    # -- evaluation ----------------------------------------------------
    def _position(self, rule: Rule) -> int:
        """``rule``'s index in the full list, unbuilt pairs included."""
        self._ensure_sorted()
        # Unbuilt rules before ``number``: up rules below it, and down
        # rules (``up + 1``) below it. None has ``number`` itself.
        number = rule.number
        numbers = self._lazy_numbers
        return (
            bisect_left(self._rules, rule.order, key=_ORDER)
            + bisect_left(numbers, number)
            + bisect_left(numbers, number - 1)
        )

    def evaluate(self, packet: Packet, direction: str) -> Verdict:
        """Evaluate ``packet`` with linear-scan semantics.

        ``count`` rules increment their counter and fall through;
        ``pipe`` rules enqueue the packet and fall through (one_pass=0);
        ``allow``/``deny`` terminate. Default policy is allow.
        ``Verdict.scanned`` is the number of rules a linear walk would
        have traversed (full list unless a terminal rule matched) —
        or, with ``indexed=True``, two hash probes plus the candidate
        rules actually examined.
        """
        src = packet.src.value
        dst = packet.dst.value
        try:
            verdict = self._flows[direction][packet.proto][src * _FLOW_STRIDE ^ dst]
        except KeyError:
            pass  # a miss: walk the candidates below
        else:
            # Replay the original verdict's accounting bit-for-bit:
            # same ``scanned`` charge (hence same emulated latency),
            # same per-rule ``hits``, same counters. Only the
            # wall-clock linear walk is skipped.
            for rule in verdict.rules:
                rule.hits += 1
            self.packets_evaluated += 1
            self.rules_scanned_total += verdict.scanned
            if not verdict.allowed:
                self._m_denied.inc()
            self.flow_cache_hits += 1
            return verdict
        lazy = self._lazy
        if lazy:
            # The packet's own pairs are candidates: build them.
            if src in lazy:
                self._build_lazy(src)
            if dst in lazy:
                self._build_lazy(dst)
        candidates: List[Rule] = []
        bucket = self._by_src.get(src)
        if bucket is not None:
            if type(bucket) is list:
                candidates.extend(bucket)
            else:
                candidates.append(bucket)
        bucket = self._by_dst.get(dst)
        if bucket is not None:
            if type(bucket) is list:
                candidates.extend(bucket)
            else:
                candidates.append(bucket)
        if not candidates:
            candidates = self._generic
        else:
            if self._generic:
                candidates.extend(self._generic)
            if len(candidates) > 1:
                candidates.sort(key=_ORDER)

        indexed = self.indexed
        matched: List[Rule] = []
        allowed = True
        examined = 0
        scanned = 0 if indexed else len(self._rules) + 2 * len(lazy)
        for rule in candidates:
            examined += 1
            if not rule.matches(packet, direction):
                continue
            rule.hits += 1
            matched.append(rule)
            action = rule.action
            if action == ACTION_PIPE:
                if rule.pipe is None:
                    rule.pipe = rule.pipe_factory(rule)  # type: ignore[misc]
            elif action == ACTION_ALLOW:
                if not indexed:
                    scanned = self._position(rule) + 1
                break
            elif action == ACTION_DENY:
                allowed = False
                if not indexed:
                    scanned = self._position(rule) + 1
                break
            # ACTION_COUNT falls through.
        if indexed:
            # Two hash probes, then only the candidates examined — the
            # cost a hash-indexed IPFW would pay.
            scanned = 2 + examined
        self.packets_evaluated += 1
        self.rules_scanned_total += scanned
        if not allowed:
            self._m_denied.inc()
        rules = tuple(matched)
        shared = (rules, scanned)
        verdict = self._verdicts.get(shared)
        if verdict is None:
            verdict = self._verdicts[shared] = Verdict(allowed, scanned, rules)
        flows = self._flows.setdefault(direction, {}).setdefault(packet.proto, {})
        flows[src * _FLOW_STRIDE ^ dst] = verdict
        self.flow_cache_misses += 1
        return verdict

    def stats(self) -> dict:
        return {
            "rules": len(self),
            "pipes": len(self._pipes),
            "packets_evaluated": self.packets_evaluated,
            "rules_scanned_total": self.rules_scanned_total,
            "flow_cache_entries": sum(
                len(flows) for by_proto in self._flows.values() for flows in by_proto.values()
            ),
            "flow_cache_verdicts": len(self._verdicts),
            "flow_cache_hits": self.flow_cache_hits,
            "flow_cache_misses": self.flow_cache_misses,
        }

    def __iter__(self) -> Iterable[Rule]:
        self._build_all()
        self._ensure_sorted()
        return iter(self._rules)
