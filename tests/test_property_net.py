"""Property-based tests for the topology compiler and the transport."""

from hypothesis import example, given, settings, strategies as st

from repro.errors import TopologyError
from repro.net.addr import IPv4Address
from repro.net.ipfw import ACTION_PIPE, DIR_IN, DIR_OUT
from repro.net.socket_api import Socket, raise_if_error
from repro.net.stack import NetworkStack
from repro.net.switch import Switch
from repro.net.pipe import DummynetPipe
from repro.sim import Simulator
from repro.sim.process import Process
from repro.topology.compiler import compile_topology
from repro.topology.spec import TopologySpec
from repro.units import kbps, ms
from repro.virt.deployment import Testbed


@st.composite
def small_topologies(draw):
    """1-3 groups with small node counts and optional latencies."""
    ngroups = draw(st.integers(1, 3))
    spec = TopologySpec("prop")
    names = []
    for g in range(ngroups):
        count = draw(st.integers(1, 6))
        name = f"g{g}"
        spec.add_group(
            name,
            f"10.{g + 1}.0.0/24",
            count,
            down_bw=kbps(draw(st.integers(64, 2048))),
            up_bw=kbps(draw(st.integers(32, 1024))),
            latency=ms(draw(st.integers(0, 200))),
        )
        names.append(name)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if draw(st.booleans()):
                spec.add_latency(names[i], names[j], ms(draw(st.integers(1, 500))))
    return spec


class TestCompilerProperties:
    @settings(deadline=None, max_examples=30)
    @given(small_topologies(), st.integers(1, 4), st.sampled_from(["block", "round-robin"]))
    def test_every_vnode_gets_exactly_two_rules_plus_group_rules(
        self, spec, num_pnodes, placement
    ):
        testbed = Testbed(num_pnodes=num_pnodes, seed=1)
        compiler = compile_topology(spec, testbed, placement=placement)
        assert testbed.total_vnodes() == spec.total_nodes()

        # Per-pnode invariant: 2 rules per hosted vnode + one outgoing
        # rule per latency entry whose src prefix covers a hosted vnode.
        for pnode in testbed.pnodes:
            hosted = [v.address.value for v in pnode.vnodes.values()]
            expected_group_rules = sum(
                1
                for (src, _dst), _lat in spec.latencies.items()
                if any(src.contains_value(h) for h in hosted)
            )
            assert len(pnode.stack.fw) == 2 * len(hosted) + expected_group_rules

        # Every address resolves through the switch.
        for vnode in compiler.all_vnodes():
            assert testbed.switch.lookup(vnode.address) is vnode.pnode.stack

    @settings(deadline=None, max_examples=20)
    @given(small_topologies(), st.integers(1, 3))
    def test_group_membership_matches_spec(self, spec, num_pnodes):
        testbed = Testbed(num_pnodes=num_pnodes, seed=2)
        compiler = compile_topology(spec, testbed)
        for name, group in spec.groups.items():
            vnodes = compiler.vnodes(name)
            assert len(vnodes) == group.count
            for vnode in vnodes:
                assert vnode.address in group.prefix
                assert vnode.group == name


class TestTransportProperties:
    @settings(deadline=None, max_examples=15)
    @given(
        st.lists(st.integers(1, 20_000), min_size=1, max_size=25),
        st.floats(min_value=0.0, max_value=0.2),
        st.integers(0, 2**16),
    )
    @example(sizes=[1], plr=0.1875, seed=207)
    def test_tcp_delivers_everything_in_order_under_loss(self, sizes, plr, seed):
        """Reliability invariant: whatever the loss rate and message
        mix, the receiver sees exactly the sent sequence.

        The loss rate is capped at 20% so the transport's bounded
        retry budgets (SYN_RETRIES per connect attempt — the client
        retries connects like a real application — and MAX_RETRIES
        per segment, failure probability ~plr^9) stay negligible."""
        sim = Simulator(seed=seed)
        switch = Switch(sim)
        a = NetworkStack(sim, "a", switch=switch)
        a.set_admin_address("192.168.38.1")
        b = NetworkStack(sim, "b", switch=switch)
        b.set_admin_address("192.168.38.2")
        a.add_address("10.0.0.1")
        b.add_address("10.0.0.2")
        a.fw.add_pipe(1, DummynetPipe(sim, bandwidth=1e6, plr=plr, name="l-up"))
        a.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.1"), direction=DIR_OUT)
        b.fw.add_pipe(1, DummynetPipe(sim, bandwidth=1e6, plr=plr, name="l-down"))
        b.fw.add(ACTION_PIPE, pipe=1, src=IPv4Address("10.0.0.2"), direction=DIR_OUT)

        received = []
        server = Socket(b)
        server.bind(("10.0.0.2", 5000))

        def drain(conn):
            while True:
                item = yield conn.recv()
                if item is None:
                    break
                received.append(item)

        def srv():
            # Accept in a loop: when a SYN-ACK is lost the listener has
            # already queued a half-open connection that the client
            # abandons; the retry that succeeds is a second connection.
            server.listen()
            while True:
                conn = yield server.accept()
                Process(sim, drain(conn))

        def cli():
            # Applications retry failed connects; under heavy SYN loss
            # a single attempt may legitimately time out.
            for _attempt in range(50):
                sock = Socket(a)
                sock.bind(("10.0.0.1", 0))
                result = yield sock.connect(("10.0.0.2", 5000))
                if isinstance(result, Socket):
                    break
                sock.close()
            else:
                raise AssertionError("connect never succeeded at plr <= 0.2")
            for i, size in enumerate(sizes):
                yield sock.send(i, size)
            sock.close()

        Process(sim, srv())
        Process(sim, cli())
        sim.run(max_events=2_000_000)
        assert [payload for payload, _s in received] == list(range(len(sizes)))
        assert [s for _p, s in received] == sizes
