"""Tests for the virtualization layer (libc interception, vnodes, testbed)."""

import pytest

from repro.errors import ConnectionRefused, VirtualizationError
from repro.net.addr import IPv4Address
from repro.net.socket_api import ANY, Socket
from repro.sim import SimConfig, Simulator
from repro.sim.process import Process, Signal
from repro.units import us
from repro.virt import Libc, Testbed
from repro.virt.libc import DEFAULT_SYSCALL_COST


@pytest.fixture
def testbed():
    return Testbed(num_pnodes=2, seed=42)


class TestTestbed:
    def test_pnodes_get_admin_addresses(self, testbed):
        assert [str(p.admin_address) for p in testbed.pnodes] == [
            "192.168.38.1",
            "192.168.38.2",
        ]

    def test_block_placement(self, testbed):
        addrs = [IPv4Address("10.0.0.1") + i for i in range(6)]
        testbed.deploy(addrs, placement="block")
        assert testbed.folding_ratios == [3, 3]
        # Contiguous slices per pnode.
        hosted = [str(v.address) for v in testbed.pnodes[0].vnodes.values()]
        assert hosted == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_round_robin_placement(self, testbed):
        addrs = [IPv4Address("10.0.0.1") + i for i in range(5)]
        testbed.deploy(addrs, placement="round-robin")
        assert testbed.folding_ratios == [3, 2]
        hosted = [str(v.address) for v in testbed.pnodes[0].vnodes.values()]
        assert hosted == ["10.0.0.1", "10.0.0.3", "10.0.0.5"]

    def test_unknown_placement_rejected(self, testbed):
        with pytest.raises(VirtualizationError):
            testbed.deploy([IPv4Address("10.0.0.1")], placement="magic")

    def test_vnode_lookup_by_address(self, testbed):
        testbed.deploy([IPv4Address("10.0.0.1")])
        v = testbed.vnode_at("10.0.0.1")
        assert v.address == "10.0.0.1"
        with pytest.raises(VirtualizationError):
            testbed.vnode_at("10.0.0.99")

    def test_vnode_holds_only_its_live_processes(self, testbed):
        v = testbed.pnodes[0].add_vnode("x", "10.0.1.1")
        forever = Signal(testbed.sim, "forever")

        def short(vnode):
            yield 1.0

        def parked(vnode):
            yield forever

        first = v.spawn(short)
        waiting = v.spawn(parked)
        killed = v.spawn(parked)
        assert v.processes == [first, waiting, killed]
        testbed.sim.run(until=2.0)
        killed.kill()
        assert v.processes == [waiting]
        assert not first.alive and not killed.alive and waiting.alive

    def test_duplicate_vnode_name_rejected(self, testbed):
        p = testbed.pnodes[0]
        p.add_vnode("x", "10.0.1.1")
        with pytest.raises(VirtualizationError):
            p.add_vnode("x", "10.0.1.2")

    def test_remove_vnode_releases_alias(self, testbed):
        p = testbed.pnodes[0]
        p.add_vnode("x", "10.0.1.1")
        p.remove_vnode("x")
        assert not p.stack.has_address("10.0.1.1")
        with pytest.raises(VirtualizationError):
            p.remove_vnode("x")

    def test_needs_at_least_one_pnode(self):
        with pytest.raises(VirtualizationError):
            Testbed(num_pnodes=0)

    def test_admin_subnet_capacity_checked(self):
        with pytest.raises(VirtualizationError):
            Testbed(num_pnodes=300, admin_network="192.168.38.0/24")

    def test_flight_missing_from_supplied_simulator_raises(self):
        with pytest.raises(VirtualizationError, match="flight"):
            Testbed(sim=Simulator(), sim_config=SimConfig(flight=True))
        with pytest.raises(VirtualizationError, match="fluid"):
            Testbed(sim=Simulator(), sim_config=SimConfig(fluid=True))

    def test_supplied_simulator_with_flight_accepted(self):
        sim = Simulator(config=SimConfig(flight=True))
        assert Testbed(sim=sim, sim_config=SimConfig(flight=True)).sim.flight.enabled


class TestBindipInterception:
    """The paper's libc modification: BINDIP pins the network identity."""

    def test_bind_rewritten_to_bindip(self, testbed):
        v = testbed.deploy([IPv4Address("10.0.0.1")])[0]
        sim = testbed.sim
        out = []

        def app(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.bind(sock, (ANY, 6881))
            out.append(sock.local)

        v.spawn(app)
        sim.run()
        assert out == [(IPv4Address("10.0.0.1"), 6881)]

    def test_connect_binds_source_to_bindip(self, testbed):
        sim = testbed.sim
        a, b = testbed.deploy([IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")])
        seen_peers = []

        def server(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.bind(sock, (ANY, 7000))
            yield from vnode.libc.listen(sock)
            conn = yield from vnode.libc.accept(sock)
            seen_peers.append(conn.peer[0])

        def client(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.connect(sock, ("10.0.0.2", 7000))

        b.spawn(server)
        a.spawn(client, start_delay=0.1)
        sim.run()
        # Without interception the client would source from the admin IP.
        assert seen_peers == [IPv4Address("10.0.0.1")]

    def test_two_vnodes_same_port_same_pnode(self):
        """Interception is what lets many nodes listen on :6881 on one host."""
        testbed = Testbed(num_pnodes=1, seed=42)
        sim = testbed.sim
        addrs = [IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")]
        vnodes = testbed.deploy(addrs, placement="block")
        assert vnodes[0].pnode is vnodes[1].pnode
        bound = []

        def app(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.bind(sock, (ANY, 6881))
            yield from vnode.libc.listen(sock)
            bound.append(sock.local)

        for v in vnodes:
            v.spawn(app)
        sim.run()
        assert sorted(str(a) for a, _ in bound) == ["10.0.0.1", "10.0.0.2"]

    def test_static_binary_escapes_interception(self, testbed):
        """The paper's failure mode: statically compiled programs bypass
        the modified libc and keep the host's identity."""
        sim = testbed.sim
        a, b = testbed.deploy([IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")])
        a.libc.static = True
        seen_peers = []

        def server(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.bind(sock, (ANY, 7000))
            yield from vnode.libc.listen(sock)
            conn = yield from vnode.libc.accept(sock)
            seen_peers.append(conn.peer[0])

        def client(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.connect(sock, ("10.0.0.2", 7000))

        b.spawn(server)
        a.spawn(client, start_delay=0.1)
        sim.run()
        # Source is the physical node's admin address, not 10.0.0.1:
        # the virtual identity leaked away.
        assert seen_peers == [a.pnode.admin_address]

    def test_explicit_bind_before_listen_error_ignored(self, testbed):
        """listen() issues a second bind() which fails and is ignored."""
        v = testbed.deploy([IPv4Address("10.0.0.1")])[0]
        sim = testbed.sim
        ok = []

        def app(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.bind(sock, (ANY, 6881))
            yield from vnode.libc.listen(sock)  # extra bind fails silently
            ok.append(sock.local)

        v.spawn(app)
        sim.run()
        assert ok == [(IPv4Address("10.0.0.1"), 6881)]


class TestSyscallAccounting:
    def test_syscall_counter(self, testbed):
        v = testbed.deploy([IPv4Address("10.0.0.1")])[0]
        sim = testbed.sim

        def app(vnode):
            sock = yield from vnode.libc.socket()       # 1
            yield from vnode.libc.bind(sock, (ANY, 1))  # 2
            yield from vnode.libc.listen(sock)          # 3 (restrict) + 4
            yield from vnode.libc.close(sock)           # 5

        v.spawn(app)
        sim.run()
        assert v.libc.syscalls == 5

    def test_interception_adds_one_syscall_to_connect(self, testbed):
        """'This approach doubles the number of system calls for
        connect() and listen().'"""
        sim = testbed.sim
        a, b = testbed.deploy([IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")])

        def server(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.bind(sock, (ANY, 7000))
            yield from vnode.libc.listen(sock)
            yield from vnode.libc.accept(sock)

        intercepted = []

        def client(vnode):
            before = vnode.libc.syscalls
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.connect(sock, ("10.0.0.2", 7000))
            intercepted.append(vnode.libc.syscalls - before)

        b.spawn(server)
        a.spawn(client, start_delay=0.1)
        sim.run()
        assert intercepted == [3]  # socket + restrict-bind + connect

    def test_syscall_cost_zero_disables_charging(self, testbed):
        v = testbed.deploy([IPv4Address("10.0.0.1")])[0]
        v.libc.syscall_cost = 0.0
        sim = testbed.sim
        t = []

        def app(vnode):
            sock = yield from vnode.libc.socket()
            yield from vnode.libc.bind(sock, (ANY, 1))
            t.append(sim.now)

        v.spawn(app)
        sim.run()
        assert t == [0.0]
        assert v.libc.syscalls == 2

    def test_default_cost_matches_paper_calibration(self):
        assert DEFAULT_SYSCALL_COST == pytest.approx(us(0.57))


class TestCpuAccount:
    def test_no_enforcement_returns_raw_cost(self, testbed):
        cpu = testbed.pnodes[0].cpu
        assert cpu.charge(0.5) == 0.5
        assert cpu.busy_seconds == 0.5

    def test_enforcement_serializes_beyond_capacity(self):
        tb = Testbed(num_pnodes=1, enforce_cpu=True, ncpus=2)
        cpu = tb.pnodes[0].cpu
        # Three 1s jobs on 2 CPUs at t=0: two run now, third queues.
        assert cpu.charge(1.0) == pytest.approx(1.0)
        assert cpu.charge(1.0) == pytest.approx(1.0)
        assert cpu.charge(1.0) == pytest.approx(2.0)

    def test_utilization(self, testbed):
        cpu = testbed.pnodes[0].cpu
        cpu.charge(4.0)
        assert cpu.utilization(elapsed=2.0) == pytest.approx(1.0)
        assert cpu.utilization(elapsed=0.0) == 0.0

    def test_cpu_speed_scales_wall_time(self, testbed):
        """The Desktop-Computing extension: a half-speed virtual
        processor needs twice the wall time for the same work."""
        cpu = testbed.pnodes[0].cpu
        assert cpu.charge(1.0, speed=1.0) == pytest.approx(1.0)
        assert cpu.charge(1.0, speed=0.5) == pytest.approx(2.0)
        assert cpu.charge(1.0, speed=2.0) == pytest.approx(0.5)

    def test_cpu_speed_validated(self, testbed):
        with pytest.raises(VirtualizationError):
            testbed.pnodes[0].cpu.charge(1.0, speed=0.0)

    def test_vnode_compute_uses_speed(self, testbed):
        v = testbed.deploy([IPv4Address("10.0.0.1")])[0]
        v.cpu_speed = 0.25
        assert v.compute(1.0) == pytest.approx(4.0)

    def test_heterogeneous_desktop_grid(self):
        """Workers of different speeds finish the same job at times
        inversely proportional to their speed (enforced CPUs)."""
        tb = Testbed(num_pnodes=2, enforce_cpu=True, ncpus=2, seed=1)
        addrs = [IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")]
        fast, slow = tb.deploy(addrs, placement="round-robin")
        fast.cpu_speed, slow.cpu_speed = 1.0, 0.5
        finished = {}

        def worker(vnode):
            yield vnode.compute(3.0)
            finished[vnode.name] = vnode.sim.now

        fast.spawn(worker)
        slow.spawn(worker)
        tb.sim.run()
        assert finished[fast.name] == pytest.approx(3.0)
        assert finished[slow.name] == pytest.approx(6.0)
