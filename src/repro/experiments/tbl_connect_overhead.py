"""Connect-cycle overhead of the libc interception (paper, text table).

Paper measurement: "the duration of a connection/disconnection cycle
was 10.22 us without the modification, to compare to 10.79 us with the
modification" — one extra bind() system call per connect(). The test
program "was connecting to a local server and disconnecting as soon as
the connection was established".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import Table
from repro.errors import SocketError
from repro.net.addr import IPv4Address
from repro.net.socket_api import ANY
from repro.virt.deployment import Testbed
from repro.virt.libc import Libc


@dataclass(frozen=True)
class ConnectOverheadResult:
    cycles: int
    plain_us: float
    intercepted_us: float

    @property
    def overhead_us(self) -> float:
        return self.intercepted_us - self.plain_us


def run_connect_overhead(cycles: int = 1000, seed: int = 0) -> ConnectOverheadResult:
    """Measure the loopback connect/disconnect cycle both ways."""
    testbed = Testbed(num_pnodes=1, seed=seed)
    vnode = testbed.deploy([IPv4Address("10.0.0.1")])[0]
    sim = testbed.sim

    # One local server used by both measurement phases.
    def server(vn):
        libc = vn.libc
        sock = yield from libc.socket()
        yield from libc.bind(sock, (ANY, 7000))
        yield from libc.listen(sock, backlog=1024)
        while True:
            conn = yield from libc.accept(sock)
            if conn is None:
                return
            conn.close()

    vnode.spawn(server)

    durations = {}

    def client_phase(libc: Libc, tag: str):
        def app(vn):
            total = 0.0
            for _ in range(cycles):
                start = vn.sim.now
                sock = yield from libc.socket()
                try:
                    yield from libc.connect(sock, (str(vnode.address), 7000))
                except SocketError:
                    sock.close()
                    continue
                yield from libc.close(sock)
                total += vn.sim.now - start
            durations[tag] = total / cycles

        return app

    plain = Libc(vnode.pnode.stack, bindip=vnode.address, intercepting=False)
    modified = Libc(vnode.pnode.stack, bindip=vnode.address, intercepting=True)
    p1 = vnode.spawn(client_phase(plain, "plain"), start_delay=0.01)

    def phase2(vn):
        yield p1
        yield vn.spawn(client_phase(modified, "intercepted"))

    vnode.spawn(phase2)
    sim.run()
    return ConnectOverheadResult(
        cycles=cycles,
        plain_us=durations["plain"] * 1e6,
        intercepted_us=durations["intercepted"] * 1e6,
    )


def print_report(result: ConnectOverheadResult) -> str:
    table = Table(
        ["libc", "connect cycle (us)", "paper (us)"],
        title=f"libc interception overhead ({result.cycles} cycles)",
    )
    table.add_row("unmodified", result.plain_us, 10.22)
    table.add_row("modified (BINDIP)", result.intercepted_us, 10.79)
    table.add_row("overhead", result.overhead_us, 0.57)
    return table.render()
