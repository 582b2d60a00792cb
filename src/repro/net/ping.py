"""``ping`` utility over the emulated ICMP path.

Used by the Figure 6 experiment (RTT versus firewall rule count) and by
the Figure 7 topology validation (latency decomposition between virtual
nodes in different groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.net.addr import IPv4Address
from repro.net.stack import NetworkStack
from repro.sim.process import Process, TIMEOUT


@dataclass(frozen=True)
class PingResult:
    """Summary of one ping run (times in seconds)."""

    rtts: tuple
    sent: int
    received: int

    @property
    def lost(self) -> int:
        return self.sent - self.received

    @property
    def min(self) -> float:
        return min(self.rtts)

    @property
    def avg(self) -> float:
        return sum(self.rtts) / len(self.rtts)

    @property
    def max(self) -> float:
        return max(self.rtts)

    def __str__(self) -> str:
        if not self.rtts:
            return f"{self.sent} sent, all lost"
        return (
            f"{self.sent} sent, {self.received} received, "
            f"rtt min/avg/max = {self.min * 1e3:.3f}/{self.avg * 1e3:.3f}/{self.max * 1e3:.3f} ms"
        )


def ping_process(
    stack: NetworkStack,
    src: Union[IPv4Address, str],
    dst: Union[IPv4Address, str],
    count: int = 4,
    interval: float = 1.0,
    size: int = 64,
    timeout: float = 5.0,
):
    """Generator for a :class:`~repro.sim.process.Process` sending
    ``count`` echoes and returning a :class:`PingResult`."""
    rtts: List[float] = []
    sent = 0
    for i in range(count):
        ident, sig = stack.send_echo(src, dst, size=size)
        sent += 1
        rtt = yield (sig, timeout)
        if rtt is TIMEOUT:
            stack.cancel_echo(ident)
        else:
            rtts.append(rtt)
        if i != count - 1:
            yield interval
    return PingResult(rtts=tuple(rtts), sent=sent, received=len(rtts))


def ping(
    sim,
    stack: NetworkStack,
    src: Union[IPv4Address, str],
    dst: Union[IPv4Address, str],
    count: int = 4,
    interval: float = 1.0,
    size: int = 64,
    timeout: float = 5.0,
) -> Process:
    """Spawn a ping process; read ``.result`` after ``sim.run()``."""
    return Process(
        sim,
        ping_process(stack, src, dst, count=count, interval=interval, size=size, timeout=timeout),
        name=f"ping {src}->{dst}",
    )
