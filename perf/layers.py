"""Layer drives: short direct calls into each layer's public functions.

The sampler says what *share* of a workload a layer owns; a drive says
what one operation of that layer *costs* with nothing else in the way,
so a change to a layer can be read both ways. Each drive builds its
inputs untimed, times ``ROUNDS`` rounds of a fixed batch, and reports
the median round as microseconds (milliseconds for the sweep
round-trip) per operation. Every drive stays under a second.

Run in a fresh interpreter by ``perf/child.py --drives``.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, Optional

ROUNDS = 3


def _per_op(
    round_fn: Callable[..., int],
    prepare: Optional[Callable[[], object]] = None,
    scale: float = 1e6,
) -> float:
    """Median over rounds of (round wall ÷ operations it reports).
    ``prepare`` builds a round's input untimed and is passed to it."""
    samples = []
    for _ in range(ROUNDS):
        args = () if prepare is None else (prepare(),)
        t0 = time.perf_counter()
        ops = round_fn(*args)
        samples.append(scale * (time.perf_counter() - t0) / ops)
    return statistics.median(samples)


def _noop() -> None:
    pass


def drive_sim() -> Dict[str, float]:
    """``Simulator.schedule`` + ``run()`` over 200k no-op events: half
    within the calendar's near window, half spread over a far horizon."""
    from repro.sim import Simulator

    def round_() -> int:
        events = 0
        for span in (0.25, 400.0):
            sim = Simulator(seed=1, observe=False)
            n = 33_000
            step = span / n
            schedule = sim.schedule
            for i in range(n):
                schedule(i * step, _noop)
            sim.run()
            events += sim.events_processed
        return events

    return {"sim.event_us": _per_op(round_)}


def drive_ipfw() -> Dict[str, float]:
    """``Firewall.evaluate`` over 400 generic rules: a repeated flow
    (flow-cache hit) and a never-seen flow (miss, full scan)."""
    from repro.net.addr import IPv4Network, ip
    from repro.net.ipfw import ACTION_ALLOW, ACTION_COUNT, Firewall
    from repro.net.packet import PROTO_TCP, Packet

    fw = Firewall(name="drive")
    for i in range(400):
        fw.add(
            ACTION_COUNT,
            src=IPv4Network(f"10.{i % 200}.0.0/16"),
            dst=IPv4Network(f"172.{i % 100}.0.0/16"),
        )
    fw.add(ACTION_ALLOW)
    dst = ip("172.16.2.9")
    warm = [Packet(ip(f"10.1.1.{1 + i}"), dst, PROTO_TCP, 1500, sport=1000 + i, dport=6881)
            for i in range(64)]
    for pkt in warm:
        fw.evaluate(pkt, "out")
    # The flow cache keys on (src, dst, proto, direction): a fresh
    # source address is a fresh flow.
    sources = iter(range(int(ip("10.9.0.1").value), 1 << 32))

    def hit() -> int:
        evaluate = fw.evaluate
        for i in range(60_000):
            evaluate(warm[i & 63], "out")
        return 60_000

    def cold_flows():
        return [Packet(ip(next(sources)), dst, PROTO_TCP, 1500, sport=1000, dport=6881)
                for _ in range(2_000)]

    def miss(cold) -> int:
        evaluate = fw.evaluate
        for pkt in cold:
            evaluate(pkt, "out")
        return len(cold)

    return {
        "net.ipfw.eval_hit_us": _per_op(hit),
        "net.ipfw.eval_miss_us": _per_op(miss, prepare=cold_flows),
    }


def drive_pipe() -> Dict[str, float]:
    """Back-to-back ``DummynetPipe.transmit`` bursts, drained by run()."""
    from repro.net.addr import ip
    from repro.net.packet import Packet
    from repro.net.pipe import DummynetPipe
    from repro.sim import Simulator

    src, dst = ip("10.0.0.1"), ip("10.0.0.2")

    def round_() -> int:
        sim = Simulator(seed=1, observe=False)
        pipes = [
            DummynetPipe(sim, bandwidth=1e8, delay=0.01 * (i + 1), name=f"p{i}")
            for i in range(8)
        ]
        delivered = [0]

        def deliver(_pkt) -> None:
            delivered[0] += 1

        def burst(pipe) -> None:
            transmit = pipe.transmit
            for _ in range(256):
                transmit(Packet(src, dst, "udp", 1500), deliver)

        for wave in range(8):
            for pipe in pipes:
                sim.schedule_at(wave * 1.0, burst, pipe)
        sim.run()
        return delivered[0]

    return {"net.pipe.pkt_us": _per_op(round_)}


def _pair():
    """Two unshaped vnodes on two pnodes."""
    from repro.topology.compiler import compile_topology
    from repro.topology.spec import TopologySpec
    from repro.virt.deployment import Testbed

    testbed = Testbed(num_pnodes=2, seed=1, observe=True)
    spec = TopologySpec("drive-pair")
    spec.add_group("pair", "10.0.0.0/24", 2)
    compiler = compile_topology(spec, testbed)
    a, b = compiler.vnodes("pair")
    return testbed.sim, a, b


def drive_tcp() -> Dict[str, float]:
    """One 8 MB ``Socket.send`` stream between two vnodes; cost per
    TCP segment the registry counted."""
    from repro.sim.process import Process

    message, total = 16 * 1024, 8 * 1024 * 1024

    def round_() -> int:
        sim, a, b = _pair()
        received = [0]

        def server(vnode):
            libc = vnode.libc
            sock = yield from libc.socket()
            yield from libc.bind(sock, (vnode.address, 5000))
            yield from libc.listen(sock)
            conn = yield from libc.accept(sock)
            while True:
                msg = yield from libc.recv(conn)
                if msg is None:
                    break
                received[0] += msg[1]

        def client(vnode):
            libc = vnode.libc
            sock = yield from libc.socket()
            yield from libc.connect(sock, (b.address, 5000))
            for _ in range(total // message):
                yield from libc.send(sock, "data", message)
            yield from libc.close(sock)

        Process(sim, server(b), name="server")
        Process(sim, client(a), name="client", start_delay=0.1)
        sim.run()
        if received[0] != total:
            raise RuntimeError(f"tcp drive delivered {received[0]} of {total} bytes")
        return sim.metrics.snapshot()["net.tcp.segments_sent"]["value"]

    return {"net.tcp.segment_us": _per_op(round_)}


def drive_stack() -> Dict[str, float]:
    """``send_echo`` round trips on an unshaped pair."""
    from repro.net.ping import ping

    def round_() -> int:
        sim, a, b = _pair()
        probe = ping(sim, a.pnode.stack, a.address, b.address, count=4_000, interval=0.001)
        sim.run()
        if probe.result.received != 4_000:
            raise RuntimeError(f"stack drive lost echoes: {probe.result}")
        return 4_000

    return {"net.stack.echo_us": _per_op(round_)}


def drive_bittorrent() -> Dict[str, float]:
    """``PiecePicker.next_request`` draining a 64-piece torrent against
    a full peer, and ``wire_format`` encode+decode of the hot messages."""
    from repro.bittorrent import messages as msg
    from repro.bittorrent import wire_format
    from repro.bittorrent.bitfield import Bitfield
    from repro.bittorrent.metainfo import Torrent
    from repro.bittorrent.piece_picker import PiecePicker

    torrent = Torrent("drive.dat", total_size=16 * 1024 * 1024)
    peer = Bitfield(torrent.num_pieces, full=True)

    def pick() -> int:
        picks = 0
        for seed in range(8):
            picker = PiecePicker(torrent, Bitfield(torrent.num_pieces), random.Random(seed))
            picker.peer_bitfield_added(peer)
            while True:
                request = picker.next_request(peer)
                if request is None:
                    break
                picker.on_block(*request)
                picks += 1
        return picks

    batch = [msg.Request(3, 7), msg.Piece(3, 7, 16384), msg.Have(11), msg.Unchoke()]

    def codec() -> int:
        encode, decode = wire_format.encode, wire_format.decode
        for _ in range(10_000):
            for message in batch:
                decode(encode(message))
        return 10_000 * len(batch)

    return {"bittorrent.pick_us": _per_op(pick), "bittorrent.codec_us": _per_op(codec)}


def drive_obs() -> Dict[str, float]:
    """``Counter.inc`` and ``Histogram.observe`` on a live registry."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    counter = registry.counter("drive.counter")
    histogram = registry.histogram("drive.histogram")

    def round_() -> int:
        inc, observe = counter.inc, histogram.observe
        for i in range(100_000):
            inc()
            observe(i * 1e-4)
        return 200_000

    return {"obs.metric_update_us": _per_op(round_)}


def _noop_point(request):
    from repro.experiments.api import RunResult

    return RunResult.ok(request, artifacts={"n": 1})


def drive_runtime() -> Dict[str, float]:
    """A no-op point through ``SweepExecutor``: spawn + IPC + record."""
    from repro.runtime import ExecutionPlan, SweepExecutor

    def round_() -> int:
        plan = ExecutionPlan.build("drive", seeds=list(range(10)))
        outcome = SweepExecutor(plan, parallel=1, runner=_noop_point).run()
        if len(outcome.completed) != len(plan):
            raise RuntimeError("runtime drive lost points")
        return len(plan)

    return {"runtime.point_roundtrip_ms": _per_op(round_, scale=1e3)}


DRIVES = (
    drive_sim, drive_ipfw, drive_pipe, drive_tcp, drive_stack,
    drive_bittorrent, drive_obs, drive_runtime,
)


def run_all() -> Dict[str, float]:
    """Every drive's metrics, one flat dict."""
    out: Dict[str, float] = {}
    for drive in DRIVES:
        out.update(drive())
    return out

