"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings, strategies as st

from repro.bittorrent.bitfield import Bitfield
from repro.bittorrent.choker import RateMeter
from repro.bittorrent.metainfo import Torrent
from repro.bittorrent.piece_picker import PiecePicker
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.packet import Packet
from repro.net.pipe import DummynetPipe
from repro.sim import Simulator
from repro.sim.event import EventQueue
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------------
# Bitfield vs a set model.
# ----------------------------------------------------------------------

@st.composite
def bitfield_ops(draw):
    size = draw(st.integers(min_value=1, max_value=128))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["set", "clear"]), st.integers(0, size - 1)),
            max_size=64,
        )
    )
    return size, ops


@given(bitfield_ops())
def test_bitfield_matches_set_model(args):
    size, ops = args
    bf = Bitfield(size)
    model = set()
    for op, idx in ops:
        if op == "set":
            bf.set(idx)
            model.add(idx)
        else:
            bf.clear(idx)
            model.discard(idx)
    assert bf.count() == len(model)
    assert set(bf.present()) == model
    assert set(bf.missing()) == set(range(size)) - model
    assert bf.complete == (len(model) == size)
    assert bf.empty == (not model)


@given(bitfield_ops(), bitfield_ops())
def test_bitfield_and_not_matches_set_difference(a_args, b_args):
    size = max(a_args[0], b_args[0])
    a, b = Bitfield(size), Bitfield(size)
    sa, sb = set(), set()
    for op, idx in a_args[1]:
        if op == "set":
            a.set(idx)
            sa.add(idx)
    for op, idx in b_args[1]:
        if op == "set":
            b.set(idx)
            sb.add(idx)
    assert set(a.and_not(b)) == sa - sb
    assert a.any_and_not(b) == bool(sa - sb)


# ----------------------------------------------------------------------
# Event queue ordering.
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(-1, 1),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_event_queue_pops_in_total_order(entries):
    q = EventQueue()
    for t, prio in entries:
        q.push(t, lambda: None, (), priority=prio)
    popped = []
    while q:
        ev = q.pop()
        popped.append((ev.time, ev.priority, ev.seq))
    assert popped == sorted(popped)
    assert len(popped) == len(entries)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False), max_size=50),
    st.sets(st.integers(0, 49)),
)
def test_event_queue_cancellation(times, cancel_idx):
    q = EventQueue()
    events = [q.push(t, lambda: None, ()) for t in times]
    cancelled = 0
    for i in cancel_idx:
        if i < len(events) and not events[i].cancelled:
            events[i].cancel()
            q.note_cancelled()
            cancelled += 1
    remaining = 0
    while q:
        ev = q.pop()
        assert not ev.cancelled
        remaining += 1
    assert remaining == len(times) - cancelled


# ----------------------------------------------------------------------
# Dummynet pipe conservation and FIFO.
# ----------------------------------------------------------------------

packet_sizes = st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=50)


@given(packet_sizes, st.floats(min_value=10.0, max_value=1e6), st.floats(min_value=0, max_value=1.0))
def test_pipe_conserves_packets_and_preserves_order(sizes, bandwidth, delay):
    sim = Simulator(seed=1)
    pipe = DummynetPipe(sim, bandwidth=bandwidth, delay=delay)
    src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
    sent, received = [], []
    for i, size in enumerate(sizes):
        pkt = Packet(src, dst, "udp", size, payload=i)
        sent.append(i)
        pipe.transmit(pkt, lambda p: received.append((sim.now, p.payload)))
    sim.run()
    assert [i for _t, i in received] == sent  # FIFO
    times = [t for t, _ in received]
    assert times == sorted(times)
    assert pipe.packets_out == len(sizes)
    assert pipe.bytes_out == sum(sizes)
    # Serialization: last arrival >= total bytes / bandwidth.
    assert times[-1] >= sum(sizes) / bandwidth - 1e-9


@given(packet_sizes, st.floats(min_value=0.01, max_value=0.99))
def test_lossy_pipe_accounts_every_packet(sizes, plr):
    sim = Simulator(seed=7)
    pipe = DummynetPipe(sim, delay=0.001, plr=plr, name="lossy")
    src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
    delivered = []
    for size in sizes:
        pipe.transmit(Packet(src, dst, "udp", size), lambda p: delivered.append(p))
    sim.run()
    assert pipe.packets_out + pipe.packets_dropped_loss == pipe.packets_in == len(sizes)
    assert len(delivered) == pipe.packets_out


# ----------------------------------------------------------------------
# IPv4 network membership is an integer range.
# ----------------------------------------------------------------------

@given(st.integers(0, 2**32 - 1), st.integers(0, 32))
def test_network_contains_iff_in_range(addr_value, prefixlen):
    mask = (0xFFFFFFFF << (32 - prefixlen)) & 0xFFFFFFFF if prefixlen else 0
    net = IPv4Network((addr_value & mask, prefixlen))
    lo = addr_value & mask
    hi = lo + net.num_addresses - 1
    assert IPv4Address(addr_value) in net
    assert net.contains_value(lo) and net.contains_value(hi)
    if lo > 0:
        assert not net.contains_value(lo - 1)
    if hi < 2**32 - 1:
        assert not net.contains_value(hi + 1)


# ----------------------------------------------------------------------
# Piece picker: random request/deliver schedules terminate correctly.
# ----------------------------------------------------------------------

@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=12),   # pieces
    st.integers(min_value=1, max_value=4),    # blocks per piece
    st.integers(min_value=0, max_value=5),    # random-first threshold
    st.randoms(use_true_random=False),
)
def test_picker_random_schedule_completes(npieces, blocks, random_first, rnd):
    piece_len = 100 * blocks
    torrent = Torrent(
        "t", total_size=npieces * piece_len, piece_length=piece_len, block_size=100
    )
    have = Bitfield(torrent.num_pieces)
    picker = PiecePicker(
        torrent, have, RngRegistry(3).stream("p"), random_first=random_first
    )
    peer = Bitfield(torrent.num_pieces, full=True)
    outstanding = []
    guard = 0
    while not have.complete:
        guard += 1
        assert guard < 10_000, "picker did not converge"
        # Randomly interleave new requests and deliveries.
        if outstanding and (rnd.random() < 0.5):
            idx = rnd.randrange(len(outstanding))
            piece, block = outstanding.pop(idx)
            result = picker.on_block(piece, block)
            assert result in ("piece", "block", "dup")
        else:
            req = picker.next_request(peer)
            if req is None:
                if not outstanding:
                    break
                piece, block = outstanding.pop(0)
                picker.on_block(piece, block)
            else:
                outstanding.append(req)
    # Deliver anything left.
    for piece, block in outstanding:
        picker.on_block(piece, block)
    assert have.complete
    assert picker.blocks_received == torrent.total_blocks()


@given(st.lists(st.integers(0, 7), min_size=0, max_size=30))
def test_picker_availability_never_negative(haves):
    torrent = Torrent("t", total_size=8 * 100, piece_length=100, block_size=100)
    picker = PiecePicker(torrent, Bitfield(8), RngRegistry(1).stream("p"))
    bf = Bitfield(8)
    for h in haves:
        bf.set(h)
    picker.peer_bitfield_added(bf)
    picker.peer_bitfield_removed(bf)
    assert all(a == 0 for a in picker.availability)


# ----------------------------------------------------------------------
# Rate meter: rates are non-negative and bounded by burst volume.
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=40,
    )
)
def test_rate_meter_bounded(records):
    meter = RateMeter()
    records = sorted(records)
    total = 0
    for t, nbytes in records:
        meter.record(t, nbytes)
        total += nbytes
    assert meter.total == total
    now = records[-1][0] if records else 0.0
    rate = meter.rate(now)
    assert 0.0 <= rate <= total / 20.0 + 1e-9 or total == 0


# ----------------------------------------------------------------------
# Simulator clock monotonicity under random scheduling.
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=50))
def test_simulator_clock_monotone(delays):
    sim = Simulator()
    observed = []
    for d in delays:
        sim.schedule(d, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
