"""Peer-connection level tests: protocol state machine, snubbing,
handshake validation, endgame cancellation, and swarm helpers."""

import pytest

from repro.bittorrent import messages as msg
from repro.bittorrent.client import BitTorrentClient, ClientConfig
from repro.bittorrent.metainfo import Torrent
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.errors import SocketError
from repro.net.addr import IPv4Address
from repro.units import KB, MB, kbps
from repro.virt import Testbed


def make_pair(seeder_a=False, seeder_b=True, config=None, piece_length=64 * KB):
    """Two DSL-shaped clients on one testbed, directly connected (no
    tracker). At 128 kbps upload the 512 KiB transfer takes ~35 s, so
    tests can observe mid-transfer protocol state."""
    from repro.topology.compiler import compile_topology
    from repro.topology.presets import uniform_swarm

    testbed = Testbed(num_pnodes=2, seed=6)
    compiler = compile_topology(uniform_swarm(2, prefix="10.0.0.0/24"), testbed)
    va, vb = compiler.all_vnodes()
    torrent = Torrent("t", total_size=512 * KB, piece_length=piece_length,
                      block_size=16 * KB, tracker_addr=None)
    ca = BitTorrentClient(va, torrent, seeder=seeder_a, config=config or ClientConfig())
    cb = BitTorrentClient(vb, torrent, seeder=seeder_b, config=config or ClientConfig())
    ca.start()
    cb.start()
    ca.add_candidates([(vb.address, cb.config.listen_port)])
    return testbed, ca, cb


def peer_of(client, other):
    conns = client.peers()
    assert len(conns) == 1
    assert conns[0].remote_ip == other.vnode.address
    return conns[0]


class TestHandshakeAndSetup:
    def test_direct_connection_handshakes(self):
        testbed, ca, cb = make_pair()
        testbed.sim.run(until=60.0)
        pa, pb = peer_of(ca, cb), peer_of(cb, ca)
        assert pa.handshaked and pb.handshaked
        assert pa.peer_id == cb.peer_id
        # The seeder's bitfield reached the leecher.
        assert pa.peer_bitfield.complete

    def test_leecher_downloads_from_seeder(self):
        testbed, ca, cb = make_pair()
        testbed.sim.run(until=2000.0)
        assert ca.complete
        assert ca.payload_received == 512 * KB

    def test_interest_flags(self):
        testbed, ca, cb = make_pair()
        testbed.sim.run(until=30.0)
        pa = peer_of(ca, cb)
        assert pa.am_interested          # leecher wants the seeder's pieces
        pb = peer_of(cb, ca)
        assert pb.peer_interested        # the seeder sees that interest
        assert not pb.am_interested      # seeder needs nothing

    def test_infohash_mismatch_closes(self):
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=30.0)
        pa = peer_of(ca, cb)
        # Forge a handshake with a wrong infohash on the live link.
        pa._on_handshake(msg.Handshake(infohash=0xBAD, peer_id="evil"))
        assert pa.closed

    def test_data_before_handshake_closes(self):
        testbed, ca, cb = make_pair()
        pa = None
        # Build a raw connection manually and inject a premature message.
        from repro.bittorrent.peer import PeerConnection
        from repro.net.socket_api import Socket

        sock = Socket(ca.vnode.pnode.stack)
        conn = PeerConnection(ca, sock, initiated=True)
        conn._on_message((msg.Have(0), 9))
        assert conn.closed


class TestChokeAndRequests:
    def test_unchoke_triggers_requests(self):
        testbed, ca, cb = make_pair()
        # Sample mid-transfer (the 512 KiB download takes ~35 s).
        testbed.sim.run(until=25.0)
        pa = peer_of(ca, cb)
        assert not pa.peer_choking       # choker unchoked the leecher
        assert pa.inflight               # pipeline is in use
        assert ca.bytes_downloaded > 0
        assert not ca.complete

    def test_pipeline_respected(self):
        config = ClientConfig(pipeline=3)
        testbed, ca, cb = make_pair(config=config)
        sampled = []

        def sample():
            conns = ca.peers()
            if conns:
                sampled.append(len(conns[0].inflight))
            testbed.sim.schedule(1.0, sample)

        testbed.sim.schedule(5.0, sample)
        testbed.sim.run(until=100.0)
        assert sampled and max(sampled) <= 3

    def test_choke_refunds_requests(self):
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=40.0)
        pa = peer_of(ca, cb)
        inflight_before = set(pa.inflight)
        assert inflight_before
        # Peer chokes us: all in-flight requests become requestable again.
        pa._on_message((msg.Choke(), 5))
        assert pa.peer_choking
        assert not pa.inflight
        for index, block in inflight_before:
            assert ca.picker.outstanding_for(index, block) == 0

    def test_failed_request_send_stops_the_pipeline_and_leaves_nothing_requested(self):
        """A REQUEST whose send fails closes the side, and the close
        refunds its requests: no later request of the same fill may be
        filed on the closed side, where nothing would refund it."""

        class FailingSocket:
            def __init__(self, sock):
                self.sock = sock
                self.sends = 0

            def send(self, payload, size):
                self.sends += 1
                raise SocketError("connection reset")

            def close(self):
                self.sock.close()

        testbed, ca, cb = make_pair()
        testbed.sim.run(until=25.0)
        pa = peer_of(ca, cb)
        assert not pa.peer_choking and pa.inflight
        pa._refund_inflight()  # the pipeline is free to fill again
        pa.sock = failing = FailingSocket(pa.sock)
        ca.fill_requests(pa)
        assert pa.closed
        assert failing.sends == 1
        assert pa._inflight is None
        torrent = ca.torrent
        for index in range(torrent.num_pieces):
            for block in range(torrent.blocks_in_piece(index)):
                assert ca.picker.outstanding_for(index, block) == 0

    def test_request_while_choking_ignored(self):
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=30.0)
        pb = peer_of(cb, ca)
        pb.am_choking = True
        uploaded_before = cb.bytes_uploaded
        cb.on_request(pb, msg.Request(0, 0))
        assert cb.bytes_uploaded == uploaded_before


class TestSnubbing:
    def test_snubbed_detection(self):
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=30.0)
        pa = peer_of(ca, cb)
        pa.inflight.add((0, 0))
        pa.first_request_at = sim.now
        pa.last_piece_at = -1.0
        assert not pa.snubbed(sim.now + 30.0, timeout=60.0)
        assert pa.snubbed(sim.now + 61.0, timeout=60.0)

    def test_not_snubbed_without_outstanding_requests(self):
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=30.0)
        pa = peer_of(ca, cb)
        pa.inflight.clear()
        assert not pa.snubbed(sim.now + 1000.0, timeout=60.0)

    def test_recent_piece_resets_snub_clock(self):
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=30.0)
        pa = peer_of(ca, cb)
        pa.inflight.add((0, 0))
        pa.last_piece_at = sim.now
        assert not pa.snubbed(sim.now + 59.0, timeout=60.0)


class TestPieceCompletion:
    def test_have_broadcast_on_piece(self):
        """Each completed piece is announced to every connected peer."""
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=2000.0)
        assert ca.complete
        pb = peer_of(cb, ca)
        # The seeder learned all 8 pieces via HAVE messages.
        assert pb.peer_bitfield.complete

    def test_seeder_transition_sends_notinterested(self):
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=2000.0)
        pa = peer_of(ca, cb)
        assert ca.complete
        assert not pa.am_interested

    def test_endgame_cancels_duplicates(self):
        """When a piece completes, duplicate endgame requests to other
        peers are CANCELled."""
        testbed, ca, cb = make_pair()
        sim = testbed.sim
        sim.run(until=30.0)
        pa = peer_of(ca, cb)
        # Fake a second peer holding a duplicate in-flight request.
        from repro.bittorrent.peer import PeerConnection
        from repro.net.socket_api import Socket

        ghost_sock = Socket(ca.vnode.pnode.stack)
        ghost = PeerConnection(ca, ghost_sock, initiated=True)
        ghost.inflight.add((0, 0))
        ca._peers[999] = ghost
        ca._on_piece_complete(0)
        assert (0, 0) not in ghost.inflight
        del ca._peers[999]


class TestSwarmHelpers:
    def test_set_access_link_changes_pipe(self):
        swarm = Swarm(SwarmConfig(leechers=2, seeders=1, file_size=1 * MB,
                                  stagger=0.5, num_pnodes=1, seed=8))
        client = swarm.leechers[0]
        swarm.set_access_link(client, up_bw=kbps(16))
        fw = client.vnode.pnode.stack.fw
        up = fw.pipe(2 * client.vnode.address.value)
        assert up.bandwidth == kbps(16)

    def test_completed_event_announced_to_tracker(self):
        swarm = Swarm(SwarmConfig(leechers=2, seeders=1, file_size=512 * KB,
                                  stagger=0.5, num_pnodes=1, seed=8))
        swarm.run(max_time=5000)
        swarm.sim.run(until=swarm.sim.now + 60)  # let announces drain
        infohash = swarm.torrent.infohash
        swarm_state = swarm.tracker._swarms[infohash]
        seeders = sum(1 for (_a, _p, left) in swarm_state.values() if left == 0)
        # Initial seeder + both completed leechers.
        assert seeders == 3
