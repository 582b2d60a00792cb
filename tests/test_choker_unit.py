"""Unit tests for the choker's slot allocation, run against stub peers
(no network) — pinning the policy details the swarm tests only
exercise statistically."""

import pytest

from repro.bittorrent.choker import Choker, RateMeter
from repro.sim import Simulator


class StubPeer:
    """Minimal stand-in for PeerConnection."""

    def __init__(self, name, interested=True, down_rate=0.0, up_rate=0.0, snubbed=False):
        self.name = name
        self.handshaked = True
        self.closed = False
        self.peer_interested = interested
        self.am_choking = True
        self._down = down_rate
        self._up = up_rate
        self._snubbed = snubbed
        self.download_meter = self._Meter(down_rate)
        self.upload_meter = self._Meter(up_rate)

    class _Meter:
        def __init__(self, rate):
            self._rate = rate

        def rate(self, _now):
            return self._rate

    def snubbed(self, _now, _timeout):
        return self._snubbed

    def local_choke(self):
        self.am_choking = True

    def local_unchoke(self):
        self.am_choking = False

    def __repr__(self):
        return f"StubPeer({self.name})"


class StubClient:
    def __init__(self, peers, complete=False):
        self._peers = peers
        self.complete = complete
        self.stopped = False

        class _V:
            pass

        self.vnode = _V()
        self.vnode.name = "stub"
        self.vnode.sim = Simulator(seed=77)

        class _Cfg:
            snub_timeout = 60.0

        self.config = _Cfg()

    def peers(self):
        return self._peers


def unchoked(peers):
    return {p.name for p in peers if not p.am_choking}


class TestChokerPolicy:
    def test_top_uploaders_get_regular_slots(self):
        peers = [StubPeer(f"p{i}", down_rate=i * 100.0) for i in range(8)]
        client = StubClient(peers)
        choker = Choker(client, upload_slots=4)
        choker.rechoke()
        winners = unchoked(peers)
        # Three regular slots go to the fastest uploaders; one slot is
        # the optimistic draw (which may collapse onto a top uploader).
        assert {"p7", "p6", "p5"} <= winners
        assert 3 <= len(winners) <= 4

    def test_uninterested_peers_never_unchoked(self):
        peers = [
            StubPeer("busy", interested=True, down_rate=10.0),
            StubPeer("watcher", interested=False, down_rate=999.0),
        ]
        client = StubClient(peers)
        choker = Choker(client, upload_slots=4)
        choker.rechoke()
        assert "watcher" not in unchoked(peers)

    def test_seeder_ranks_by_upload_rate(self):
        peers = [
            StubPeer("slow", up_rate=1.0),
            StubPeer("fast", up_rate=100.0),
        ]
        client = StubClient(peers, complete=True)
        choker = Choker(client, upload_slots=1, optimistic_rounds=1000)
        # Prevent an optimistic pick from stealing the single slot:
        # skip round 0's mandatory draw and accept None as valid.
        choker.round = 1
        choker.optimistic = None
        choker._valid_optimistic = lambda interested: True
        choker.rechoke()
        assert unchoked(peers) == {"fast"}

    def test_snubbed_peer_loses_regular_slot(self):
        peers = [
            StubPeer("good", down_rate=10.0),
            StubPeer("snubber", down_rate=999.0, snubbed=True),
            StubPeer("ok", down_rate=5.0),
        ]
        client = StubClient(peers)
        choker = Choker(client, upload_slots=2, optimistic_rounds=1000)
        choker.round = 1
        choker.optimistic = None
        choker._valid_optimistic = lambda interested: True
        choker.rechoke()
        winners = unchoked(peers)
        assert "snubber" not in winners
        assert winners == {"good", "ok"}

    def test_optimistic_rotates_among_choked(self):
        peers = [StubPeer(f"p{i}", down_rate=0.0) for i in range(10)]
        client = StubClient(peers)
        choker = Choker(client, upload_slots=1, optimistic_rounds=1)
        seen = set()
        for _ in range(20):
            choker.rechoke()
            if choker.optimistic is not None:
                seen.add(choker.optimistic.name)
            for p in peers:
                p.am_choking = True  # reset between rounds
        assert len(seen) >= 3  # rotation actually explores peers

    def test_no_peers_no_crash(self):
        client = StubClient([])
        Choker(client).rechoke()

    def test_choke_everyone_not_interested(self):
        peers = [StubPeer(f"p{i}", interested=False) for i in range(3)]
        client = StubClient(peers)
        choker = Choker(client, upload_slots=4)
        choker.rechoke()
        assert unchoked(peers) == set()


class TestMissingMeters:
    """A connection builds a rate meter at its first byte; until then
    the choker must read it exactly as an unused meter (rate 0.0)."""

    # (name, bytes received from the peer at t=1, bytes sent to it)
    TRAFFIC = [
        ("a", 0, 0), ("b", 50_000, 0), ("c", 0, 0), ("d", 0, 80_000),
        ("e", 20_000, 20_000), ("f", 0, 0), ("g", 0, 0), ("h", 90_000, 0),
        ("i", 0, 0), ("j", 0, 5_000),
    ]

    def _run(self, complete, build_unused):
        peers = []
        for name, down, up in self.TRAFFIC:
            peer = StubPeer(name)
            for attr, nbytes in (("download_meter", down), ("upload_meter", up)):
                meter = RateMeter() if nbytes or build_unused else None
                if nbytes:
                    meter.record(1.0, nbytes)
                setattr(peer, attr, meter)
            peers.append(peer)
        client = StubClient(peers, complete=complete)
        choker = Choker(client, upload_slots=4, optimistic_rounds=2)
        rounds = []
        for _ in range(6):
            choker.rechoke()
            rounds.append((unchoked(peers), choker.optimistic.name))
            client.vnode.sim.run(until=client.vnode.sim.now + 10.0)
        return rounds, peers

    @pytest.mark.parametrize("complete", [False, True], ids=["leecher", "seeder"])
    def test_missing_meter_ranks_like_an_unused_one(self, complete):
        every, _ = self._run(complete, build_unused=True)
        mixed, peers = self._run(complete, build_unused=False)
        assert mixed == every
        # The mixed run really had both kinds, and reading built none.
        assert any(p.download_meter is None for p in peers)
        assert any(p.upload_meter is None for p in peers)
        assert sum(p.download_meter is not None for p in peers) == 3
