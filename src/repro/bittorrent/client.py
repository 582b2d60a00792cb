"""The full BitTorrent client (mainline 4.x behaviour).

Lifecycle, as in the paper's experiments: start → announce to the
tracker → connect to peers → trade pieces under the choker → on
completion "stay online and become seeders, continuing to upload data
to the downloaders".

The client is an application in the P2PLab sense: it runs on a virtual
node and uses only the intercepted libc / emulated socket API for I/O.
Its tunables live in :class:`ClientConfig` — a nod to the paper's
remark that "the large number of constants used as parameters of all
the important algorithms makes it very hard to model accurately"; here
they are all explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.bittorrent import messages as msg
from repro.bittorrent.bitfield import Bitfield
from repro.bittorrent.choker import Choker, RateMeter
from repro.bittorrent.metainfo import Torrent
from repro.bittorrent.peer import PeerConnection
from repro.bittorrent.piece_picker import PiecePicker
from repro.bittorrent.tracker import AnnounceRequest, announce_once
from repro.errors import SocketError
from repro.net.addr import IPv4Address
from repro.net.socket_api import ANY, Socket
from repro.sim.process import TIMEOUT
from repro.units import MB
from repro.virt.vnode import VirtualNode


@dataclass
class ClientConfig:
    """All the knobs of the client's algorithms."""

    listen_port: int = 6881
    #: Connection management.
    max_peers: int = 55
    min_peers: int = 20
    maintain_interval: float = 15.0
    connect_timeout: float = 30.0
    #: Choker.
    upload_slots: int = 4
    rechoke_interval: float = 10.0
    optimistic_rounds: int = 3
    #: Requests.
    pipeline: int = 5
    #: Piece picking.
    random_first: int = 4
    endgame: bool = True
    #: Anti-snubbing: a peer owing requested data for this long loses
    #: its regular unchoke slot (mainline: 60 s). 0 disables.
    snub_timeout: float = 60.0
    #: Super-seeding (BitTorrent 4.x "-s" mode): an initial seeder
    #: masquerades as having nothing and reveals one piece per peer,
    #: granting the next only once another peer announces that piece —
    #: minimizing the bytes the seeder must upload per distributed copy.
    super_seed: bool = False
    #: Tracker.
    announce_interval: float = 300.0
    numwant: int = 50
    #: "tcp" (HTTP-style, the 2006 default) or "udp" (BEP 15).
    tracker_transport: str = "tcp"
    #: CPU cost of hashing one MB of received data (accounted on the
    #: hosting physical node; see the folding ablation).
    hash_cost_per_mb: float = 0.005
    #: Failure injection: probability that a completed piece fails its
    #: hash check (disk/TCP-checksum-escape corruption) and must be
    #: re-downloaded. 0 disables.
    corruption_rate: float = 0.0
    #: Paper behaviour: "they stay online and become seeders". False
    #: models selfish clients that disconnect upon completing.
    seed_after_complete: bool = True
    #: TCP send window per connection (bytes).
    send_window: int = 256 * 1024


class BitTorrentClient:
    """One peer: leecher or initial seeder."""

    def __init__(
        self,
        vnode: VirtualNode,
        torrent: Torrent,
        seeder: bool = False,
        config: Optional[ClientConfig] = None,
    ) -> None:
        self.vnode = vnode
        self.torrent = torrent
        self.config = config if config is not None else ClientConfig()
        self.peer_id = f"RP-{vnode.name}"
        self.initial_seeder = seeder
        self.have = Bitfield(torrent.num_pieces, full=seeder)
        self.picker = PiecePicker(
            torrent,
            self.have,
            vnode.sim.rng.stream(f"bt.picker/{vnode.name}"),
            random_first=self.config.random_first,
            endgame_enabled=self.config.endgame,
        )
        self.choker = Choker(
            self,
            interval=self.config.rechoke_interval,
            upload_slots=self.config.upload_slots,
            optimistic_rounds=self.config.optimistic_rounds,
        )
        self._peers: Dict[int, PeerConnection] = {}  # remote ip value -> conn
        self._connecting: Set[int] = set()
        self._candidates: List[Tuple[IPv4Address, int]] = []
        self.stopped = False
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None if not seeder else 0.0
        self.bytes_downloaded = 0
        self.bytes_uploaded = 0
        self.payload_received = 0
        self.failed_connects = 0
        self.corrupt_pieces = 0
        self._listen_sock: Optional[Socket] = None
        # Super-seeding state: which piece each peer was granted, and
        # how often each piece has been revealed.
        self._ss_assigned: Dict[int, int] = {}  # peer ip value -> piece
        self._ss_reveal_count: Dict[int, int] = {}  # piece -> grants
        self.ss_pieces_redistributed = 0
        # Shared observability instruments (swarm-wide aggregation).
        registry = vnode.sim.metrics
        self._m_pieces = registry.counter("bt.client.pieces_completed")
        self._m_piece_time = registry.histogram("bt.client.piece_completion_seconds")
        self._m_corrupt = registry.counter("bt.client.corrupt_pieces")
        self._m_completions = registry.counter("bt.swarm.completions")
        self._m_download_time = registry.histogram("bt.swarm.download_seconds")

    # -- lifecycle -------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.have.complete

    @property
    def progress(self) -> float:
        """Fraction of the file downloaded."""
        return self.have.fraction()

    def start(self) -> None:
        """Launch the client's processes on its virtual node."""
        self.started_at = self.vnode.sim.now
        self.vnode.log("bt.start", seeder=self.initial_seeder)
        self.vnode.spawn(_listener_app(self), name=f"{self.vnode.name}/listen")
        self.vnode.spawn(_main_app(self), name=f"{self.vnode.name}/main")
        self.choker.start()

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        self.choker.stop()
        if self._listen_sock is not None:
            self._listen_sock.close()
        for peer in list(self._peers.values()):
            peer.close()

    # -- peer management ----------------------------------------------------
    def peers(self) -> List[PeerConnection]:
        return list(self._peers.values())

    @property
    def peer_count(self) -> int:
        return len(self._peers)

    def _register(self, conn: PeerConnection) -> bool:
        """Track a connection by remote identity; reject duplicates/self."""
        ip_value = conn.remote_ip.value if conn.remote_ip is not None else 0
        if ip_value == self.vnode.address.value or ip_value in self._peers:
            return False
        if len(self._peers) >= self.config.max_peers:
            return False
        self._peers[ip_value] = conn
        return True

    def on_incoming(self, sock: Socket) -> None:
        conn = PeerConnection(self, sock, initiated=False)
        ip_value = conn.remote_ip.value if conn.remote_ip is not None else 0
        existing = self._peers.get(ip_value)
        if existing is not None and existing.initiated and not existing.handshaked:
            # Simultaneous open: both sides connected to each other at
            # once. Deterministic tie-break — the connection initiated
            # by the lower-addressed peer survives on both sides.
            if self.vnode.address.value > ip_value:
                existing.close()
            else:
                sock.close()
                return
        if not self._register(conn):
            sock.close()
            return
        conn.start()

    @property
    def super_seeding(self) -> bool:
        return self.config.super_seed and self.initial_seeder

    def advertised_bitfield(self) -> Optional[Bitfield]:
        """What we claim to have at handshake time (None = nothing)."""
        return None if self.super_seeding else self.have

    def on_peer_ready(self, conn: PeerConnection) -> None:
        """Handshake completed in both directions."""
        self.update_interest(conn)
        if self.super_seeding:
            self._ss_grant(conn)

    def on_have(self, conn: PeerConnection, index: int) -> None:
        """A peer announced a piece."""
        self.picker.peer_has(index)
        self.update_interest(conn)
        if self.super_seeding:
            self._ss_on_have(conn, index)

    # -- super-seeding --------------------------------------------------
    def _ss_grant(self, conn: PeerConnection) -> None:
        """Reveal one more piece to this peer (the least-revealed piece
        it does not already hold)."""
        ip_value = conn.remote_ip.value if conn.remote_ip is not None else 0
        candidates = [
            i for i in range(self.torrent.num_pieces)
            if i not in conn.peer_bitfield
        ]
        if not candidates:
            return
        index = min(
            candidates,
            key=lambda i: (self._ss_reveal_count.get(i, 0), self.picker.availability[i], i),
        )
        self._ss_assigned[ip_value] = index
        self._ss_reveal_count[index] = self._ss_reveal_count.get(index, 0) + 1
        conn.send(msg.Have(index))

    def _ss_on_have(self, conn: PeerConnection, index: int) -> None:
        """Mainline rule: when some peer announces a piece we assigned
        to a *different* peer, that peer has redistributed its grant
        and earns the next piece."""
        announcer = conn.remote_ip.value if conn.remote_ip is not None else 0
        for ip_value, assigned in list(self._ss_assigned.items()):
            if assigned != index or ip_value == announcer:
                continue
            peer = self._peers.get(ip_value)
            del self._ss_assigned[ip_value]
            self.ss_pieces_redistributed += 1
            if peer is not None and not peer.closed:
                self._ss_grant(peer)
        # Degenerate case: a lone peer can never be vouched for by
        # another peer; grant it the next piece on its own announce so
        # a 1-leecher swarm does not stall.
        if (
            self._ss_assigned.get(announcer) == index
            and len(self._peers) == 1
        ):
            del self._ss_assigned[announcer]
            self._ss_grant(conn)

    def on_peer_closed(self, conn: PeerConnection) -> None:
        ip_value = conn.remote_ip.value if conn.remote_ip is not None else 0
        if self._peers.get(ip_value) is conn:
            del self._peers[ip_value]
            if conn.handshaked:
                self.picker.peer_bitfield_removed(conn.peer_bitfield)

    # -- interest and requests ---------------------------------------------------
    def update_interest(self, conn: PeerConnection) -> None:
        interesting = self.picker.interesting(conn.peer_bitfield)
        conn.set_interested(interesting)
        if interesting and not conn.peer_choking:
            self.fill_requests(conn)

    def fill_requests(self, conn: PeerConnection) -> None:
        """Keep the request pipeline to this peer full."""
        if self.complete or conn.peer_choking or conn.closed:
            return
        now = self.vnode.sim.now
        pipeline = self.config.pipeline
        while not conn.closed:
            # A failed send closes the connection, and the close refunds
            # the set: stop there, or the next requests would be marked
            # in the picker on a side that nothing refunds again.
            inflight = conn._inflight
            if inflight is not None and len(inflight) >= pipeline:
                break
            req = self.picker.next_request(conn.peer_bitfield, exclude=inflight)
            if req is None:
                break
            if inflight is None:
                inflight = conn._inflight = set()
            inflight.add(req)
            conn.note_request_sent(now)
            conn.send(msg.Request(*req))

    # -- uploads ------------------------------------------------------------------
    def on_request(self, conn: PeerConnection, request: msg.Request) -> None:
        if conn.am_choking:
            return  # stale request racing our CHOKE; mainline ignores it
        if request.index not in self.have:
            return
        length = self.torrent.block_size_of(request.index, request.block)
        meter = conn.upload_meter
        if meter is None:
            meter = conn.upload_meter = RateMeter()
        meter.record(self.vnode.sim.now, length)
        self.bytes_uploaded += length
        conn.send(msg.Piece(request.index, request.block, length))

    # -- downloads ------------------------------------------------------------------
    def on_piece(self, conn: PeerConnection, piece: msg.Piece) -> None:
        self.bytes_downloaded += piece.length
        result = self.picker.on_block(piece.index, piece.block)
        if result == "dup":
            self.fill_requests(conn)
            return
        if result == "piece":
            self._on_piece_complete(piece.index)
        self.fill_requests(conn)

    def _on_piece_complete(self, index: int) -> None:
        size = self.torrent.piece_size(index)
        # Hash verification cost lands on the hosting physical node.
        self.vnode.pnode.cpu.charge(self.config.hash_cost_per_mb * size / MB)
        if self.config.corruption_rate > 0.0:
            rng = self.vnode.sim.rng.stream(f"bt.corrupt/{self.vnode.name}")
            if rng.random() < self.config.corruption_rate:
                # Hash check failed: discard and re-download the piece.
                self.corrupt_pieces += 1
                self._m_corrupt.inc()
                self.picker.discard_piece(index)
                self.vnode.log("bt.corrupt", piece=index)
                for peer in self.peers():
                    if peer.handshaked:
                        self.update_interest(peer)
                return
        self.payload_received += size
        self._m_pieces.inc()
        # Sim-time from this client's start to the piece's completion —
        # the per-piece shape of the Fig. 8 download-evolution curves.
        self._m_piece_time.observe(self.vnode.sim.now - (self.started_at or 0.0))
        self.vnode.log(
            "bt.progress",
            pct=100.0 * self.progress,
            payload=self.payload_received,
            piece=index,
        )
        for peer in self._peers.values():
            if peer.handshaked and not peer.closed:
                peer.send(msg.Have(index))
        self._cancel_endgame_duplicates(index)
        for peer in self.peers():
            if peer.handshaked:
                self.update_interest(peer)
        if self.complete and self.completed_at is None:
            self.completed_at = self.vnode.sim.now
            self._m_completions.inc()
            self._m_download_time.observe(
                self.completed_at - (self.started_at or 0.0)
            )
            self.vnode.log(
                "bt.complete",
                duration=self.completed_at - (self.started_at or 0.0),
                downloaded=self.bytes_downloaded,
                uploaded=self.bytes_uploaded,
            )
            # Mainline announces event=completed so the tracker counts
            # this peer among the seeders.
            if self.torrent.tracker_addr is not None and not self.stopped:
                announce = self._announce_fn()
                event = "completed" if self.config.seed_after_complete else "stopped"
                self.vnode.spawn(
                    lambda vn: announce(
                        vn,
                        self.torrent.tracker_addr,
                        self._announce_request(event),
                    ),
                    name=f"{self.vnode.name}/announce-{event}",
                )
            if not self.config.seed_after_complete:
                # Selfish departure: disconnect instead of seeding.
                self.vnode.sim.schedule(0.0, self.stop)

    def _cancel_endgame_duplicates(self, index: int) -> None:
        """CANCEL outstanding duplicate requests for a finished piece."""
        for peer in self._peers.values():
            inflight = peer._inflight
            if peer.closed or not inflight:
                continue
            stale = [(i, b) for (i, b) in inflight if i == index]
            for i, b in stale:
                inflight.discard((i, b))
                peer.send(msg.Cancel(i, b))
            if not inflight:
                peer._inflight = None

    # -- tracker/candidates -----------------------------------------------------------
    def add_candidates(self, peers: List[Tuple[IPv4Address, int]]) -> None:
        known = {p for p in self._candidates}
        me = (self.vnode.address, self.config.listen_port)
        for peer in peers:
            if peer != me and peer not in known:
                self._candidates.append(peer)
                known.add(peer)

    def _announce_fn(self):
        """The announce generator matching the configured transport."""
        if self.config.tracker_transport == "udp":
            from repro.bittorrent.udp_tracker import udp_announce_once

            return udp_announce_once
        return announce_once

    def _announce_request(self, event: str) -> AnnounceRequest:
        left = self.torrent.total_size - int(self.progress * self.torrent.total_size)
        return AnnounceRequest(
            infohash=self.torrent.infohash,
            peer_ip=self.vnode.address,
            peer_port=self.config.listen_port,
            event=event,
            left=left,
            numwant=self.config.numwant,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitTorrentClient({self.vnode.name}, {100 * self.progress:.0f}%, "
            f"peers={len(self._peers)})"
        )


# ----------------------------------------------------------------------
# Application processes (generators run on the virtual node).
# ----------------------------------------------------------------------

def _listener_app(client: BitTorrentClient):
    def app(vnode: VirtualNode):
        libc = vnode.libc
        sock = yield from libc.socket(window=client.config.send_window)
        yield from libc.bind(sock, (ANY, client.config.listen_port))
        yield from libc.listen(sock)
        client._listen_sock = sock
        while not client.stopped:
            incoming = yield from libc.accept(sock)
            if incoming is None:
                break
            client.on_incoming(incoming)
            # The peer holds what it needs; an accepted Socket kept here
            # would live until the next accept.
            del incoming

    return app


def _connector_app(client: BitTorrentClient, addr: Tuple[IPv4Address, int]):
    def app(vnode: VirtualNode):
        libc = vnode.libc
        ip_value = addr[0].value
        client._connecting.add(ip_value)
        try:
            sock = yield from libc.socket(window=client.config.send_window)
            # The intercepted connect() binds the source to BINDIP —
            # without it the connection would carry the physical node's
            # admin address and escape both the per-node shaping and
            # the peer's identity bookkeeping.
            if libc.effective:
                yield from libc.restrict(sock)
            sock_sig = sock.connect((addr[0], addr[1]))
            result = yield (sock_sig, client.config.connect_timeout)
            if result is TIMEOUT or isinstance(result, SocketError) or client.stopped:
                client.failed_connects += 1
                sock.close()
                return
            conn = PeerConnection(client, sock, initiated=True)
            if not client._register(conn):
                sock.close()
                return
            conn.start()
        finally:
            client._connecting.discard(ip_value)

    return app


def _main_app(client: BitTorrentClient):
    """Announce loop + connection maintenance."""

    def app(vnode: VirtualNode):
        cfg = client.config
        announce = client._announce_fn()
        next_announce = 0.0
        while not client.stopped:
            now = vnode.sim.now
            if now >= next_announce and client.torrent.tracker_addr is not None:
                event = "started" if next_announce == 0.0 else ""
                peers = yield from announce(
                    vnode, client.torrent.tracker_addr, client._announce_request(event)
                )
                if peers is not None:
                    client.add_candidates(peers)
                    next_announce = vnode.sim.now + cfg.announce_interval
                else:
                    # Tracker unreachable: retry soon, not a full
                    # announce interval later (mainline behaviour).
                    next_announce = vnode.sim.now + 2 * cfg.maintain_interval
            # Open connections towards min_peers. Attempts get a small
            # random delay and the maintenance period is jittered, as
            # in real clients — without this, co-hosted peers act in
            # lockstep and simultaneous opens cancel each other out.
            want = cfg.min_peers - client.peer_count - len(client._connecting)
            rng = vnode.sim.rng.stream(f"bt.connect/{vnode.name}")
            attempts = 0
            while want > 0 and client._candidates and attempts < 2 * cfg.min_peers:
                attempts += 1
                addr = client._candidates.pop(
                    rng.randrange(len(client._candidates))
                )
                if addr[0].value in client._peers or addr[0].value in client._connecting:
                    continue
                vnode.spawn(
                    _connector_app(client, addr), start_delay=rng.random()
                )
                want -= 1
            yield cfg.maintain_interval * (0.75 + 0.5 * rng.random())

    return app
