"""Per-connection peer wire protocol state machine.

Each :class:`PeerConnection` mirrors one TCP connection to a remote
peer: the four classic flags (am_choking / am_interested /
peer_choking / peer_interested), the peer's bitfield, the in-flight
request set and two rate meters. The request set exists only while a
request is outstanding and each meter from its first byte on: most
sides of a large swarm never request from or trade with their peer, so
neither is built for them. Message handling is callback-driven (the
side is its connection's receiver, not a process polling a socket) so
the 5754-client scalability run does not pay one blocked generator per
connection. A side holds its :class:`~repro.net.tcp.Connection`, not
the socket it was handed: the socket dies with the application frame
that built it.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple, TYPE_CHECKING

from repro.bittorrent import messages as msg
from repro.bittorrent.bitfield import Bitfield
from repro.bittorrent.choker import RateMeter
from repro.errors import SocketError
from repro.net.tcp import Connection

if TYPE_CHECKING:  # pragma: no cover
    from repro.bittorrent.client import BitTorrentClient


class PeerConnection:
    """One live connection to a remote peer."""

    __slots__ = (
        "client",
        "sock",
        "initiated",
        "handshaked",
        "peer_id",
        "remote_ip",
        "am_choking",
        "am_interested",
        "peer_choking",
        "peer_interested",
        "peer_bitfield",
        "_inflight",
        "download_meter",
        "upload_meter",
        "closed",
        "messages_in",
        "cancels_received",
        "last_piece_at",
        "first_request_at",
    )

    def __init__(self, client: "BitTorrentClient", sock, initiated: bool) -> None:
        self.client = client
        conn = sock.connection
        #: The connection once connected; a socket that never connected
        #: is kept as it is (a send on it fails, and that closes the side).
        self.sock = sock if conn is None else conn
        self.initiated = initiated
        self.handshaked = False
        self.peer_id: Optional[str] = None
        self.remote_ip = conn.remote[0] if conn is not None else None
        self.am_choking = True
        self.am_interested = False
        self.peer_choking = True
        self.peer_interested = False
        self.peer_bitfield = Bitfield(client.torrent.num_pieces)
        #: Outstanding ``(piece, block)`` requests; ``None`` while
        #: there are none (see :attr:`inflight`).
        self._inflight: Optional[Set[Tuple[int, int]]] = None
        #: Built at the first byte received from / sent to this peer;
        #: the choker reads a missing meter as rate 0.0, which is what
        #: an unused one reports.
        self.download_meter: Optional[RateMeter] = None
        self.upload_meter: Optional[RateMeter] = None
        self.closed = False
        self.messages_in = 0
        self.cancels_received = 0
        self.last_piece_at: float = -1.0
        self.first_request_at: float = -1.0

    @property
    def inflight(self) -> Set[Tuple[int, int]]:
        """The outstanding requests, as a set the caller may change
        (built empty if none is outstanding)."""
        inflight = self._inflight
        if inflight is None:
            inflight = self._inflight = set()
        return inflight

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the protocol: receive the connection's messages and,
        as the initiator, send our handshake immediately."""
        conn = self.sock
        if not isinstance(conn, Connection):
            self.close()
            return
        conn.subscribe(self)
        if self.initiated:
            self.send(msg.Handshake(self.client.torrent.infohash, self.client.peer_id))

    def send(self, message: msg.Message) -> None:
        if self.closed:
            return
        try:
            self.sock.send(message, message.wire_size)
        except SocketError:
            self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._refund_inflight()
        self.sock.close()
        self.client.on_peer_closed(self)

    # ------------------------------------------------------------------
    def local_choke(self) -> None:
        """Choker decision: stop serving this peer."""
        if self.am_choking or self.closed:
            return
        self.am_choking = True
        self.send(msg.Choke())

    def local_unchoke(self) -> None:
        if not self.am_choking or self.closed:
            return
        self.am_choking = False
        self.send(msg.Unchoke())

    def set_interested(self, interested: bool) -> None:
        if interested == self.am_interested or self.closed:
            return
        self.am_interested = interested
        self.send(msg.Interested() if interested else msg.NotInterested())

    # ------------------------------------------------------------------
    def on_message(self, item) -> None:
        """One ``(message, size)`` from the connection, ``None`` at EOF."""
        if item is None:
            self.close()
            return
        message, _size = item
        self.messages_in += 1
        if isinstance(message, msg.Handshake):
            self._on_handshake(message)
            return
        if not self.handshaked:
            # Protocol violation: data before handshake.
            self.close()
            return
        kind = type(message)
        if kind is msg.Piece:
            inflight = self._inflight
            if inflight is not None:
                inflight.discard((message.index, message.block))
            now = self.client.vnode.sim.now
            self.last_piece_at = now
            if not inflight:
                self._inflight = None
                self.first_request_at = -1.0
            meter = self.download_meter
            if meter is None:
                meter = self.download_meter = RateMeter()
            meter.record(now, message.length)
            self.client.on_piece(self, message)
        elif kind is msg.Request:
            self.client.on_request(self, message)
        elif kind is msg.Have:
            self.peer_bitfield.set(message.index)
            self.client.on_have(self, message.index)
        elif kind is msg.BitfieldMsg:
            self.peer_bitfield = message.bitfield
            self.client.picker.peer_bitfield_added(self.peer_bitfield)
            self.client.update_interest(self)
        elif kind is msg.Unchoke:
            if self.peer_choking:
                self.peer_choking = False
                self.client.fill_requests(self)
        elif kind is msg.Choke:
            if not self.peer_choking:
                self.peer_choking = True
                self._refund_inflight()
        elif kind is msg.Interested:
            self.peer_interested = True
        elif kind is msg.NotInterested:
            self.peer_interested = False
        elif kind is msg.Cancel:
            self.cancels_received += 1
            # Queued uploads are already in the transport; nothing to do.
        # KeepAlive: ignored.

    #: The name this handler had when it was the channel's subscriber.
    _on_message = on_message

    def _on_handshake(self, hs: msg.Handshake) -> None:
        if hs.infohash != self.client.torrent.infohash:
            self.close()
            return
        self.peer_id = hs.peer_id
        self.handshaked = True
        if not self.initiated:
            # Acceptor replies with its own handshake.
            self.send(msg.Handshake(self.client.torrent.infohash, self.client.peer_id))
        # Both sides follow the handshake with their bitfield (a
        # super-seeder advertises nothing and reveals pieces one HAVE
        # at a time instead).
        advertised = self.client.advertised_bitfield()
        if advertised is not None and not advertised.empty:
            self.send(msg.BitfieldMsg(advertised))
        self.client.on_peer_ready(self)

    def snubbed(self, now: float, timeout: float) -> bool:
        """Mainline anti-snubbing: the peer owes us requested data and
        has not delivered anything for ``timeout`` seconds. Snubbed
        peers lose their regular unchoke slot (optimistic only)."""
        if not self._inflight:
            return False
        reference = self.last_piece_at
        if reference < 0:
            reference = self.first_request_at
        return reference >= 0 and (now - reference) > timeout

    def note_request_sent(self, now: float) -> None:
        if self.first_request_at < 0:
            self.first_request_at = now

    def _refund_inflight(self) -> None:
        inflight = self._inflight
        if inflight is not None:
            for index, block in inflight:
                self.client.picker.on_request_failed(index, block)
            self._inflight = None
        self.first_request_at = -1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            c if f else "-"
            for c, f in [
                ("C", self.am_choking),
                ("I", self.am_interested),
                ("c", self.peer_choking),
                ("i", self.peer_interested),
            ]
        )
        return f"PeerConnection({self.remote_ip}, {flags}, inflight={len(self._inflight or ())})"
