"""Tracker: the swarm rendezvous service.

One request/response exchange over TCP per announce (the real protocol
is HTTP GET over TCP; the emulation carries the same information in one
message each way with equivalent wire sizes). The tracker keeps the
swarm membership per infohash and answers with a random sample of other
peers, exactly what mainline clients get.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SocketError
from repro.net.addr import IPv4Address
from repro.net.socket_api import ANY, Socket
from repro.sim.process import TIMEOUT
from repro.virt.vnode import VirtualNode

DEFAULT_TRACKER_PORT = 6969

#: Wire size of an announce GET (URL + headers, roughly).
ANNOUNCE_REQUEST_SIZE = 220
#: Base wire size of the bencoded response, plus 6 bytes per peer.
ANNOUNCE_RESPONSE_BASE = 60
PEER_ENTRY_SIZE = 6


@dataclass(frozen=True)
class AnnounceRequest:
    """What a client tells the tracker."""

    infohash: int
    peer_ip: IPv4Address
    peer_port: int
    event: str = ""  # "started", "completed", "stopped" or ""
    left: int = 0
    numwant: int = 50

    @property
    def wire_size(self) -> int:
        return ANNOUNCE_REQUEST_SIZE


@dataclass(frozen=True)
class AnnounceResponse:
    """What the tracker answers."""

    peers: Tuple[Tuple[IPv4Address, int], ...]
    interval: float
    complete: int  # seeders in swarm
    incomplete: int  # leechers in swarm

    @property
    def wire_size(self) -> int:
        return ANNOUNCE_RESPONSE_BASE + PEER_ENTRY_SIZE * len(self.peers)


class TrackerServer:
    """The tracker application; runs on its own virtual node."""

    def __init__(
        self,
        vnode: VirtualNode,
        port: int = DEFAULT_TRACKER_PORT,
        interval: float = 300.0,
    ) -> None:
        self.vnode = vnode
        self.port = port
        self.interval = interval
        # infohash -> (ip value, port) -> (addr, port, left)
        self._swarms: Dict[int, Dict[Tuple[int, int], Tuple[IPv4Address, int, int]]] = {}
        # infohash -> (ip value, port) -> (addr, port): one tuple per
        # registered peer, handed out in every peer list (clients keep
        # those lists, so a fresh tuple per announce would add up).
        self._peers: Dict[int, Dict[Tuple[int, int], Tuple[IPv4Address, int]]] = {}
        self.announces = 0
        self.stopped = False
        self._rng = vnode.sim.rng.stream(f"tracker/{vnode.name}")

    @property
    def address(self) -> Tuple[IPv4Address, int]:
        return (self.vnode.address, self.port)

    def start(self) -> None:
        self.vnode.spawn(self._app, name=f"{self.vnode.name}/tracker")

    def stop(self) -> None:
        self.stopped = True

    def swarm_size(self, infohash: int) -> int:
        return len(self._swarms.get(infohash, {}))

    # ------------------------------------------------------------------
    def _app(self, vnode: VirtualNode):
        libc = vnode.libc
        sock = yield from libc.socket()
        yield from libc.bind(sock, (ANY, self.port))
        yield from libc.listen(sock, backlog=1024)
        while not self.stopped:
            conn = yield from libc.accept(sock)
            if conn is None:
                break
            vnode.spawn(lambda vn, c=conn: self._serve(vn, c))

    def _serve(self, vnode: VirtualNode, conn: Socket):
        """Handle one announce connection."""
        libc = vnode.libc
        item = yield from libc.recv(conn)
        if item is not None:
            request, _size = item
            response = self.handle_announce(request)
            try:
                yield from libc.send(conn, response, response.wire_size)
            except SocketError:
                pass
        yield from libc.close(conn)

    # ------------------------------------------------------------------
    def handle_announce(self, request: AnnounceRequest) -> AnnounceResponse:
        """Update swarm state and build the peer sample."""
        self.announces += 1
        swarm = self._swarms.setdefault(request.infohash, {})
        peers = self._peers.setdefault(request.infohash, {})
        key = (request.peer_ip.value, request.peer_port)
        if request.event == "stopped":
            swarm.pop(key, None)
            peers.pop(key, None)
        else:
            swarm[key] = (request.peer_ip, request.peer_port, request.left)
            if key not in peers:
                peers[key] = (request.peer_ip, request.peer_port)
        # Both dicts gain and lose keys together, so ``peers`` lists
        # the swarm in its order.
        others = [peer for k, peer in peers.items() if k != key]
        count = min(request.numwant, len(others))
        sample = self._rng.sample(others, count) if count else []
        complete = sum(1 for (_a, _p, left) in swarm.values() if left == 0)
        return AnnounceResponse(
            peers=tuple(sample),
            interval=self.interval,
            complete=complete,
            incomplete=len(swarm) - complete,
        )


def announce_once(
    vnode: VirtualNode,
    tracker_addr: Tuple[IPv4Address, int],
    request: AnnounceRequest,
    timeout: float = 30.0,
):
    """Generator helper: one announce exchange.

    Returns the peer list, or ``None`` on any failure (the caller
    retries on its next maintenance round).
    """
    libc = vnode.libc
    sock = yield from libc.socket()
    if libc.effective:
        yield from libc.restrict(sock)  # intercepted connect(): bind to BINDIP
    sig = sock.connect(tracker_addr)
    result = yield (sig, timeout)
    if result is TIMEOUT or isinstance(result, SocketError):
        sock.close()
        return None
    try:
        yield from libc.send(sock, request, request.wire_size)
    except SocketError:
        sock.close()
        return None
    item = yield (sock.recv(), timeout)
    yield from libc.close(sock)
    if item is TIMEOUT or item is None:
        return None
    response, _size = item
    return list(response.peers)
