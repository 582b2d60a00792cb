"""POSIX-flavoured socket API over the emulated transports.

This is the surface the studied applications program against, and the
surface that P2PLab's modified libc intercepts (paper Fig. 5 shows the
call order: ``socket -> bind -> connect`` / ``socket -> bind -> listen
-> accept``). Applications normally use :mod:`repro.virt.libc`, which
wraps these calls with syscall costs and ``BINDIP`` rewriting; tests
and low-level code may use this API directly.

Blocking calls return a :class:`~repro.sim.process.Signal`; processes
``yield`` on it. ``connect``'s signal triggers with the socket itself
on success or a :class:`~repro.errors.SocketError` *instance* on
failure (yielding exceptions as values keeps generator code simple);
:func:`raise_if_error` converts.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

from repro.errors import (
    AddressNotAvailable,
    InvalidSocketState,
    SocketError,
)
from repro.net.addr import IPv4Address, ip
from repro.net.tcp import Connection, DEFAULT_WINDOW, Listener
from repro.net.udp import UdpEndpoint
from repro.sim.process import Signal

#: Wildcard bind address (INADDR_ANY).
ANY = IPv4Address(0)

AddrPort = Tuple[Union[IPv4Address, str], int]


def raise_if_error(value: Any) -> Any:
    """Re-raise a :class:`SocketError` received as a signal value."""
    if isinstance(value, SocketError):
        raise value
    return value


class Socket:
    """An emulated socket (TCP stream or UDP datagram)."""

    TCP = "tcp"
    UDP = "udp"

    __slots__ = ("stack", "type", "window", "local", "_listener", "_conn", "_udp", "closed")

    def __init__(self, stack, type: str = TCP, window: int = DEFAULT_WINDOW) -> None:
        if type not in (Socket.TCP, Socket.UDP):
            raise InvalidSocketState(f"unknown socket type {type!r}")
        self.stack = stack
        self.type = type
        self.window = window
        self.local: Optional[Tuple[IPv4Address, int]] = None
        self._listener: Optional[Listener] = None
        self._conn: Optional[Connection] = None
        self._udp: Optional[UdpEndpoint] = None
        self.closed = False

    # -- shared ------------------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise InvalidSocketState("operation on closed socket")

    def bind(self, addr: AddrPort) -> None:
        """Bind to ``(ip, port)``; ip may be :data:`ANY`, port may be 0
        (ephemeral). Validates the address is configured locally."""
        self._check_open()
        if self.local is not None:
            raise InvalidSocketState("socket already bound")
        a, port = ip(addr[0]), int(addr[1])
        if a != ANY and not self.stack.has_address(a):
            raise AddressNotAvailable(str(a))
        if self.type == Socket.UDP:
            if port == 0:
                port = self.stack.udp.alloc_ephemeral_port(a)
            self._udp = self.stack.udp.bind((a, port))
            self.local = (a, port)
        else:
            if port == 0:
                port = self.stack.tcp.alloc_ephemeral_port(a)
            self.local = (a, port)

    # -- TCP ------------------------------------------------------------------
    def listen(self, backlog: int = 128) -> None:
        self._check_open()
        if self.type != Socket.TCP:
            raise InvalidSocketState("listen on non-TCP socket")
        if self._conn is not None or self._listener is not None:
            raise InvalidSocketState("socket already active")
        if self.local is None:
            raise InvalidSocketState("listen before bind")
        self._listener = self.stack.tcp.listen(self.local, backlog=backlog)

    def accept(self) -> Signal:
        """Signal firing with a new connected :class:`Socket` (or None
        if the listener closes)."""
        self._check_open()
        if self._listener is None:
            raise InvalidSocketState("accept on non-listening socket")
        out = Signal(self.stack.sim, name="socket.accept")

        def on_conn(conn: Optional[Connection]) -> None:
            if conn is None:
                out.trigger(None)
                return
            sock = Socket(self.stack, Socket.TCP)
            sock.local = conn.local
            sock._conn = conn
            out.trigger(sock)

        self._listener.accept().wait_callback(on_conn)
        return out

    def connect(self, addr: AddrPort) -> Signal:
        """Start connecting; signal fires with this socket on success or
        a :class:`SocketError` instance on refusal/timeout."""
        self._check_open()
        if self.type != Socket.TCP:
            raise InvalidSocketState("connect on non-TCP socket")
        if self._conn is not None or self._listener is not None:
            raise InvalidSocketState("socket already active")
        remote = (ip(addr[0]), int(addr[1]))
        if self.local is None:
            # Implicit bind: pick a source address the OS would choose —
            # the interface primary (P2PLab's libc forces BINDIP instead).
            src = self.stack.iface.primary
            if src is None:
                raise AddressNotAvailable("no local address configured")
            self.local = (src, self.stack.tcp.alloc_ephemeral_port(src))
        conn, sig = self.stack.tcp.connect(self.local, remote, window=self.window)
        self._conn = conn
        out = Signal(self.stack.sim, name="socket.connect")

        def on_result(value: Any) -> None:
            out.trigger(self if isinstance(value, Connection) else value)

        sig.wait_callback(on_result)
        return out

    def send(self, payload: Any, size: int) -> Signal:
        """Send one message; signal fires when admitted to the network."""
        self._check_open()
        if self._conn is None:
            raise InvalidSocketState("send on unconnected socket")
        return self._conn.send(payload, size)

    def recv(self) -> Signal:
        """Signal firing with ``(payload, size)`` or ``None`` at EOF."""
        self._check_open()
        if self._conn is None:
            raise InvalidSocketState("recv on unconnected socket")
        return self._conn.recv()

    @property
    def connection(self) -> Optional[Connection]:
        return self._conn

    @property
    def peer(self) -> Optional[Tuple[IPv4Address, int]]:
        return self._conn.remote if self._conn is not None else None

    # -- UDP ---------------------------------------------------------------------
    def sendto(self, payload: Any, size: int, addr: AddrPort) -> None:
        self._check_open()
        if self.type != Socket.UDP:
            raise InvalidSocketState("sendto on non-UDP socket")
        if self._udp is None:
            src = self.stack.iface.primary
            if src is None:
                raise AddressNotAvailable("no local address configured")
            self.bind((src, 0))
        assert self._udp is not None
        self._udp.sendto(payload, size, (ip(addr[0]), int(addr[1])))

    def recvfrom(self) -> Signal:
        self._check_open()
        if self._udp is None:
            raise InvalidSocketState("recvfrom before bind")
        return self._udp.recvfrom()

    # -- teardown ------------------------------------------------------------------
    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._listener is not None:
            self._listener.close()
        if self._conn is not None:
            self._conn.close()
        if self._udp is not None:
            self._udp.close()

    def abort(self) -> None:
        """RST-close (used when a peer misbehaves)."""
        if self._conn is not None:
            self._conn.abort()
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = (
            "listening" if self._listener else
            "connected" if self._conn else
            "udp" if self._udp else "fresh"
        )
        return f"Socket({self.type}, {role}, local={self.local})"
