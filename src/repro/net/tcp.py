"""TCP-like reliable connection transport.

Message-level rather than byte-stream: each :meth:`Connection.send`
puts one application message on the wire as one segment (plus header
overhead), because that is the granularity Dummynet charges bandwidth
at in this emulation (see :mod:`repro.net.packet`).

What is modeled faithfully:

* connection establishment over the full emulated path (Fig. 5 of the
  paper: ``socket/bind/connect`` vs ``socket/bind/listen/accept``),
  costing one RTT, with RST when nothing listens;
* in-order reliable delivery: segments carry sequence numbers, the
  receiver reorders, and segments dropped by a pipe (loss or queue
  overflow) are retransmitted with exponential backoff;
* a bounded send window providing sender backpressure, so application
  senders block when the emulated access link is the bottleneck;
* FIN/RST teardown with EOF delivery after in-order data.

What is simplified (documented in DESIGN.md): there are no explicit ACK
segments — the send window is credited when a segment is delivered,
i.e. half an RTT earlier than a real ACK clock, and congestion control
is absent (the Dummynet pipes themselves are the bottleneck, as in the
paper's DSL scenarios where the access link, not TCP dynamics,
dominates).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.errors import (
    AddressInUse,
    ConnectionRefused,
    ConnectionReset,
    InvalidSocketState,
    SimulationError,
    SocketError,
)
from repro.net.addr import IPv4Address
from repro.net.ipfw import _FLOW_STRIDE
from repro.net.packet import Packet, PROTO_TCP, TCP_HEADER
from repro.obs.flight import NULL_FLIGHT
from repro.obs.metrics import NULL_REGISTRY
from repro.sim.process import Signal
from repro.sim.resources import Channel

KIND_SYN = "syn"
KIND_SYNACK = "synack"
KIND_RST = "rst"
KIND_DATA = "data"
KIND_FIN = "fin"
KIND_ACK = "ack"

#: Default per-connection send window (bytes in flight).
DEFAULT_WINDOW = 256 * 1024
#: First retransmission timeout; doubles on every retry.
INITIAL_RTO = 0.5
#: Retransmission attempts before the connection is reset.
MAX_RETRIES = 8
#: SYN retransmission timeout and retry budget.
SYN_RTO = 1.0
SYN_RETRIES = 5

Endpoint = Tuple[IPv4Address, int]


def conn_key(local_ip: int, local_port: int, remote_ip: int, remote_port: int) -> int:
    """The demux key of a connection: one int, one-to-one on the
    4-tuple. It is the flow cache's strided key (see
    :data:`repro.net.ipfw._FLOW_STRIDE`) over the address pair, XORed
    with the 32-bit port pair: the stride keeps each address pair in its
    own 2**32-aligned block, and its odd part spreads the connections
    that share a local address and port over the table's low bits."""
    return (local_ip << 32 | remote_ip) * _FLOW_STRIDE ^ (local_port << 16 | remote_port)


class _Segment:
    """Payload envelope carried inside a data/fin packet.

    It names its sending connection rather than a bound callback: the
    delivery credit and the packet's drop handler reach the sender
    through ``conn``, so a segment in flight owns no method object.
    """

    __slots__ = (
        "seq", "payload", "size", "conn", "acked", "attempts", "sent_at", "last_pkt_id",
    )

    def __init__(self, seq: int, payload: Any, size: int, conn: "Connection") -> None:
        self.seq = seq
        self.payload = payload
        self.size = size
        #: The sending endpoint; a FIN is the one segment of size 0.
        self.conn = conn
        self.acked = False
        #: Retransmissions so far (a pipe dropped that many copies).
        self.attempts = 0
        #: Sim-time of the most recent (re)transmission — the basis of
        #: the ``net.tcp.rtt_seconds`` samples.
        self.sent_at: Optional[float] = None
        #: Packet id of the most recent (re)transmission, for the
        #: flight recorder's ack hop (None when flights are off).
        self.last_pkt_id: Optional[int] = None


def _segment_dropped(pkt: Packet) -> None:
    """``on_drop`` of every data and FIN packet: the sending connection
    retransmits the segment it carried."""
    seg = pkt.payload
    seg.conn._on_packet_dropped(seg, pkt.kind)


class _TcpTally:
    """Counts of every connection of one registry, in plain slots
    (connections come and go; what they sent stays counted), plus the
    RTT histogram they observe into."""

    __slots__ = ("segments_sent", "retransmissions", "rtt")

    def __init__(self, registry) -> None:
        self.segments_sent = self.retransmissions = 0
        registry.feed(
            self,
            segments_sent=registry.counter("net.tcp.segments_sent"),
            retransmissions=registry.counter("net.tcp.retransmissions"),
        )
        self.rtt = registry.histogram("net.tcp.rtt_seconds")


class Connection:
    """One established (or establishing) TCP connection endpoint.

    Received messages go, in order and followed by one ``None`` at EOF,
    to the receiver given to :meth:`subscribe` (an object with an
    ``on_message(item)`` method), or else to :attr:`recv_channel`, the
    queue that the process-style :meth:`recv` reads. The channel is
    built on first use: a subscribed endpoint never builds one.
    """

    # States
    CONNECTING = "connecting"
    ESTABLISHED = "established"
    CLOSED = "closed"

    __slots__ = (
        "tcp", "sim", "local", "remote", "window", "state", "connect_signal",
        "_next_seq", "_in_flight", "_send_queue", "local_closed", "_fin_acked",
        "_expected_seq", "_reorder", "_receiver", "_channel", "remote_closed",
        "bytes_sent", "bytes_received", "messages_sent", "messages_received",
        "retransmissions", "_tally", "_flight",
    )

    def __init__(
        self,
        tcp: "TcpLayer",
        local: Endpoint,
        remote: Endpoint,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.tcp = tcp
        self.sim = tcp.stack.sim
        self.local = local
        self.remote = remote
        self.window = window
        self.state = Connection.CONNECTING
        self.connect_signal: Optional[Signal] = None

        # Send side.
        self._next_seq = 0
        self._in_flight = 0
        #: Segments waiting behind a full window, in send order; ``None``
        #: whenever nothing waits (the usual state: an empty deque is
        #: 760 bytes per endpoint, and most sends are admitted at once).
        self._send_queue: Optional[Deque[Tuple[_Segment, Optional[Signal], str]]] = None
        self.local_closed = False
        self._fin_acked = False

        # Receive side.
        self._expected_seq = 0
        #: Segments that arrived ahead of a dropped predecessor, by
        #: sequence number; ``None`` whenever nothing is parked.
        self._reorder: Optional[Dict[int, Tuple[str, _Segment]]] = None
        self._receiver = None
        self._channel: Optional[Channel] = None
        #: Set when EOF is delivered (the FIN, or a teardown before it).
        self.remote_closed = False

        # Stats.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.retransmissions = 0

        # Shared observability counts (aggregate over every
        # connection of the run; see repro.obs).
        registry = getattr(self.sim, "metrics", None) or NULL_REGISTRY
        self._tally = registry.shared(_TcpTally)
        # Flight recorder, cached at construction (NULL when disabled).
        self._flight = getattr(self.sim, "flight", NULL_FLIGHT)

    # -- sending -------------------------------------------------------
    def send(self, payload: Any, size: int) -> Signal:
        """Queue one application message of ``size`` payload bytes.

        Returns a signal triggered once the message has been admitted
        to the network (window space granted) — yield on it for
        sender-side backpressure. Raises if the connection is closed.
        """
        if self.state is not Connection.ESTABLISHED:
            raise InvalidSocketState(f"send on {self.state} connection")
        if self.local_closed:
            raise InvalidSocketState("send after close")
        if size <= 0:
            raise InvalidSocketState(f"message size must be positive, got {size}")
        admitted = Signal(self.sim, name="tcp.send.admitted")
        seg = _Segment(self._next_seq, payload, size, self)
        self._next_seq += 1
        self._submit(seg, admitted, KIND_DATA)
        return admitted

    def _submit(self, seg: _Segment, admitted: Optional[Signal], kind: str) -> None:
        """Put ``seg`` on the wire now if nothing waits ahead of it and
        the window admits it; queue it in send order otherwise."""
        queue = self._send_queue
        if queue is not None:
            queue.append((seg, admitted, kind))
            self._pump()
        elif self._window_full(seg, kind):
            self._send_queue = deque(((seg, admitted, kind),))
        else:
            self._admit(seg, admitted, kind)

    def _window_full(self, seg: _Segment, kind: str) -> bool:
        return kind == KIND_DATA and self._in_flight + seg.size > self.window and self._in_flight > 0

    def _admit(self, seg: _Segment, admitted: Optional[Signal], kind: str) -> None:
        self._in_flight += seg.size
        self._transmit(seg, kind)
        if admitted is not None:
            admitted.trigger(None)

    def _pump(self) -> None:
        """Admit queued segments while window space is available; the
        queue is released once drained."""
        while self._send_queue is not None:
            queue = self._send_queue
            seg, admitted, kind = queue[0]
            if self._window_full(seg, kind):
                break
            queue.popleft()
            if not queue:
                self._send_queue = None
            self._admit(seg, admitted, kind)

    def _transmit(self, seg: _Segment, kind: str) -> None:
        if kind == KIND_DATA:
            # Fluid seam: an attached FlowScheduler (SimConfig(fluid=True))
            # may take over delivery of eligible bulk DATA segments —
            # no packet is built and no per-hop events are scheduled.
            # Control traffic (SYN/FIN/ACK/RST) and ineligible segments
            # always take the exact packet path below.
            fluid = getattr(self.sim, "fluid", None)
            if fluid is not None and fluid.admit(self, seg, kind):
                seg.sent_at = self.sim.now
                self._tally.segments_sent += 1
                self.bytes_sent += seg.size
                self.messages_sent += 1
                return
        pkt = Packet(
            self.local[0],
            self.remote[0],
            PROTO_TCP,
            seg.size + TCP_HEADER if kind == KIND_DATA else TCP_HEADER,
            sport=self.local[1],
            dport=self.remote[1],
            payload=seg,
            kind=kind,
        )
        pkt.on_drop = _segment_dropped
        seg.sent_at = self.sim.now
        if self._flight.enabled:
            # Stamp the connection-level flow label so every segment
            # (and each retransmission attempt) groups under it.
            pkt.flow = (
                f"tcp:{self.local[0]}:{self.local[1]}->"
                f"{self.remote[0]}:{self.remote[1]}"
            )
        self._tally.segments_sent += 1
        self.tcp.stack.send_packet(pkt)
        if self._flight.enabled:
            # The recorder numbered the packet on send (0 past its
            # max_flights: the ack then files under no flight).
            seg.last_pkt_id = pkt.id
        if kind == KIND_DATA:
            self.bytes_sent += seg.size
            self.messages_sent += 1

    def _on_packet_dropped(self, seg: _Segment, kind: str) -> None:
        """A pipe dropped ``seg`` (a ``kind`` packet): retransmit with
        backoff."""
        if self.state is Connection.CLOSED:
            return
        attempt = seg.attempts + 1
        if attempt > MAX_RETRIES:
            self._fail_reset("too many retransmissions")
            return
        seg.attempts = attempt
        self.retransmissions += 1
        self._tally.retransmissions += 1
        rto = INITIAL_RTO * (2 ** (attempt - 1))
        self.sim.schedule(rto, self._retransmit, seg, kind)

    def _retransmit(self, seg: _Segment, kind: str) -> None:
        if self.state is Connection.CLOSED:
            return
        self._transmit(seg, kind)

    def _on_delivered(self, seg: _Segment) -> None:
        """Emulation-level ACK: the segment reached the peer."""
        if seg.acked:
            return  # duplicate arrival of a retransmitted segment
        seg.acked = True
        if not seg.size:
            # The FIN: the sending direction is closed end to end.
            self._fin_acked = True
            self._maybe_teardown()
            return
        if seg.sent_at is not None:
            # Sim-time round-trip sample: with explicit ACKs this is a
            # true RTT; in the default window-credit shortcut it is the
            # one-way delivery time standing in for it.
            rtt = self.sim.now - seg.sent_at
            self._tally.rtt.observe(rtt)
            if self._flight.enabled and seg.last_pkt_id is not None:
                self._flight.ack(
                    seg.last_pkt_id, self.tcp.stack.name, self.sim.now, rtt
                )
        self._in_flight -= seg.size
        self._pump()

    @property
    def in_flight(self) -> int:
        return self._in_flight

    # -- receiving -------------------------------------------------------
    def subscribe(self, receiver) -> None:
        """Push mode: deliver every message, those already queued first,
        to ``receiver.on_message`` synchronously, and ``None`` at EOF."""
        channel = self._channel
        if self._receiver is not None or (channel is not None and channel._subscriber is not None):
            raise SimulationError("channel 'tcp.recv' already subscribed")
        if channel is not None and channel._getters is not None:
            raise SimulationError("channel 'tcp.recv' has blocked getters; cannot subscribe")
        eof = self.remote_closed
        self._receiver = receiver
        if channel is not None:
            # A teardown from inside ``on_message`` delivers its own EOF
            # (``remote_closed`` turns true): nothing may follow it.
            while len(channel) and (eof or not self.remote_closed):
                receiver.on_message(channel.try_get())
        if eof:
            receiver.on_message(None)

    @property
    def recv_channel(self) -> Channel:
        """The receive queue of the process-style path, built on first
        read (closed already if EOF came before)."""
        channel = self._channel
        if channel is None:
            channel = self._channel = Channel(self.sim, name="tcp.recv")
            if self.remote_closed:
                channel.close()
        return channel

    def recv(self) -> Signal:
        """Signal that fires with the next message, or ``None`` at EOF."""
        return self.recv_channel.get()

    def _end_of_stream(self) -> None:
        """Deliver EOF; the caller has set ``remote_closed``."""
        receiver = self._receiver
        if receiver is not None:
            receiver.on_message(None)
        channel = self._channel
        if channel is not None:
            channel.close()

    def handle_data(self, kind: str, seg: _Segment) -> None:
        """Called by the layer when a data/fin segment arrives."""
        if self.state is Connection.CLOSED:
            return
        if self.tcp.explicit_acks:
            # Fidelity mode: a 40-byte ACK travels the reverse path
            # (through the receiver's *upload* pipe) and credits the
            # sender's window only on arrival.
            self._send_ack(seg)
        else:
            # Default emulation shortcut: credit the window at delivery.
            seg.conn._on_delivered(seg)
        if seg.seq != self._expected_seq:
            # Ahead of a dropped predecessor: park it until the gap
            # closes. Behind, or already parked: a duplicate from a
            # spurious retransmission.
            if seg.seq > self._expected_seq:
                if self._reorder is None:
                    self._reorder = {}
                self._reorder.setdefault(seg.seq, (kind, seg))
            return
        while True:
            self._expected_seq += 1
            if kind == KIND_FIN:
                self.remote_closed = True
                self._end_of_stream()
                self._maybe_teardown()
            else:
                self.messages_received += 1
                self.bytes_received += seg.size
                receiver = self._receiver
                if receiver is not None:
                    receiver.on_message((seg.payload, seg.size))
                else:
                    self.recv_channel.put((seg.payload, seg.size))
            parked = self._reorder
            if parked is None or self._expected_seq not in parked:
                return
            if self.state is Connection.CLOSED:
                # The receiver tore the connection down (and so got its
                # EOF): what is still parked is never delivered.
                return
            kind, seg = parked.pop(self._expected_seq)
            if not parked:
                self._reorder = None

    def _send_ack(self, seg: _Segment) -> None:
        pkt = Packet(
            self.local[0],
            self.remote[0],
            PROTO_TCP,
            TCP_HEADER,
            sport=self.local[1],
            dport=self.remote[1],
            payload=seg,
            kind=KIND_ACK,
        )
        pkt.on_drop = self._on_ack_dropped
        self.tcp.stack.send_packet(pkt)

    def _on_ack_dropped(self, pkt: Packet) -> None:
        """A dropped ACK is re-sent after a short delay so the sender's
        window cannot leak shut."""
        self.sim.schedule(INITIAL_RTO, self._send_ack, pkt.payload)

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Half-close the sending direction (FIN after queued data)."""
        if self.local_closed or self.state is Connection.CLOSED:
            return
        self.local_closed = True
        if self.state is Connection.CONNECTING:
            if self.connect_signal is not None:
                sig, self.connect_signal = self.connect_signal, None
                sig.trigger(ConnectionReset("closed while connecting"))
            self._teardown()
            return
        seg = _Segment(self._next_seq, None, 0, self)
        self._next_seq += 1
        self._submit(seg, None, KIND_FIN)

    def _maybe_teardown(self) -> None:
        """Fully closed in both directions: release the 4-tuple."""
        if self.local_closed and self.remote_closed and self._fin_acked:
            self._teardown()

    def abort(self) -> None:
        """Send RST and reset immediately (dropped data is lost)."""
        if self.state is Connection.CLOSED:
            return
        pkt = Packet(
            self.local[0],
            self.remote[0],
            PROTO_TCP,
            TCP_HEADER,
            sport=self.local[1],
            dport=self.remote[1],
            kind=KIND_RST,
        )
        pkt.on_drop = None
        self.tcp.stack.send_packet(pkt)
        self._teardown()

    def handle_rst(self) -> None:
        if self.state is Connection.CONNECTING and self.connect_signal is not None:
            sig, self.connect_signal = self.connect_signal, None
            self._teardown()
            sig.trigger(ConnectionRefused(f"{self.remote[0]}:{self.remote[1]}"))
            return
        self._teardown()

    def _fail_reset(self, reason: str) -> None:
        if self.state is Connection.CONNECTING and self.connect_signal is not None:
            sig, self.connect_signal = self.connect_signal, None
            self._teardown()
            sig.trigger(ConnectionReset(reason))
            return
        self._teardown()

    def _teardown(self) -> None:
        if self.state is Connection.CLOSED:
            return
        self.state = Connection.CLOSED
        self._send_queue = None
        if not self.remote_closed:
            self.remote_closed = True
            self._end_of_stream()
        self.tcp.forget(self)
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            fluid.on_conn_closed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Connection({self.local[0]}:{self.local[1]} <-> "
            f"{self.remote[0]}:{self.remote[1]}, {self.state})"
        )


class Listener:
    """A listening endpoint with a backlog of established connections."""

    __slots__ = ("tcp", "local", "backlog", "accept_channel", "closed")

    def __init__(self, tcp: "TcpLayer", local: Endpoint, backlog: int = 128) -> None:
        self.tcp = tcp
        self.local = local
        self.backlog = backlog
        self.accept_channel = Channel(tcp.stack.sim, name=f"tcp.accept/{local}")
        self.closed = False

    def accept(self) -> Signal:
        """Signal that fires with the next established :class:`Connection`."""
        return self.accept_channel.get()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.tcp.remove_listener(self)
        self.accept_channel.close()


class TcpLayer:
    """Per-stack TCP: demux tables and packet handling."""

    EPHEMERAL_BASE = 49152

    def __init__(self, stack, explicit_acks: bool = False) -> None:
        self.stack = stack
        #: When True, data segments are acknowledged by real 40-byte
        #: packets on the reverse path instead of the delivery-time
        #: window credit (see the module docstring's trade-off note).
        self.explicit_acks = explicit_acks
        self._listeners: Dict[Tuple[int, int], Listener] = {}
        #: :func:`conn_key` of a connection's 4-tuple -> the connection.
        self._conns: Dict[int, Connection] = {}
        self._next_ephemeral: Dict[int, int] = {}
        #: local ip value -> local port -> connections using it (kept in
        #: step with ``_conns``), so the ephemeral-port search is a dict
        #: probe per candidate instead of a walk over every connection.
        self._port_uses: Dict[int, Dict[int, int]] = {}

    # -- port management -------------------------------------------------
    def alloc_ephemeral_port(self, local_ip: IPv4Address) -> int:
        key = local_ip.value
        port = self._next_ephemeral.get(key, self.EPHEMERAL_BASE)
        start = port
        in_use = self._port_uses.get(key, ())
        while (key, port) in self._listeners or port in in_use:
            port = port + 1 if port < 65535 else self.EPHEMERAL_BASE
            if port == start:
                raise SocketError("EADDRNOTAVAIL", f"no free ports on {local_ip}")
        self._next_ephemeral[key] = port + 1 if port < 65535 else self.EPHEMERAL_BASE
        return port

    # -- listener management ----------------------------------------------
    def listen(self, local: Endpoint, backlog: int = 128) -> Listener:
        key = (local[0].value, local[1])
        if key in self._listeners:
            raise AddressInUse(f"{local[0]}:{local[1]}")
        listener = Listener(self, local, backlog)
        self._listeners[key] = listener
        return listener

    def remove_listener(self, listener: Listener) -> None:
        self._listeners.pop((listener.local[0].value, listener.local[1]), None)

    def _find_listener(self, dst: IPv4Address, dport: int) -> Optional[Listener]:
        listener = self._listeners.get((dst.value, dport))
        if listener is None:
            listener = self._listeners.get((0, dport))  # INADDR_ANY
        return listener

    # -- connection management ---------------------------------------------
    def connect(self, local: Endpoint, remote: Endpoint, window: int = DEFAULT_WINDOW) -> Tuple[Connection, Signal]:
        """Open an active connection; returns (conn, completion signal).

        The signal triggers with the connection on success or with a
        :class:`SocketError` instance on failure (refused / timeout).
        """
        key = conn_key(local[0].value, local[1], remote[0].value, remote[1])
        if key in self._conns:
            raise AddressInUse(f"{local[0]}:{local[1]} -> {remote[0]}:{remote[1]} in use")
        conn = Connection(self, local, remote, window=window)
        sig = Signal(self.stack.sim, name="tcp.connect")
        conn.connect_signal = sig
        self._register(key, conn)
        self._send_syn(conn, attempt=1)
        return conn, sig

    def _send_syn(self, conn: Connection, attempt: int) -> None:
        if conn.state is not Connection.CONNECTING:
            return
        if attempt > SYN_RETRIES:
            conn._fail_reset("connect timed out")
            return
        pkt = Packet(
            conn.local[0],
            conn.remote[0],
            PROTO_TCP,
            TCP_HEADER,
            sport=conn.local[1],
            dport=conn.remote[1],
            kind=KIND_SYN,
        )
        pkt.on_drop = None  # the SYN timer below covers loss
        self.stack.send_packet(pkt)
        self.stack.sim.schedule(SYN_RTO * attempt, self._syn_timer, conn, attempt)

    def _syn_timer(self, conn: Connection, attempt: int) -> None:
        if conn.state is Connection.CONNECTING:
            self._send_syn(conn, attempt + 1)

    def _register(self, key: int, conn: Connection) -> None:
        self._conns[key] = conn
        ip_value, port = conn.local[0].value, conn.local[1]
        uses = self._port_uses.get(ip_value)
        if uses is None:
            uses = self._port_uses[ip_value] = {}
        uses[port] = uses.get(port, 0) + 1

    def forget(self, conn: Connection) -> None:
        ip_value, port = conn.local[0].value, conn.local[1]
        key = conn_key(ip_value, port, conn.remote[0].value, conn.remote[1])
        if self._conns.pop(key, None) is None:
            return
        uses = self._port_uses[ip_value]
        if uses[port] > 1:
            uses[port] -= 1
        else:
            del uses[port]

    @property
    def connections(self) -> Dict[Tuple[int, int, int, int], Connection]:
        """Live connections by ``(local ip, local port, remote ip,
        remote port)``, ip as its int value."""
        return {
            (c.local[0].value, c.local[1], c.remote[0].value, c.remote[1]): c
            for c in self._conns.values()
        }

    # -- packet ingress -----------------------------------------------------
    def handle_packet(self, pkt: Packet) -> None:
        # conn_key, inlined: this runs once per segment.
        conn = self._conns.get(
            (pkt.dst.value << 32 | pkt.src.value) * _FLOW_STRIDE ^ (pkt.dport << 16 | pkt.sport)
        )
        kind = pkt.kind
        if conn is not None:
            if kind == KIND_DATA or kind == KIND_FIN:
                conn.handle_data(kind, pkt.payload)
            elif kind == KIND_SYN:
                # Duplicate SYN: our SYNACK was lost; resend it.
                self._send_synack(conn)
            elif kind == KIND_SYNACK:
                if conn.state is Connection.CONNECTING:
                    conn.state = Connection.ESTABLISHED
                    if conn.connect_signal is not None:
                        sig, conn.connect_signal = conn.connect_signal, None
                        sig.trigger(conn)
                    conn._pump()
            elif kind == KIND_RST:
                conn.handle_rst()
            elif kind == KIND_ACK:
                seg = pkt.payload
                seg.conn._on_delivered(seg)
        elif kind == KIND_SYN:
            self._accept(pkt)
        elif kind != KIND_RST and kind != KIND_ACK:
            self._send_rst(pkt)

    def _accept(self, syn: Packet) -> None:
        """A SYN for no connection: establish one if a listener with
        backlog room takes it, refuse it with RST otherwise."""
        listener = self._find_listener(syn.dst, syn.dport)
        if listener is None or listener.closed or len(listener.accept_channel) >= listener.backlog:
            self._send_rst(syn)
            return
        local = listener.local
        if local[0].value != syn.dst.value:  # bound to INADDR_ANY
            local = (syn.dst, syn.dport)
        conn = Connection(self, local=local, remote=(syn.src, syn.sport))
        conn.state = Connection.ESTABLISHED
        self._register(conn_key(syn.dst.value, syn.dport, syn.src.value, syn.sport), conn)
        self._send_synack(conn)
        listener.accept_channel.put(conn)

    def _send_synack(self, conn: Connection) -> None:
        pkt = Packet(
            conn.local[0],
            conn.remote[0],
            PROTO_TCP,
            TCP_HEADER,
            sport=conn.local[1],
            dport=conn.remote[1],
            kind=KIND_SYNACK,
        )
        pkt.on_drop = None  # client SYN timer recovers
        self.stack.send_packet(pkt)

    def _send_rst(self, offending: Packet) -> None:
        pkt = Packet(
            offending.dst,
            offending.src,
            PROTO_TCP,
            TCP_HEADER,
            sport=offending.dport,
            dport=offending.sport,
            kind=KIND_RST,
        )
        pkt.on_drop = None
        self.stack.send_packet(pkt)
