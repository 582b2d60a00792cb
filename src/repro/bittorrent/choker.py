"""Choking: tit-for-tat reciprocation with optimistic unchoke.

The mainline policy the paper's client (BitTorrent 4.0.4) implements:

* every ``interval`` (10 s) re-evaluate which peers to unchoke;
* a leecher reciprocates: the interested peers that upload to us
  fastest get the regular unchoke slots;
* a seeder rotates capacity to the peers downloading fastest;
* one slot is the *optimistic unchoke*, re-drawn every third rechoke
  round (30 s), giving unknown peers a chance to prove themselves —
  "ensuring that downloaders cooperate by sharing parts they have
  already downloaded through a complex reciprocation system".
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.bittorrent.peer import PeerConnection


class RateMeter:
    """Sliding-window byte-rate estimator (four 5-second buckets)."""

    __slots__ = ("bucket_width", "nbuckets", "_buckets", "_epoch", "total")

    def __init__(self, bucket_width: float = 5.0, nbuckets: int = 4) -> None:
        self.bucket_width = bucket_width
        self.nbuckets = nbuckets
        self._buckets = [0.0] * nbuckets
        self._epoch = 0
        self.total = 0

    def record(self, now: float, nbytes: int) -> None:
        epoch = int(now / self.bucket_width)
        self._advance(epoch)
        self._buckets[epoch % self.nbuckets] += nbytes
        self.total += nbytes

    def _advance(self, epoch: int) -> None:
        if epoch == self._epoch:
            return
        step = epoch - self._epoch
        if step >= self.nbuckets:
            self._buckets = [0.0] * self.nbuckets
        else:
            for e in range(self._epoch + 1, epoch + 1):
                self._buckets[e % self.nbuckets] = 0.0
        self._epoch = epoch

    def rate(self, now: float) -> float:
        """Bytes per second over the window."""
        self._advance(int(now / self.bucket_width))
        return sum(self._buckets) / (self.bucket_width * self.nbuckets)


class Choker:
    """Drives the rechoke rounds for one client."""

    def __init__(
        self,
        client,
        interval: float = 10.0,
        upload_slots: int = 4,
        optimistic_rounds: int = 3,
    ) -> None:
        self.client = client
        self.interval = interval
        self.upload_slots = upload_slots
        self.optimistic_rounds = optimistic_rounds
        self.round = 0
        self.optimistic: Optional["PeerConnection"] = None
        self.rechokes = 0
        self._rng = client.vnode.sim.rng.stream(f"bt.choker/{client.vnode.name}")
        self._stopped = False
        self._m_rounds = client.vnode.sim.metrics.counter("bt.client.choke_rounds")

    def start(self) -> None:
        self.client.vnode.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped or self.client.stopped:
            return
        self.rechoke()
        self.client.vnode.sim.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    def rechoke(self) -> None:
        """One choking round."""
        self.rechokes += 1
        self._m_rounds.inc()
        now = self.client.vnode.sim.now
        peers: List["PeerConnection"] = [
            p for p in self.client.peers() if p.handshaked and not p.closed
        ]
        if not peers:
            return
        interested = [p for p in peers if p.peer_interested]

        # Pick/rotate the optimistic unchoke among interested peers.
        if self.round % self.optimistic_rounds == 0 or not self._valid_optimistic(interested):
            choked_interested = [p for p in interested if p.am_choking]
            self.optimistic = (
                self._rng.choice(choked_interested) if choked_interested else None
            )
        self.round += 1

        interested.sort(key=lambda p: self._rate_key(p, now), reverse=True)

        # Anti-snubbing: peers that owe us data get no regular slot.
        snub_timeout = getattr(self.client.config, "snub_timeout", 0.0)
        if snub_timeout > 0 and not self.client.complete:
            eligible = [p for p in interested if not p.snubbed(now, snub_timeout)]
        else:
            eligible = interested

        regular_slots = self.upload_slots - (1 if self.optimistic is not None else 0)
        unchoke = set(eligible[:regular_slots])
        if self.optimistic is not None:
            unchoke.add(self.optimistic)

        for peer in peers:
            if peer in unchoke:
                peer.local_unchoke()
            else:
                peer.local_choke()

    def _rate_key(self, peer: "PeerConnection", now: float) -> float:
        """Sort key for unchoke slots: as a seeder, favour the peers we
        push to fastest; as a leecher, reciprocate the best uploaders.
        Subclasses override this to study alternative policies. A
        peer without a meter has never moved a byte that way: rate 0.0,
        what an unused meter reports."""
        meter = peer.upload_meter if self.client.complete else peer.download_meter
        return 0.0 if meter is None else meter.rate(now)

    def _valid_optimistic(self, interested: List["PeerConnection"]) -> bool:
        return (
            self.optimistic is not None
            and not self.optimistic.closed
            and self.optimistic in interested
        )
