"""Swarm construction: the paper's BitTorrent experiment in one object.

Builds the full stack — testbed, topology (DSL access links), tracker,
initial seeders, staggered leechers — and runs it to completion. This
is what the Figure 8-11 experiments and benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.bittorrent.client import BitTorrentClient, ClientConfig
from repro.bittorrent.metainfo import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_PIECE_LENGTH,
    Torrent,
)
from repro.bittorrent.tracker import DEFAULT_TRACKER_PORT, TrackerServer
from repro.errors import ExperimentError
from repro.obs import RunManifest, Snapshot, topology_fingerprint
from repro.obs import telemetry
from repro.sim import SimConfig, Simulator
from repro.topology.compiler import compile_topology
from repro.topology.presets import LinkProfile, bittorrent_profile
from repro.topology.spec import TopologySpec
from repro.units import MB, ms
from repro.virt.deployment import Testbed


#: The client log's categories (``BitTorrentClient`` emits them).
CLIENT_LOG = ("bt.progress", "bt.complete", "bt.start")


@dataclass
class SwarmConfig:
    """Parameters of one swarm experiment (paper defaults)."""

    leechers: int = 160
    seeders: int = 4
    file_size: int = 16 * MB
    piece_length: int = DEFAULT_PIECE_LENGTH
    block_size: int = DEFAULT_BLOCK_SIZE
    profile: LinkProfile = field(default_factory=bittorrent_profile)
    #: Interval between successive leecher starts (paper: 10 s for the
    #: 160-client runs, 0.25 s for the 5754-client run).
    stagger: float = 10.0
    #: Start-slot offset: this swarm's leechers occupy global stagger
    #: slots ``offset .. offset+leechers-1``. Partitioned fig10 cells
    #: use it so the union of all cells reproduces the single global
    #: arrival process (cell j's first leecher starts where cell j-1's
    #: last one left off).
    stagger_offset: int = 0
    num_pnodes: int = 16
    seed: int = 0
    prefix: str = "10.0.0.0/16"
    client: ClientConfig = field(default_factory=ClientConfig)
    #: Carry explicit 40-byte TCP ACKs on the reverse path (doubles the
    #: packet count; measures what the default window-credit shortcut
    #: hides — see the abl-acks benchmark).
    tcp_explicit_acks: bool = False
    #: ``False`` runs the whole platform on NULL instruments.
    observe: bool = True
    #: Record per-packet hop-by-hop flights (requires ``observe``) and
    #: retain the client log for :meth:`Swarm.chrome_trace`. Off by
    #: default: memory grows with traffic volume.
    flight: bool = False
    #: Model long bulk transfers as fluid flows (rate epochs instead of
    #: per-packet events) — see :mod:`repro.net.fluid`. Off by default;
    #: short/control traffic always stays on the packet path.
    fluid: bool = False

    @property
    def total_peers(self) -> int:
        return self.leechers + self.seeders


class Swarm:
    """A built, runnable swarm."""

    __test__ = False  # defensive: not a test helper despite usage in tests

    def __init__(
        self,
        config: Optional[SwarmConfig] = None,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.config = config if config is not None else SwarmConfig()
        cfg = self.config
        if cfg.leechers < 1 or cfg.seeders < 1:
            raise ExperimentError("swarm needs at least one leecher and one seeder")

        self.testbed = Testbed(
            sim=sim,
            num_pnodes=cfg.num_pnodes,
            seed=cfg.seed,
            tcp_explicit_acks=cfg.tcp_explicit_acks,
            observe=cfg.observe,
            sim_config=SimConfig(flight=cfg.flight, fluid=cfg.fluid),
        )
        self.sim = self.testbed.sim
        if cfg.flight:
            # The Chrome export is the one reader of the raw client
            # log; reports attach reducers (repro.core.collector).
            self.sim.trace.enable(*CLIENT_LOG)

        # Topology: one unshaped infrastructure node for the tracker,
        # then every peer (seeders included) on the DSL profile.
        spec = TopologySpec(name="swarm")
        spec.add_group("infra", "10.254.0.0/24", 1, latency=ms(1))
        spec.add_group(
            "peers",
            cfg.prefix,
            cfg.total_peers,
            down_bw=cfg.profile.down_bw,
            up_bw=cfg.profile.up_bw,
            latency=cfg.profile.latency,
            plr=cfg.profile.plr,
        )
        self.spec = spec
        self.compiler = compile_topology(spec, self.testbed)
        telemetry.register_topology(self.compiler, f"topo/{spec.name}")

        tracker_vnode = self.compiler.vnodes("infra")[0]
        if cfg.client.tracker_transport == "udp":
            from repro.bittorrent.udp_tracker import UdpTrackerServer

            self.tracker = UdpTrackerServer(tracker_vnode, port=DEFAULT_TRACKER_PORT)
        else:
            self.tracker = TrackerServer(tracker_vnode, port=DEFAULT_TRACKER_PORT)

        self.torrent = Torrent(
            name="experiment.dat",
            total_size=cfg.file_size,
            piece_length=cfg.piece_length,
            block_size=cfg.block_size,
            tracker_addr=self.tracker.address,
        )

        peer_vnodes = self.compiler.vnodes("peers")
        self.seeders: List[BitTorrentClient] = [
            BitTorrentClient(v, self.torrent, seeder=True, config=replace(cfg.client))
            for v in peer_vnodes[: cfg.seeders]
        ]
        self.leechers: List[BitTorrentClient] = [
            BitTorrentClient(v, self.torrent, seeder=False, config=replace(cfg.client))
            for v in peer_vnodes[cfg.seeders :]
        ]
        self._completed = 0
        self._launched = False

    # ------------------------------------------------------------------
    @property
    def clients(self) -> List[BitTorrentClient]:
        return self.seeders + self.leechers

    def launch(self) -> None:
        """Start tracker and seeders now; schedule staggered leechers."""
        if self._launched:
            raise ExperimentError("swarm already launched")
        self._launched = True
        cfg = self.config
        self.tracker.start()
        for seeder in self.seeders:
            self.sim.schedule(0.05, seeder.start)
        for i, leecher in enumerate(self.leechers):
            self.sim.schedule(
                0.1 + (cfg.stagger_offset + i) * cfg.stagger, leecher.start
            )

    def run(self, max_time: float = 20000.0, grace: float = 0.0) -> float:
        """Run until every leecher completed (or ``max_time``).

        Returns the time the last leecher completed. ``grace`` keeps
        the swarm running that much longer afterwards (seeding phase).
        """
        if not self._launched:
            self.launch()
        target = len(self.leechers)
        done_at: Dict[str, float] = {}

        def on_complete(rec) -> None:
            done_at[rec.get("node")] = rec.time
            if len(done_at) >= target and grace <= 0.0:
                self.sim.stop()

        self.sim.trace.subscribe("bt.complete", on_complete)
        try:
            with self.sim.tracer.span(
                "bt.swarm.run", leechers=target, seeders=len(self.seeders)
            ) as span:
                self.sim.run(until=max_time)
                span.annotate(completions=len(done_at))
        finally:
            self.sim.trace.unsubscribe("bt.complete", on_complete)
        if len(done_at) < target:
            raise ExperimentError(
                f"swarm did not complete: {len(done_at)}/{target} leechers "
                f"done by t={self.sim.now:.0f}s"
            )
        last = max(done_at.values())
        if grace > 0.0:
            with self.sim.tracer.span("bt.swarm.seeding_grace"):
                self.sim.run(until=last + grace)
        return last

    def stop(self) -> None:
        for client in self.clients:
            client.stop()
        self.tracker.stop()

    def set_access_link(
        self,
        client: BitTorrentClient,
        up_bw: Optional[float] = None,
        down_bw: Optional[float] = None,
    ) -> None:
        """Reconfigure one peer's access-link pipes at runtime
        (``ipfw pipe N config``) — used for heterogeneous-swarm studies
        such as the free-rider ablation."""
        up, down = self.compiler.access_pipes(client.vnode)
        if up_bw is not None:
            up.reconfigure(bandwidth=up_bw)
        if down_bw is not None:
            down.reconfigure(bandwidth=down_bw)

    # -- observability -----------------------------------------------------
    def manifest(
        self, wall_time_seconds: Optional[float] = None, **extra
    ) -> RunManifest:
        """Provenance record of this swarm run (seed, topology hash,
        clocks, event counts) — attach it to every metrics export."""
        cfg = self.config
        return RunManifest.from_sim(
            self.sim,
            seed=cfg.seed,
            topology_hash=topology_fingerprint(self.spec),
            wall_time_seconds=wall_time_seconds,
            leechers=cfg.leechers,
            seeders=cfg.seeders,
            file_size=cfg.file_size,
            num_pnodes=cfg.num_pnodes,
            **extra,
        )

    def metrics_snapshot(self, include_wall: bool = False) -> Snapshot:
        """Deterministic snapshot of the platform-wide metrics registry."""
        return self.sim.metrics.snapshot(include_wall=include_wall)

    def chrome_trace(self, timeseries=None, **metadata) -> dict:
        """Chrome Trace Event document of this run (Perfetto-loadable).

        Merges whatever was recorded: packet flights (``flight=True``),
        tracer spans, the retained client log (``flight=True``, or
        ``sim.trace.enable(*CLIENT_LOG)`` before the run), and an
        optional :class:`~repro.obs.timeseries.TimeSeriesSampler`.
        Deterministic.
        """
        from repro.obs.chrometrace import TraceLayout, chrome_trace_document

        sim = self.sim
        cfg = self.config
        layout = TraceLayout.for_testbed(self.testbed)
        meta = {
            "seed": cfg.seed,
            "leechers": cfg.leechers,
            "seeders": cfg.seeders,
            "num_pnodes": cfg.num_pnodes,
            "file_size": cfg.file_size,
        }
        meta.update(metadata)
        return chrome_trace_document(
            layout,
            flight_recorder=sim.flight if sim.flight.enabled else None,
            tracer=sim.tracer if getattr(sim.tracer, "finished", None) else None,
            recorder=sim.trace,
            timeseries=timeseries,
            metadata=meta,
        )

    # -- summary statistics ------------------------------------------------
    def completion_times(self) -> List[float]:
        """Per-leecher completion times (absolute, seconds)."""
        return sorted(
            c.completed_at for c in self.leechers if c.completed_at is not None
        )

    def total_payload_received(self) -> int:
        return sum(c.payload_received for c in self.leechers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Swarm(leechers={len(self.leechers)}, seeders={len(self.seeders)}, "
            f"pnodes={len(self.testbed.pnodes)})"
        )
