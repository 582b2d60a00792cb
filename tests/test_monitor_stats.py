"""Tests for the resource monitor, swarm stats, and super-seeding."""

import pytest

from repro.bittorrent import Swarm, SwarmConfig
from repro.bittorrent.client import ClientConfig
from repro.bittorrent.stats import (
    connectivity,
    piece_availability,
    seeder_leecher_evolution,
    share_ratios,
)
from repro.core.monitor import ResourceMonitor
from repro.units import MB, mbps


def run_small_swarm(monitor=False, **cfg_overrides):
    defaults = dict(
        leechers=6, seeders=1, file_size=1 * MB, stagger=1.0, num_pnodes=2, seed=9
    )
    defaults.update(cfg_overrides)
    swarm = Swarm(SwarmConfig(**defaults))
    swarm.sim.trace.enable("bt.complete")
    mon = None
    if monitor:
        mon = ResourceMonitor(swarm.testbed, period=20.0)
        mon.start()
    swarm.run(max_time=20000)
    if mon:
        mon.stop()
    return swarm, mon


class TestResourceMonitor:
    def test_samples_every_pnode(self):
        swarm, mon = run_small_swarm(monitor=True)
        nodes = {s.pnode for s in mon.samples}
        assert nodes == {"pnode1", "pnode2"}
        assert len(mon) > 4

    def test_summaries_have_positive_traffic(self):
        swarm, mon = run_small_swarm(monitor=True)
        summaries = {s.pnode: s for s in mon.summarize()}
        # Cross-pnode BitTorrent traffic must show on both ports.
        assert all(s.peak_tx_rate > 0 for s in summaries.values())
        assert all(s.vnodes >= 3 for s in summaries.values())

    def test_no_saturation_on_gigabit(self):
        swarm, mon = run_small_swarm(monitor=True)
        assert mon.saturated_nodes(swarm.testbed.switch.port_bandwidth) == []

    def test_saturation_detected_on_tiny_port(self):
        swarm = Swarm(SwarmConfig(
            leechers=6, seeders=1, file_size=1 * MB, stagger=1.0,
            num_pnodes=2, seed=9,
        ))
        for port in swarm.testbed.switch._ports.values():
            port.tx.reconfigure(bandwidth=mbps(0.1))
            port.rx.reconfigure(bandwidth=mbps(0.1))
        mon = ResourceMonitor(swarm.testbed, period=20.0)
        mon.start()
        swarm.run(max_time=50000)
        mon.stop()
        assert mon.saturated_nodes(mbps(0.1)) != []

    def test_stop_halts_sampling(self):
        swarm = Swarm(SwarmConfig(
            leechers=2, seeders=1, file_size=1 * MB, stagger=0.5,
            num_pnodes=1, seed=9,
        ))
        mon = ResourceMonitor(swarm.testbed, period=5.0)
        mon.start()
        swarm.sim.run(until=12.0)
        mon.stop()
        count = len(mon)
        swarm.run(max_time=20000)
        assert len(mon) == count


class TestSwarmStats:
    @pytest.fixture(scope="class")
    def done_swarm(self):
        swarm, _ = run_small_swarm()
        return swarm

    def test_share_ratios(self, done_swarm):
        stats = share_ratios(done_swarm.leechers)
        assert len(stats.ratios) == 6
        assert stats.min_ratio >= 0
        assert stats.mean_ratio > 0.3  # reciprocation: leechers do upload
        assert 0.0 <= stats.gini <= 1.0

    def test_share_ratios_requires_downloads(self):
        with pytest.raises(ValueError):
            share_ratios([])

    def test_piece_availability_full_swarm(self, done_swarm):
        stats = piece_availability(done_swarm.clients)
        # Everyone finished: every piece held by all 7 peers.
        assert stats.min_copies == 7
        assert stats.max_copies == 7
        assert stats.rarest_pieces == tuple(range(done_swarm.torrent.num_pieces))

    def test_connectivity(self, done_swarm):
        stats = connectivity(done_swarm.clients)
        assert stats.isolated == 0
        assert stats.min_degree >= 1
        assert stats.max_degree <= 7

    def test_seeder_leecher_evolution(self, done_swarm):
        series = seeder_leecher_evolution(
            done_swarm.sim.trace, total_clients=6, bucket=30.0
        )
        assert series[0][1] == 0  # nobody done at t=0
        assert series[-1][1] == 6  # everyone done at the end
        seeders = [s for _t, s, _l in series]
        assert seeders == sorted(seeders)
        # seeders + leechers is conserved.
        assert all(s + l == 6 for _t, s, l in series)

    def test_evolution_empty_trace(self):
        from repro.sim.trace import TraceRecorder

        assert seeder_leecher_evolution(TraceRecorder(), 5) == []


class TestSuperSeeding:
    def test_superseed_saves_seeder_upload(self):
        normal, _ = run_small_swarm(leechers=8, seed=4)
        ss, _ = run_small_swarm(
            leechers=8, seed=4, client=ClientConfig(super_seed=True)
        )
        assert ss.seeders[0].bytes_uploaded < normal.seeders[0].bytes_uploaded
        assert ss.seeders[0].ss_pieces_redistributed > 0

    def test_superseeder_hides_bitfield(self):
        swarm = Swarm(SwarmConfig(
            leechers=2, seeders=1, file_size=1 * MB, stagger=0.5,
            num_pnodes=1, seed=5, client=ClientConfig(super_seed=True),
        ))
        seeder = swarm.seeders[0]
        assert seeder.super_seeding
        assert seeder.advertised_bitfield() is None
        # Leechers never super-seed, even with the flag set.
        assert not swarm.leechers[0].super_seeding
        swarm.run(max_time=20000)  # and the swarm still completes

    def test_single_leecher_does_not_stall(self):
        swarm = Swarm(SwarmConfig(
            leechers=1, seeders=1, file_size=1 * MB, stagger=0.5,
            num_pnodes=1, seed=5, client=ClientConfig(super_seed=True),
        ))
        swarm.run(max_time=20000)
        assert swarm.leechers[0].complete

    def test_grants_prefer_unrevealed_pieces(self):
        """Each connected peer initially gets a distinct piece."""
        swarm = Swarm(SwarmConfig(
            leechers=4, seeders=1, file_size=1 * MB, stagger=0.2,
            num_pnodes=1, seed=6, client=ClientConfig(super_seed=True),
        ))
        seeder = swarm.seeders[0]
        swarm.launch()
        swarm.sim.run(until=30.0)
        assigned = list(seeder._ss_assigned.values())
        assert len(assigned) == len(set(assigned)) >= 2
        swarm.run(max_time=20000)
