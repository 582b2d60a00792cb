"""Ablations of design choices the paper calls out.

* :func:`run_rule_lookup_ablation` — linear IPFW scan vs the hash-
  indexed rule table IPFW cannot do ("it is not possible to evaluate
  the rules in a hierarchical way, or with a hash table");
* :func:`run_uplink_saturation_ablation` — the folding experiment with
  an undersized physical network: the paper found "the first limiting
  factor was the network speed";
* :func:`run_choker_ablation` — BitTorrent with reciprocation disabled,
  quantifying what the tit-for-tat machinery contributes;
* :func:`run_stagger_ablation` — client start interval (10 s vs 0)
  effect on the Figure 8 swarm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.tables import Table
from repro.bittorrent.choker import Choker
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.net.addr import IPv4Address, IPv4Network
from repro.net.ipfw import ACTION_COUNT, DIR_OUT, Firewall
from repro.net.packet import Packet
from repro.units import MB, gbps, mbps


# ----------------------------------------------------------------------
# Rule lookup: linear vs hashed.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RuleLookupResult:
    vnode_counts: Tuple[int, ...]
    linear_scanned: Tuple[int, ...]
    indexed_scanned: Tuple[int, ...]


def _populate(fw: Firewall, vnodes: int) -> None:
    """Two per-vnode rules each, as the topology compiler installs."""
    base = IPv4Address("10.0.0.1")
    for i in range(vnodes):
        addr = base + i
        fw.add(ACTION_COUNT, src=addr, direction=DIR_OUT)
        fw.add(ACTION_COUNT, dst=addr, direction="in")


def run_rule_lookup_ablation(
    vnode_counts: Sequence[int] = (10, 100, 1000, 5000),
) -> RuleLookupResult:
    linear_scans = []
    indexed_scans = []
    probe = Packet(
        src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.9.9.9"), proto="tcp", size=100
    )
    for count in vnode_counts:
        linear = Firewall()
        _populate(linear, count)
        linear_scans.append(linear.evaluate(probe, DIR_OUT).scanned)
        indexed = Firewall(indexed=True)
        _populate(indexed, count)
        indexed_scans.append(indexed.evaluate(probe, DIR_OUT).scanned)
    return RuleLookupResult(
        vnode_counts=tuple(vnode_counts),
        linear_scanned=tuple(linear_scans),
        indexed_scanned=tuple(indexed_scans),
    )


def print_rule_lookup_report(result: RuleLookupResult) -> str:
    table = Table(
        ["hosted vnodes", "linear scan (rules)", "hash-indexed (rules)"],
        title="Ablation: IPFW linear evaluation vs a hash-indexed table",
    )
    for i, count in enumerate(result.vnode_counts):
        table.add_row(count, result.linear_scanned[i], result.indexed_scanned[i])
    return table.render()


# ----------------------------------------------------------------------
# Uplink saturation: where folding overhead comes from.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UplinkSaturationResult:
    port_bandwidths: Tuple[float, ...]
    last_completions: Dict[float, float]
    reference: float  # unconstrained completion time


def run_uplink_saturation_ablation(
    port_bandwidths: Sequence[float] = (gbps(1), mbps(40), mbps(10)),
    leechers: int = 24,
    seeders: int = 2,
    num_pnodes: int = 2,
    file_size: int = 4 * MB,
    stagger: float = 2.0,
    seed: int = 0,
) -> UplinkSaturationResult:
    """The folded swarm with progressively undersized physical ports.

    Every client's DSL downlink is 2 Mbps, so ``leechers/num_pnodes``
    co-hosted clients need up to that multiple per port; once the port
    is smaller, the emulation is *wrong* and completion times inflate —
    the overhead mechanism the paper monitored for.
    """
    results: Dict[float, float] = {}
    for bw in port_bandwidths:
        from repro.bittorrent.swarm import SwarmConfig

        config = SwarmConfig(
            leechers=leechers,
            seeders=seeders,
            file_size=file_size,
            stagger=stagger,
            num_pnodes=num_pnodes,
            seed=seed,
        )
        swarm = Swarm(config)
        switch = swarm.testbed.switch
        for port in switch._ports.values():
            port.tx.reconfigure(bandwidth=bw)
            port.rx.reconfigure(bandwidth=bw)
        results[bw] = swarm.run(max_time=50000.0)
    return UplinkSaturationResult(
        port_bandwidths=tuple(port_bandwidths),
        last_completions=results,
        reference=results[port_bandwidths[0]],
    )


def print_uplink_report(result: UplinkSaturationResult) -> str:
    table = Table(
        ["port bandwidth (Mbps)", "last completion (s)", "slowdown"],
        title="Ablation: folding overhead appears when the physical port saturates",
    )
    for bw in result.port_bandwidths:
        t = result.last_completions[bw]
        table.add_row(bw * 8 / 1e6, t, t / result.reference)
    return table.render()


# ----------------------------------------------------------------------
# Choker: tit-for-tat on/off.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChokerAblationResult:
    with_tft_last: float
    without_tft_last: float
    with_tft_median: float
    without_tft_median: float
    #: Mean completion of free-riders / contributors under each choker.
    #: Tit-for-tat should punish free-riders; rate-blind should not.
    tft_freerider_penalty: float
    blind_freerider_penalty: float


def run_choker_ablation(
    leechers: int = 20,
    seeders: int = 2,
    file_size: int = 4 * MB,
    stagger: float = 2.0,
    num_pnodes: int = 4,
    freeriders: int = 5,
    freerider_up_bw: float = 2000.0,  # ~16 kbps: barely contributes
    seed: int = 0,
) -> ChokerAblationResult:
    """Tit-for-tat vs rate-blind choking, in a heterogeneous swarm.

    In a homogeneous swarm reciprocation barely moves the aggregate
    numbers (everyone uploads the same); its bite shows against
    *free-riders* — "incentives build robustness in BitTorrent". The
    last ``freeriders`` leechers get a crippled uplink; the penalty
    ratio compares their mean download time to the contributors'.
    """

    def build(disable_tft: bool) -> Swarm:
        config = SwarmConfig(
            leechers=leechers,
            seeders=seeders,
            file_size=file_size,
            stagger=stagger,
            num_pnodes=num_pnodes,
            seed=seed,
        )
        swarm = Swarm(config)
        for client in swarm.leechers[leechers - freeriders :]:
            swarm.set_access_link(client, up_bw=freerider_up_bw)
        if disable_tft:
            for client in swarm.clients:
                client.choker = _RateBlindChoker(
                    client,
                    interval=client.config.rechoke_interval,
                    upload_slots=client.config.upload_slots,
                    optimistic_rounds=client.config.optimistic_rounds,
                )
        return swarm

    def penalty(swarm: Swarm) -> float:
        contributors = swarm.leechers[: leechers - freeriders]
        riders = swarm.leechers[leechers - freeriders :]

        def mean_duration(clients) -> float:
            durations = [
                c.completed_at - (c.started_at or 0.0)
                for c in clients
                if c.completed_at is not None
            ]
            return sum(durations) / len(durations)

        return mean_duration(riders) / mean_duration(contributors)

    normal = build(False)
    normal_last = normal.run(max_time=50000.0)
    normal_times = normal.completion_times()
    tft_penalty = penalty(normal)

    blind = build(True)
    blind_last = blind.run(max_time=50000.0)
    blind_times = blind.completion_times()
    blind_penalty = penalty(blind)

    return ChokerAblationResult(
        with_tft_last=normal_last,
        without_tft_last=blind_last,
        with_tft_median=normal_times[len(normal_times) // 2],
        without_tft_median=blind_times[len(blind_times) // 2],
        tft_freerider_penalty=tft_penalty,
        blind_freerider_penalty=blind_penalty,
    )


class _RateBlindChoker(Choker):
    """Choker variant that ignores observed rates: every rechoke round
    hands the unchoke slots to a random set of interested peers."""

    def _rate_key(self, peer, now):
        return self._rng.random()


def print_choker_report(result: ChokerAblationResult) -> str:
    table = Table(
        [
            "choker",
            "median completion (s)",
            "last completion (s)",
            "free-rider penalty",
        ],
        title="Ablation: tit-for-tat reciprocation (swarm with crippled-uplink free-riders)",
    )
    table.add_row(
        "tit-for-tat (mainline)",
        result.with_tft_median,
        result.with_tft_last,
        result.tft_freerider_penalty,
    )
    table.add_row(
        "rate-blind",
        result.without_tft_median,
        result.without_tft_last,
        result.blind_freerider_penalty,
    )
    return table.render()


# ----------------------------------------------------------------------
# Explicit TCP ACKs vs the window-credit shortcut.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AckAblationResult:
    shortcut_last: float
    explicit_last: float
    shortcut_median: float
    explicit_median: float

    @property
    def relative_difference(self) -> float:
        return abs(self.explicit_last - self.shortcut_last) / self.shortcut_last


def run_ack_ablation(
    leechers: int = 16,
    seeders: int = 2,
    file_size: int = 2 * MB,
    stagger: float = 2.0,
    num_pnodes: int = 4,
    seed: int = 0,
) -> AckAblationResult:
    """Quantify the emulation's no-ACK shortcut (DESIGN.md deviation 3).

    The default transport credits the sender's window when a segment is
    delivered; real TCP waits for a 40-byte ACK that competes for the
    receiver's *upload* link — the scarce resource on the paper's
    asymmetric DSL profiles. Running the same swarm both ways bounds
    the error the shortcut introduces.
    """
    results = {}
    for explicit in (False, True):
        config = SwarmConfig(
            leechers=leechers,
            seeders=seeders,
            file_size=file_size,
            stagger=stagger,
            num_pnodes=num_pnodes,
            seed=seed,
            tcp_explicit_acks=explicit,
        )
        swarm = Swarm(config)
        last = swarm.run(max_time=50000.0)
        times = swarm.completion_times()
        results[explicit] = (last, times[len(times) // 2])
    return AckAblationResult(
        shortcut_last=results[False][0],
        explicit_last=results[True][0],
        shortcut_median=results[False][1],
        explicit_median=results[True][1],
    )


def print_ack_report(result: AckAblationResult) -> str:
    table = Table(
        ["transport", "median completion (s)", "last completion (s)"],
        title="Ablation: explicit TCP ACK traffic vs the window-credit shortcut",
    )
    table.add_row("window credit (default)", result.shortcut_median, result.shortcut_last)
    table.add_row("explicit 40B ACKs", result.explicit_median, result.explicit_last)
    lines = [table.render()]
    lines.append(
        f"relative difference in drain time: {100 * result.relative_difference:.1f}%"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# ULE's FreeBSD 5 -> 6 fairness regression fix (the paper's ref [12]).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UleGenerationResult:
    freebsd5_spread: float
    freebsd6_spread: float
    freebsd5_range: Tuple[float, float]
    freebsd6_range: Tuple[float, float]


def run_ule_generation_ablation(instances: int = 100, seed: int = 0) -> UleGenerationResult:
    """FreeBSD 5's ULE ("some processes were excessively privileged ...
    and allowed to run alone on a CPU", the paper's reference [12])
    versus the FreeBSD 6 behaviour Figure 3 measures."""
    from repro.hostos.machine import Machine
    from repro.hostos.scheduler.ule import (
        FREEBSD5_BIAS_SIGMA,
        FREEBSD6_BIAS_SIGMA,
        UleScheduler,
    )
    from repro.hostos.workloads import fairness_task
    from repro.sim import Simulator
    from repro.analysis.cdf import spread

    outcomes = {}
    for label, sigma in (("fb5", FREEBSD5_BIAS_SIGMA), ("fb6", FREEBSD6_BIAS_SIGMA)):
        sim = Simulator(seed=seed)
        machine = Machine(sim, UleScheduler(bias_sigma=sigma), ncpus=2)
        for i in range(instances):
            machine.submit(fairness_task(i))
        sim.run()
        finishes = sorted(r.finish_time for r in machine.results)
        outcomes[label] = (spread(finishes), (finishes[0], finishes[-1]))
    return UleGenerationResult(
        freebsd5_spread=outcomes["fb5"][0],
        freebsd6_spread=outcomes["fb6"][0],
        freebsd5_range=outcomes["fb5"][1],
        freebsd6_range=outcomes["fb6"][1],
    )


def print_ule_generation_report(result: UleGenerationResult) -> str:
    table = Table(
        ["ULE generation", "min finish (s)", "max finish (s)", "spread"],
        title="Ablation: ULE fairness, FreeBSD 5 vs FreeBSD 6 (paper ref [12])",
    )
    table.add_row(
        "FreeBSD 5 (broken)", result.freebsd5_range[0], result.freebsd5_range[1],
        result.freebsd5_spread,
    )
    table.add_row(
        "FreeBSD 6 (Figure 3)", result.freebsd6_range[0], result.freebsd6_range[1],
        result.freebsd6_spread,
    )
    return table.render()


# ----------------------------------------------------------------------
# Departure policy: the paper's "they stay online and become seeders".
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DepartureResult:
    stay_last: float
    leave_last: float
    stay_median: float
    leave_median: float

    @property
    def tail_penalty(self) -> float:
        """How much the last finisher suffers when peers leave."""
        return self.leave_last / self.stay_last


def run_departure_ablation(
    leechers: int = 16,
    seeders: int = 1,
    file_size: int = 4 * MB,
    stagger: float = 5.0,
    num_pnodes: int = 4,
    seed: int = 0,
) -> DepartureResult:
    """The paper's experiments keep finished clients seeding; this
    ablation removes them instead (selfish departure). With staggered
    starts, late arrivals then face a swarm whose capacity left with
    the early finishers — the tail of Figure 8 stretches."""
    from repro.bittorrent.client import ClientConfig

    outcomes = {}
    for stay in (True, False):
        config = SwarmConfig(
            leechers=leechers,
            seeders=seeders,
            file_size=file_size,
            stagger=stagger,
            num_pnodes=num_pnodes,
            seed=seed,
            client=ClientConfig(seed_after_complete=stay),
        )
        swarm = Swarm(config)
        last = swarm.run(max_time=100000.0)
        times = swarm.completion_times()
        outcomes[stay] = (last, times[len(times) // 2])
    return DepartureResult(
        stay_last=outcomes[True][0],
        leave_last=outcomes[False][0],
        stay_median=outcomes[True][1],
        leave_median=outcomes[False][1],
    )


def print_departure_report(result: DepartureResult) -> str:
    table = Table(
        ["after completion", "median completion (s)", "last completion (s)"],
        title='Ablation: "stay online and become seeders" vs selfish departure',
    )
    table.add_row("stay and seed (paper)", result.stay_median, result.stay_last)
    table.add_row("disconnect", result.leave_median, result.leave_last)
    lines = [table.render()]
    lines.append(f"tail penalty of departure: {result.tail_penalty:.2f}x")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Super-seeding (BitTorrent 4.x "-s" mode).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SuperSeedResult:
    normal_seeder_uploaded: int
    superseed_seeder_uploaded: int
    normal_last: float
    superseed_last: float
    pieces_redistributed: int

    @property
    def upload_saving(self) -> float:
        """Fraction of seeder upload saved by super-seeding."""
        if self.normal_seeder_uploaded == 0:
            return 0.0
        return 1.0 - self.superseed_seeder_uploaded / self.normal_seeder_uploaded


def run_superseed_ablation(
    leechers: int = 10,
    file_size: int = 2 * MB,
    stagger: float = 1.0,
    num_pnodes: int = 2,
    seed: int = 0,
) -> SuperSeedResult:
    """One initial seeder, normal vs super-seeding: super-seeding's
    goal is to minimize the bytes the initial seeder must upload before
    the swarm is self-sustaining."""
    from repro.bittorrent.client import ClientConfig

    outcomes = {}
    for super_seed in (False, True):
        config = SwarmConfig(
            leechers=leechers,
            seeders=1,
            file_size=file_size,
            stagger=stagger,
            num_pnodes=num_pnodes,
            seed=seed,
            client=ClientConfig(super_seed=super_seed),
        )
        swarm = Swarm(config)
        last = swarm.run(max_time=50000.0)
        seeder = swarm.seeders[0]
        outcomes[super_seed] = (seeder.bytes_uploaded, last, seeder.ss_pieces_redistributed)
    return SuperSeedResult(
        normal_seeder_uploaded=outcomes[False][0],
        superseed_seeder_uploaded=outcomes[True][0],
        normal_last=outcomes[False][1],
        superseed_last=outcomes[True][1],
        pieces_redistributed=outcomes[True][2],
    )


def print_superseed_report(result: SuperSeedResult) -> str:
    table = Table(
        ["seeding mode", "seeder uploaded (MiB)", "last completion (s)"],
        title="Ablation: super-seeding vs normal initial seeding",
    )
    table.add_row("normal", result.normal_seeder_uploaded / MB, result.normal_last)
    table.add_row(
        "super-seed", result.superseed_seeder_uploaded / MB, result.superseed_last
    )
    lines = [table.render()]
    lines.append(
        f"seeder upload saved: {100 * result.upload_saving:.0f}%; "
        f"{result.pieces_redistributed} grants verified redistributed"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Stagger interval.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StaggerResult:
    staggers: Tuple[float, ...]
    last_completions: Dict[float, float]
    median_durations: Dict[float, float]


def run_stagger_ablation(
    staggers: Sequence[float] = (0.0, 2.0, 10.0),
    leechers: int = 20,
    seeders: int = 2,
    file_size: int = 4 * MB,
    num_pnodes: int = 4,
    seed: int = 0,
) -> StaggerResult:
    last: Dict[float, float] = {}
    median: Dict[float, float] = {}
    for stagger in staggers:
        config = SwarmConfig(
            leechers=leechers,
            seeders=seeders,
            file_size=file_size,
            stagger=stagger,
            num_pnodes=num_pnodes,
            seed=seed,
        )
        swarm = Swarm(config)
        last[stagger] = swarm.run(max_time=50000.0)
        durations = sorted(
            c.completed_at - (c.started_at or 0.0) for c in swarm.leechers
        )
        median[stagger] = durations[len(durations) // 2]
    return StaggerResult(
        staggers=tuple(staggers), last_completions=last, median_durations=median
    )


def print_stagger_report(result: StaggerResult) -> str:
    table = Table(
        ["stagger (s)", "median download (s)", "last completion (s)"],
        title="Ablation: client start interval",
    )
    for stagger in result.staggers:
        table.add_row(
            stagger, result.median_durations[stagger], result.last_completions[stagger]
        )
    return table.render()
