"""Swarm-level statistics.

The measurement studies the paper cites (Izal et al.'s "Dissecting
BitTorrent", Pouwelse et al.) characterize swarms through share
ratios, seeder/leecher evolution and piece availability; this module
computes the same metrics from a finished (or running) emulated swarm,
so P2PLab users can compare their emulated swarms against those
published measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bittorrent.client import BitTorrentClient
from repro.core.collector import completion_times


@dataclass(frozen=True)
class ShareStats:
    """Upload/download accounting across the swarm's leechers."""

    ratios: Tuple[float, ...]  # per-leecher uploaded/downloaded
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    gini: float  # inequality of upload contribution (0 = perfectly even)


def share_ratios(clients: List[BitTorrentClient]) -> ShareStats:
    """Share-ratio distribution over clients that downloaded anything."""
    ratios = [
        c.bytes_uploaded / c.bytes_downloaded
        for c in clients
        if c.bytes_downloaded > 0
    ]
    if not ratios:
        raise ValueError("no client downloaded anything")
    uploads = sorted(c.bytes_uploaded for c in clients)
    return ShareStats(
        ratios=tuple(ratios),
        mean_ratio=sum(ratios) / len(ratios),
        min_ratio=min(ratios),
        max_ratio=max(ratios),
        gini=_gini(uploads),
    )


def _gini(sorted_values: List[int]) -> float:
    """Gini coefficient of a sorted non-negative sample."""
    n = len(sorted_values)
    total = sum(sorted_values)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum((i + 1) * v for i, v in enumerate(sorted_values))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


@dataclass(frozen=True)
class AvailabilityStats:
    """Piece availability across the swarm at one instant."""

    min_copies: int
    mean_copies: float
    max_copies: int
    rarest_pieces: Tuple[int, ...]


def piece_availability(clients: List[BitTorrentClient]) -> AvailabilityStats:
    """Count full-piece copies across all clients' bitfields."""
    if not clients:
        raise ValueError("no clients")
    num_pieces = clients[0].torrent.num_pieces
    copies = [0] * num_pieces
    for client in clients:
        for index in client.have.present():
            copies[index] += 1
    lowest = min(copies)
    return AvailabilityStats(
        min_copies=lowest,
        mean_copies=sum(copies) / num_pieces,
        max_copies=max(copies),
        rarest_pieces=tuple(i for i, c in enumerate(copies) if c == lowest),
    )


@dataclass(frozen=True)
class ConnectivityStats:
    """Peer-graph degree statistics."""

    mean_degree: float
    min_degree: int
    max_degree: int
    isolated: int


def connectivity(clients: List[BitTorrentClient]) -> ConnectivityStats:
    degrees = [c.peer_count for c in clients]
    return ConnectivityStats(
        mean_degree=sum(degrees) / len(degrees),
        min_degree=min(degrees),
        max_degree=max(degrees),
        isolated=sum(1 for d in degrees if d == 0),
    )


def seeder_leecher_evolution(
    trace, total_clients: int, bucket: float = 30.0
) -> List[Tuple[float, int, int]]:
    """(time, seeders, leechers) series from completion events — the
    swarm-population plot of the measurement studies. ``total_clients``
    counts downloading clients; initial seeders are excluded."""
    completions = completion_times(trace)
    if not completions:
        return []
    out: List[Tuple[float, int, int]] = []
    horizon = completions[-1]
    t = 0.0
    done = 0
    while t <= horizon + bucket:
        while done < len(completions) and completions[done] <= t:
            done += 1
        out.append((t, done, total_clients - done))
        t += bucket
    return out
