"""Per-run provenance: the run manifest.

The virtual-edge-testbed literature's "note of caution" is that
emulation numbers are only interpretable alongside a record of *how*
they were produced. A :class:`RunManifest` captures that record for
one run: the seed, a content hash of the topology, package/python
versions, the final simulation clock, wall-clock cost, and event
counts. Experiments attach it to every metrics export so a result
file is self-describing.

Wall-clock fields are obviously not reproducible; they live in the
manifest (provenance), never in the metric snapshot (the determinism
guard). Fields that cannot be determined are ``None`` rather than
guessed.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


def topology_fingerprint(spec: Any) -> str:
    """Deterministic sha256 over a :class:`~repro.topology.spec.TopologySpec`.

    Canonicalizes groups (sorted by name) and latency entries (sorted
    by prefix pair) into JSON and hashes that — stable across runs,
    interpreters and ``PYTHONHASHSEED``.
    """
    import hashlib  # on use: a run that never fingerprints maps no OpenSSL

    groups = []
    for name in sorted(spec.groups):
        g = spec.groups[name]
        groups.append(
            {
                "name": g.name,
                "prefix": str(g.prefix),
                "count": g.count,
                "down_bw": g.down_bw,
                "up_bw": g.up_bw,
                "latency": g.latency,
                "plr": g.plr,
            }
        )
    latencies = sorted(
        [str(src), str(dst), lat] for src, dst, lat in spec.iter_latency_entries()
    )
    doc = json.dumps(
        {"name": spec.name, "groups": groups, "latencies": latencies},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance record of one emulation run."""

    seed: Optional[int] = None
    package_version: Optional[str] = None
    python_version: str = field(default_factory=platform.python_version)
    topology_hash: Optional[str] = None
    sim_time: float = 0.0
    wall_time_seconds: Optional[float] = None
    events_processed: int = 0
    events_pending: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_sim(
        cls,
        sim: Any,
        seed: Optional[int] = None,
        topology_hash: Optional[str] = None,
        wall_time_seconds: Optional[float] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Build a manifest from a :class:`~repro.sim.kernel.Simulator`."""
        from repro import __version__

        if seed is None:
            seed = getattr(getattr(sim, "rng", None), "root_seed", None)
        return cls(
            seed=seed,
            package_version=__version__,
            topology_hash=topology_hash,
            sim_time=sim.now,
            wall_time_seconds=wall_time_seconds,
            events_processed=sim.events_processed,
            events_pending=sim.pending,
            extra=dict(extra),
        )

    def as_dict(self, deterministic_only: bool = False) -> Dict[str, Any]:
        """JSON-ready dict; ``deterministic_only`` drops host-specific
        fields (wall clock, python version) for byte-identity checks."""
        doc: Dict[str, Any] = {
            "seed": self.seed,
            "package_version": self.package_version,
            "topology_hash": self.topology_hash,
            "sim_time": self.sim_time,
            "events_processed": self.events_processed,
            "events_pending": self.events_pending,
            "extra": dict(sorted(self.extra.items())),
        }
        if not deterministic_only:
            doc["python_version"] = self.python_version
            doc["wall_time_seconds"] = self.wall_time_seconds
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunManifest(seed={self.seed}, sim_time={self.sim_time:.3f}, "
            f"events={self.events_processed})"
        )
