"""Execution plans: a sweep expanded into concrete run requests.

A sweep is *experiment id × parameter grid × replications*.
:meth:`ExecutionPlan.build` expands that cross product into an ordered
list of :class:`~repro.experiments.api.RunRequest` points with
deterministic per-point seeds derived from the base seed through the
same BLAKE2b child-stream derivation the simulator's
:class:`~repro.sim.rng.RngRegistry` uses — so a point's seed depends
only on (base seed, experiment id, parameter values, replication
index), never on scheduling order. That is the property that makes
``--parallel N`` byte-identical to ``--parallel 1``: every point is a
self-contained deterministic run, and the aggregate orders points by
plan position, not completion order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.api import RunRequest
from repro.sim.rng import derive_seed


def _point_name(experiment_id: str, params: Mapping[str, Any], replication: int) -> str:
    """Stable stream name for per-point seed derivation."""
    parts = [f"{k}={params[k]!r}" for k in sorted(params)]
    return f"runtime.point/{experiment_id}/{','.join(parts)}/rep{replication}"


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered, fully-expanded sweep."""

    experiment_id: str
    points: Tuple[RunRequest, ...]
    base_seed: int = 0
    replications: int = 1
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    base_params: Tuple[Tuple[str, Any], ...] = ()

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def grid_dict(self) -> Dict[str, Tuple[Any, ...]]:
        return dict(self.grid)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary used by the aggregate manifest."""
        return {
            "experiment_id": self.experiment_id,
            "base_seed": self.base_seed,
            "replications": self.replications,
            "grid": {k: list(v) for k, v in self.grid},
            "base_params": dict(self.base_params),
            "points": len(self.points),
        }

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        experiment_id: str,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        base_params: Optional[Mapping[str, Any]] = None,
        replications: int = 1,
        base_seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
    ) -> "ExecutionPlan":
        """Expand ``grid`` × ``replications`` into run requests.

        * ``grid`` maps parameter names to the values to sweep; the
          cross product is taken in sorted-key order (deterministic).
        * ``base_params`` are passed to every point unchanged.
        * Each point's seed is ``derive_seed(base_seed, point_name)``
          unless ``seeds`` pins an explicit seed per replication
          (then ``len(seeds)`` overrides ``replications`` and
          replication *i* runs with ``seeds[i]`` verbatim — the
          classic seed-sweep).
        """
        grid = dict(grid or {})
        base_params = dict(base_params or {})
        if seeds is not None:
            replications = len(seeds)
        if replications < 1:
            raise ValueError("replications must be >= 1")

        axes = sorted(grid)
        combos: List[Dict[str, Any]]
        if axes:
            combos = [
                dict(zip(axes, values))
                for values in itertools.product(*(tuple(grid[a]) for a in axes))
            ]
        else:
            combos = [{}]

        points: List[RunRequest] = []
        for combo in combos:
            params = dict(base_params)
            params.update(combo)
            for rep in range(replications):
                if seeds is not None:
                    seed = int(seeds[rep])
                else:
                    seed = derive_seed(
                        base_seed, _point_name(experiment_id, params, rep)
                    )
                points.append(
                    RunRequest.make(experiment_id, params, seed=seed, replication=rep)
                )
        return cls(
            experiment_id=experiment_id,
            points=tuple(points),
            base_seed=base_seed,
            replications=replications,
            grid=tuple((a, tuple(grid[a])) for a in axes),
            base_params=tuple(sorted(base_params.items())),
        )
