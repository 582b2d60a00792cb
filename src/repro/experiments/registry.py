"""Registry mapping experiment ids to their unified entry points.

Every entry speaks the :class:`~repro.experiments.api.RunRequest` →
:class:`~repro.experiments.api.RunResult` protocol through
:meth:`ExperimentEntry.execute`; the historical ``run``/``report``
callables remain as thin backwards-compat shims (``entry.run(**kw)``
still works everywhere it used to).

Entries that support parameter sweeps additionally carry:

* ``point`` — a per-sweep-point entry (one grid value per call), used
  by ``python -m repro sweep <id>`` so a figure's x-axis fans out over
  the :mod:`repro.runtime` worker pool;
* ``sweep_grid`` / ``sweep_base`` — the default grid (the figure's
  x-axis values) and fixed parameters.

Experiments without a bespoke ``point`` still sweep: each point is a
whole ``execute`` call with that point's parameters, which is what a
replication-only sweep (``--replications N``) wants anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments import (
    ablations,
    fig1_cpu_scalability,
    fig2_memory_pressure,
    fig3_fairness,
    fig6_rule_scaling,
    fig7_topology,
    fig8_download_evolution,
    fig9_folding,
    fig10_scalability,
    fig11_completion,
    tbl_alias_overhead,
    tbl_connect_overhead,
)
from repro.experiments.api import Execute, make_execute
from repro.units import MB


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artefact."""

    id: str
    title: str
    #: Legacy kwargs entry point (backwards-compat shim).
    run: Callable[..., object]
    #: Legacy report renderer (backwards-compat shim).
    report: Callable[[object], str]
    #: Unified entry point: ``RunRequest -> RunResult``.
    execute: Execute = None  # type: ignore[assignment]
    #: Per-sweep-point entry (``None`` → sweeps reuse ``execute``).
    point: Optional[Execute] = None
    #: Default sweep grid: parameter name -> values (the figure's x-axis).
    sweep_grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    #: Fixed parameters every sweep point receives by default.
    sweep_base: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.execute is None:
            object.__setattr__(self, "execute", make_execute(self.run, self.report))

    @property
    def point_runner(self) -> Execute:
        """What one sweep point runs: ``point`` if defined, else the
        whole-experiment ``execute``."""
        return self.point if self.point is not None else self.execute

    @property
    def sweep_grid_dict(self) -> Dict[str, Tuple[Any, ...]]:
        return dict(self.sweep_grid)

    @property
    def sweep_base_dict(self) -> Dict[str, Any]:
        return dict(self.sweep_base)


def _entry(
    id: str,
    title: str,
    module: Any = None,
    run: Callable[..., object] = None,
    report: Callable[[object], str] = None,
    sweep_grid: Optional[Dict[str, tuple]] = None,
    sweep_base: Optional[Dict[str, Any]] = None,
) -> ExperimentEntry:
    """Build an entry from a migrated module (``run``/``run_point``
    module attributes) or an explicit legacy pair."""
    legacy_run = run if run is not None else getattr(module, f"run_{id}", None)
    legacy_report = report if report is not None else module.print_report
    execute = getattr(module, "run", None) if module is not None else None
    point = getattr(module, "run_point", None) if module is not None else None
    return ExperimentEntry(
        id=id,
        title=title,
        run=legacy_run,
        report=legacy_report,
        execute=execute,
        point=point,
        sweep_grid=tuple(sorted((k, tuple(v)) for k, v in (sweep_grid or {}).items())),
        sweep_base=tuple(sorted((sweep_base or {}).items())),
    )


EXPERIMENTS: Dict[str, ExperimentEntry] = {
    e.id: e
    for e in [
        _entry(
            "fig1",
            "CPU-bound process scalability",
            fig1_cpu_scalability,
        ),
        _entry(
            "fig2",
            "Memory-intensive processes and swap",
            fig2_memory_pressure,
        ),
        _entry(
            "fig3",
            "Scheduler fairness CDFs",
            fig3_fairness,
        ),
        _entry(
            "tblA",
            "libc interception connect overhead",
            tbl_connect_overhead,
            run=tbl_connect_overhead.run_connect_overhead,
        ),
        _entry(
            "tblB",
            "interface alias overhead",
            tbl_alias_overhead,
            run=tbl_alias_overhead.run_alias_overhead,
        ),
        _entry(
            "fig6",
            "RTT vs firewall rule count",
            fig6_rule_scaling,
            sweep_grid={
                "rule_count": (0, 10000, 20000, 30000, 40000, 50000)
            },
            sweep_base={"pings_per_point": 5},
        ),
        _entry(
            "fig7",
            "Hierarchical topology emulation",
            fig7_topology,
        ),
        _entry(
            "fig8",
            "160-client BitTorrent download evolution",
            fig8_download_evolution,
        ),
        _entry(
            "fig9",
            "Folding ratio",
            fig9_folding,
            sweep_grid={"num_pnodes": (160, 16, 8, 4, 2)},
            sweep_base={"leechers": 160, "seeders": 4, "file_size": 16 * MB},
        ),
        _entry(
            "fig10",
            "5754-client scalability (progress)",
            fig10_scalability,
            sweep_grid={"scale": (0.01, 0.02, 0.05)},
        ),
        ExperimentEntry(
            id="fig10_cells",
            title="5754 clients as independent sub-swarm cells",
            run=fig10_scalability.run_fig10_cells,
            report=fig10_scalability.print_report,
            execute=fig10_scalability.run_cells,
            point=fig10_scalability.run_cells_point,
            sweep_grid=(("scale", (0.01, 0.02, 0.05)),),
        ),
        _entry(
            "fig11",
            "5754-client scalability (completions)",
            fig11_completion,
        ),
        _entry(
            "abl-rule-lookup",
            "Linear vs hash-indexed firewall",
            run=ablations.run_rule_lookup_ablation,
            report=ablations.print_rule_lookup_report,
        ),
        _entry(
            "abl-uplink",
            "Folding overhead from port saturation",
            run=ablations.run_uplink_saturation_ablation,
            report=ablations.print_uplink_report,
        ),
        _entry(
            "abl-choker",
            "Tit-for-tat on/off",
            run=ablations.run_choker_ablation,
            report=ablations.print_choker_report,
        ),
        _entry(
            "abl-stagger",
            "Client start stagger",
            run=ablations.run_stagger_ablation,
            report=ablations.print_stagger_report,
        ),
        _entry(
            "abl-acks",
            "Explicit TCP ACKs vs window-credit shortcut",
            run=ablations.run_ack_ablation,
            report=ablations.print_ack_report,
        ),
        _entry(
            "abl-ule-gen",
            "ULE fairness: FreeBSD 5 vs 6",
            run=ablations.run_ule_generation_ablation,
            report=ablations.print_ule_generation_report,
        ),
        _entry(
            "abl-superseed",
            "Super-seeding vs normal initial seeding",
            run=ablations.run_superseed_ablation,
            report=ablations.print_superseed_report,
        ),
        _entry(
            "abl-departure",
            "Stay-and-seed vs selfish departure",
            run=ablations.run_departure_ablation,
            report=ablations.print_departure_report,
        ),
    ]
}


def get_experiment(experiment_id: str) -> ExperimentEntry:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
