"""Registry mapping experiment ids to what they run.

Entries are data: each names its callables by ``"module:attribute"``
strings (modules of :mod:`repro.experiments`), and a name is imported
only when the entry is executed. ``python -m repro list`` therefore
loads no experiment module, and ``run fig8`` loads fig8 alone.

* ``run`` — the experiment's typed ``run_figN(**params)`` function;
* ``report`` — renders its result as the printed report;
* ``artifacts`` — the JSON-serializable scalars a sweep aggregates
  (default: every scalar dataclass field of the result);
* ``point`` — an optional ``RunRequest -> RunResult`` function for one
  sweep point (one grid value per call), used by ``python -m repro
  sweep <id>`` so a figure's x-axis fans out over the
  :mod:`repro.runtime` worker pool; its ``__wrapped__`` is a typed
  function whose signature names the parameters a point takes, which
  :meth:`ExperimentEntry.check_params` checks before a sweep starts;
* ``sweep_grid`` / ``sweep_base`` — the default grid (the figure's
  x-axis values) and fixed parameters.

:meth:`ExperimentEntry.execute` is the one adapter from the
:class:`~repro.experiments.api.RunRequest` protocol to a ``run``
function. Experiments without a ``point`` still sweep: each point is a
whole ``execute`` call with that point's parameters, which is what a
replication-only sweep (``--replications N``) wants anyway.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.api import RunRequest, RunResult
from repro.units import MB


def resolve(name: str) -> Callable[..., Any]:
    """Import ``"module:attribute"`` from :mod:`repro.experiments`."""
    module, _, attribute = name.partition(":")
    return getattr(importlib.import_module(f"repro.experiments.{module}"), attribute)


def _accepted(fn: Callable[..., Any]) -> Optional[Tuple[str, ...]]:
    """The parameter names ``fn`` takes; ``None`` when it takes
    ``**kwargs``. Follows ``__wrapped__``, which is how a ``RunRequest``
    point runner names the parameters it reads."""
    params = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return None
    return tuple(params)


def _scalar_fields(value: Any) -> Dict[str, Any]:
    """Every scalar (int/float/str/bool) dataclass field of a result."""
    if not dataclasses.is_dataclass(value) or isinstance(value, type):
        return {}
    return {
        f.name: getattr(value, f.name)
        for f in dataclasses.fields(value)
        if isinstance(getattr(value, f.name), (int, float, str, bool))
    }


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artefact."""

    id: str
    title: str
    #: ``"module:attribute"`` of the typed ``run_figN(**params)``.
    run: str
    #: ``"module:attribute"`` of the report renderer.
    report: str
    #: ``"module:attribute"`` of the artifact extractor (``None`` →
    #: the result's scalar dataclass fields).
    artifacts: Optional[str] = None
    #: ``"module:attribute"`` of a per-sweep-point ``RunRequest ->
    #: RunResult`` function (``None`` → sweeps reuse ``execute``).
    point: Optional[str] = None
    #: Default sweep grid: parameter name -> values (the figure's x-axis).
    sweep_grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    #: Fixed parameters every sweep point receives by default.
    sweep_base: Tuple[Tuple[str, Any], ...] = ()

    def check_params(
        self, names: Iterable[str], point: bool = False
    ) -> Optional[Tuple[str, ...]]:
        """Raise :class:`ExperimentError` for any of ``names`` that
        ``run`` — or, with ``point``, the sweep point runner — does not
        take; return what it takes (``None``: anything)."""
        fn = resolve(self.point if point and self.point else self.run)
        accepted = _accepted(fn)
        unknown = sorted(set(names) - set(accepted)) if accepted is not None else []
        if unknown:
            raise ExperimentError(
                f"{self.id} takes no parameter {', '.join(unknown)} "
                f"(accepted: {', '.join(accepted)})"
            )
        return accepted

    def execute(self, request: RunRequest) -> RunResult:
        """Run the whole experiment for ``request``.

        The request's ``seed`` is passed to ``run`` when its signature
        takes it (a ``**kwargs`` function takes everything); an explicit
        ``seed`` parameter wins. A parameter ``run`` does not take is an
        :class:`ExperimentError`.
        """
        kwargs = request.kwargs
        accepted = self.check_params(kwargs)
        if accepted is None or "seed" in accepted:
            kwargs.setdefault("seed", request.seed)
        value = resolve(self.run)(**kwargs)
        artifacts = resolve(self.artifacts) if self.artifacts else _scalar_fields
        return RunResult.ok(
            request,
            value=value,
            artifacts=artifacts(value),
            report=resolve(self.report)(value),
        )

    def point_runner(self, request: RunRequest) -> RunResult:
        """Run one sweep point: ``point`` if defined, else ``execute``."""
        if self.point is None:
            return self.execute(request)
        return resolve(self.point)(request)

    @property
    def sweep_grid_dict(self) -> Dict[str, Tuple[Any, ...]]:
        return dict(self.sweep_grid)

    @property
    def sweep_base_dict(self) -> Dict[str, Any]:
        return dict(self.sweep_base)


def _entry(
    id: str,
    title: str,
    run: str,
    report: str,
    artifacts: Optional[str] = None,
    point: Optional[str] = None,
    sweep_grid: Optional[Dict[str, tuple]] = None,
    sweep_base: Optional[Dict[str, Any]] = None,
) -> ExperimentEntry:
    return ExperimentEntry(
        id, title, run, report, artifacts, point,
        sweep_grid=tuple(sorted((k, tuple(v)) for k, v in (sweep_grid or {}).items())),
        sweep_base=tuple(sorted((sweep_base or {}).items())),
    )


EXPERIMENTS: Dict[str, ExperimentEntry] = {
    e.id: e
    for e in [
        _entry("fig1", "CPU-bound process scalability",
               "fig1_cpu_scalability:run_fig1", "fig1_cpu_scalability:print_report",
               "fig1_cpu_scalability:artifacts"),
        _entry("fig2", "Memory-intensive processes and swap",
               "fig2_memory_pressure:run_fig2", "fig2_memory_pressure:print_report"),
        _entry("fig3", "Scheduler fairness CDFs",
               "fig3_fairness:run_fig3", "fig3_fairness:print_report",
               "fig3_fairness:artifacts"),
        _entry("tblA", "libc interception connect overhead",
               "tbl_connect_overhead:run_connect_overhead",
               "tbl_connect_overhead:print_report"),
        _entry("tblB", "interface alias overhead",
               "tbl_alias_overhead:run_alias_overhead", "tbl_alias_overhead:print_report"),
        _entry("fig6", "RTT vs firewall rule count",
               "fig6_rule_scaling:run_fig6", "fig6_rule_scaling:print_report",
               "fig6_rule_scaling:artifacts", "fig6_rule_scaling:run_point",
               sweep_grid={"rule_count": (0, 10000, 20000, 30000, 40000, 50000)},
               sweep_base={"pings_per_point": 5}),
        _entry("fig7", "Hierarchical topology emulation",
               "fig7_topology:run_fig7", "fig7_topology:print_report"),
        _entry("fig8", "160-client BitTorrent download evolution",
               "fig8_download_evolution:run_fig8", "fig8_download_evolution:print_report",
               "fig8_download_evolution:artifacts"),
        _entry("fig9", "Folding ratio",
               "fig9_folding:run_fig9", "fig9_folding:print_report",
               "fig9_folding:artifacts", "fig9_folding:run_point",
               sweep_grid={"num_pnodes": (160, 16, 8, 4, 2)},
               sweep_base={"leechers": 160, "seeders": 4, "file_size": 16 * MB}),
        _entry("fig10", "5754-client scalability (progress)",
               "fig10_scalability:run_fig10", "fig10_scalability:print_report",
               "fig10_scalability:artifacts", "fig10_scalability:run_point",
               sweep_grid={"scale": (0.01, 0.02, 0.05)}),
        _entry("fig10_cells", "5754 clients as independent sub-swarm cells",
               "fig10_scalability:run_fig10_cells", "fig10_scalability:print_report",
               "fig10_scalability:artifacts", "fig10_scalability:run_cells_point",
               sweep_grid={"scale": (0.01, 0.02, 0.05)}),
        _entry("fig11", "5754-client scalability (completions)",
               "fig11_completion:run_fig11", "fig11_completion:print_report"),
        _entry("abl-rule-lookup", "Linear vs hash-indexed firewall",
               "ablations:run_rule_lookup_ablation", "ablations:print_rule_lookup_report"),
        _entry("abl-uplink", "Folding overhead from port saturation",
               "ablations:run_uplink_saturation_ablation", "ablations:print_uplink_report"),
        _entry("abl-choker", "Tit-for-tat on/off",
               "ablations:run_choker_ablation", "ablations:print_choker_report"),
        _entry("abl-stagger", "Client start stagger",
               "ablations:run_stagger_ablation", "ablations:print_stagger_report"),
        _entry("abl-acks", "Explicit TCP ACKs vs window-credit shortcut",
               "ablations:run_ack_ablation", "ablations:print_ack_report"),
        _entry("abl-ule-gen", "ULE fairness: FreeBSD 5 vs 6",
               "ablations:run_ule_generation_ablation",
               "ablations:print_ule_generation_report"),
        _entry("abl-superseed", "Super-seeding vs normal initial seeding",
               "ablations:run_superseed_ablation", "ablations:print_superseed_report"),
        _entry("abl-departure", "Stay-and-seed vs selfish departure",
               "ablations:run_departure_ablation", "ablations:print_departure_report"),
    ]
}


def get_experiment(experiment_id: str) -> ExperimentEntry:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
