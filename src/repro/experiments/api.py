"""The unified experiment protocol: ``RunRequest`` → ``RunResult``.

Historically every experiment module exposed its own ``run_figN(...)``
signature and the registry stored bare callables, which made it
impossible to drive experiments generically (sweeps, parallel
execution, checkpointing). This module defines the one contract every
entry point now speaks:

* :class:`RunRequest` — *what* to run: experiment id, parameter dict,
  seed and replication index. Frozen, hashable by its :attr:`key`,
  and JSON-round-trippable, so a request can cross process boundaries
  and name a checkpoint line.
* :class:`RunResult` — *what happened*: the request echoed back, a
  JSON-serializable ``artifacts`` dict of extracted metrics, the
  rendered report, status/error, and (in-process only) the rich
  result object.

Experiment modules keep their typed ``run_figN(**params)`` functions;
:meth:`repro.experiments.registry.ExperimentEntry.execute` is the one
adapter from a request to such a function.

The :mod:`repro.runtime` execution engine consumes exactly this
protocol — see DESIGN.md, "The RunRequest/RunResult contract".
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

#: Result statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"


def _freeze_params(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical (sorted, tuple-ized) form of a parameter mapping."""
    frozen = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            value = tuple(value)
        frozen.append((key, value))
    return tuple(frozen)


@dataclass(frozen=True)
class RunRequest:
    """One point of work: run ``experiment_id`` with ``params`` at ``seed``.

    ``replication`` distinguishes repeated runs of the same parameter
    point under different derived seeds (see
    :meth:`repro.runtime.plan.ExecutionPlan.build`).
    """

    experiment_id: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    replication: int = 0
    #: Fluid-flow transfer model (:mod:`repro.net.fluid`); ``None`` =
    #: not requested (the experiment's own default applies). A *model*
    #: knob — fluid runs produce different (approximated) results — so
    #: a set value is part of :attr:`key`; unset requests keep their
    #: legacy keys.
    fluid: Optional[bool] = None

    @classmethod
    def make(
        cls,
        experiment_id: str,
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        replication: int = 0,
        fluid: Optional[bool] = None,
    ) -> "RunRequest":
        return cls(
            experiment_id=experiment_id,
            params=_freeze_params(params or {}),
            seed=seed,
            replication=replication,
            fluid=fluid,
        )

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The parameter dict to splat into a ``run_figN`` function."""
        return dict(self.params)

    @property
    def key(self) -> str:
        """Stable identity of this point — names its checkpoint line.

        Deterministic across interpreter runs and ``PYTHONHASHSEED``
        values (plain JSON of canonicalized fields, no ``hash()``).
        """
        payload = [self.experiment_id, list(list(p) for p in self.params),
                   self.seed, self.replication]
        if self.fluid is not None:
            payload.append({"fluid": self.fluid})
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
        )

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "experiment_id": self.experiment_id,
            "params": self.kwargs,
            "seed": self.seed,
            "replication": self.replication,
        }
        if self.fluid is not None:
            doc["fluid"] = self.fluid
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunRequest":
        fluid = doc.get("fluid")
        return cls.make(
            doc["experiment_id"],
            doc.get("params") or {},
            seed=int(doc.get("seed", 0)),
            replication=int(doc.get("replication", 0)),
            fluid=None if fluid is None else bool(fluid),
        )


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one :class:`RunRequest`.

    ``artifacts`` is the JSON-serializable face of the result (scalar
    metrics a sweep aggregates); ``value`` is the rich in-process
    result object (dropped when a result crosses a process boundary or
    is checkpointed).
    """

    request: RunRequest
    status: str = STATUS_OK
    artifacts: Dict[str, Any] = field(default_factory=dict)
    report: str = ""
    error: Optional[str] = None
    attempts: int = 1
    value: Any = None

    @classmethod
    def ok(
        cls,
        request: RunRequest,
        value: Any = None,
        artifacts: Optional[Dict[str, Any]] = None,
        report: str = "",
    ) -> "RunResult":
        return cls(
            request=request,
            status=STATUS_OK,
            artifacts=dict(artifacts or {}),
            report=report,
            value=value,
        )

    @classmethod
    def failed(
        cls, request: RunRequest, error: str, attempts: int = 1
    ) -> "RunResult":
        return cls(
            request=request,
            status=STATUS_FAILED,
            error=error,
            attempts=attempts,
        )

    @property
    def is_ok(self) -> bool:
        return self.status == STATUS_OK

    def with_attempts(self, attempts: int) -> "RunResult":
        return dataclasses.replace(self, attempts=attempts)

    def as_dict(self) -> Dict[str, Any]:
        """Serializable form (drops :attr:`value`) — the checkpoint line."""
        return {
            "request": self.request.as_dict(),
            "status": self.status,
            "artifacts": self.artifacts,
            "report": self.report,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunResult":
        return cls(
            request=RunRequest.from_dict(doc["request"]),
            status=doc.get("status", STATUS_OK),
            artifacts=dict(doc.get("artifacts") or {}),
            report=doc.get("report", ""),
            error=doc.get("error"),
            attempts=int(doc.get("attempts", 1)),
        )
