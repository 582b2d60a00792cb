"""repro.runtime — the parallel, fault-tolerant experiment runtime.

Turns a sweep (*experiment id × parameter grid × replication seeds*)
into an :class:`ExecutionPlan`, fans the points out over a worker
pool, and aggregates results deterministically:

* :mod:`repro.runtime.plan` — grid expansion + per-point seed
  derivation (BLAKE2b child streams, scheduling-independent);
* :mod:`repro.runtime.executor` — the worker pool: timeouts,
  crash/exception capture, bounded retry+backoff;
* :mod:`repro.runtime.checkpoint` — incremental JSONL checkpointing
  and resume;
* :mod:`repro.runtime.aggregate` — plan-ordered aggregation through
  the :mod:`repro.obs` manifest and :mod:`repro.analysis.export`
  JSON machinery.

Quick use::

    from repro.runtime import ExecutionPlan, execute_plan

    plan = ExecutionPlan.build("fig6", grid={"rule_count": [0, 10000]})
    outcome = execute_plan(plan, parallel=4)
    print(outcome.json())  # byte-identical to parallel=1

CLI: ``python -m repro sweep <id> --parallel N --resume``.
"""

from repro.experiments.api import RunRequest, RunResult
from repro.runtime.aggregate import SweepOutcome
from repro.runtime.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    load_checkpoint_events,
)
from repro.runtime.executor import (
    ATTEMPT_ENV,
    CommandWorker,
    SweepExecutor,
    execute_plan,
    registry_runner,
)
from repro.runtime.plan import ExecutionPlan

__all__ = [
    "ATTEMPT_ENV",
    "CheckpointWriter",
    "CommandWorker",
    "ExecutionPlan",
    "RunRequest",
    "RunResult",
    "SweepExecutor",
    "SweepOutcome",
    "execute_plan",
    "load_checkpoint",
    "load_checkpoint_events",
    "registry_runner",
]
