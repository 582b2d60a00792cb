"""Distributed-kernel bench: partitioned fig10, 4 workers vs 1.

Runs the partitioned Figure-10 swarm (4 independent sub-swarm cells,
see ``repro.experiments.fig10_scalability.run_fig10_partitioned``)
inline (``partitions=1``) and sharded over 4 worker processes
(``partitions=4``), asserts the two merged documents are byte-identical
(the partition determinism contract), and gates on the **critical-path
speedup**:

    speedup = (total cell CPU seconds, single process)
              / (max per-worker cell CPU seconds, 4 workers)

CPU seconds (``time.process_time`` around every build and run slice,
reported per cell in ``PartitionResult.busy_seconds``) rather than
coordinator wall-clock, because wall-clock parallel speedup is a
property of the *machine*: on a single free core 4 workers time-share
and the coordinator wall can only get worse, while the critical path —
what the run costs once one core per worker is actually available — is
measurable anywhere and immune to descheduling. With 4 balanced cells
the ideal is 4x; the 1.4x floor (``compare.py`` ``dist`` gate) leaves
room for cell imbalance and per-worker fixed costs. The raw
coordinator walls are recorded alongside for transparency.

Every timing is the best of ``TIMING_ROUNDS`` runs, the convention the
other hotpath benches use (see ``bench_kernel.py`` on single-shot
drift); for the CPU-seconds documents the kept round is the one with
the lowest total busy time.

Scale: ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies the
swarm scale, floored so even CI smoke runs keep enough per-cell work
for the ratio to mean something.
"""

import json
import os
import time

from repro.experiments.fig10_scalability import run_fig10_partitioned
from repro.sim.partition import PartitionLayout

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0") or "1.0")

#: fig10 swarm scale (fraction of the paper's 5754 leechers).
SWARM_SCALE = max(0.008, 0.02 * SCALE)
SEED = 7
PARTITIONS = 4

#: Gate: critical-path speedup at 4 workers must be at least this.
MIN_SPEEDUP = 1.4


#: Each timing (wall and busy-seconds document) is the best of this
#: many runs — the single-shot convention drifted with machine load
#: (see bench_kernel.py).
TIMING_ROUNDS = 3


def _run(partitions: int):
    t0 = time.perf_counter()
    result, merged = run_fig10_partitioned(
        scale=SWARM_SCALE, stagger=0.25, seed=SEED, partitions=partitions
    )
    wall = time.perf_counter() - t0
    return result, merged, wall


def _best_run(partitions: int, rounds: int = TIMING_ROUNDS):
    """Run ``rounds`` times; keep the round with the lowest total CPU
    seconds (its busy-seconds document is the least load-polluted) and
    the minimum coordinator wall."""
    runs = [_run(partitions) for _ in range(rounds)]
    best = min(runs, key=lambda r: sum(r[1].busy_seconds.values()))
    wall = min(r[2] for r in runs)
    return best[0], best[1], wall


def _critical_path(merged, partitions: int) -> float:
    """Max per-worker CPU seconds under the block layout ``partitions``
    would use — the run's wall-clock once each worker has its own core."""
    layout = PartitionLayout.block(len(merged.cells), partitions)
    return max(
        sum(merged.busy_seconds[merged.cells[i]] for i in group)
        for group in layout.assignments
    )


def test_dist_partition_speedup(benchmark, bench_json):
    result_1, merged_1, wall_1 = _best_run(partitions=1)

    # wall_seconds tracked by compare.py: the sharded run.
    benchmark.pedantic(
        _run, args=(PARTITIONS,), rounds=TIMING_ROUNDS, iterations=1
    )
    result_4, merged_4, wall_4 = _best_run(partitions=PARTITIONS)

    # Determinism contract: the merged document must not depend on the
    # worker count. (The full cross-hash-seed proof lives in
    # tests/test_partition.py; this is the cheap always-on check.)
    doc_1 = json.dumps(merged_1.as_dict(), sort_keys=True)
    doc_4 = json.dumps(merged_4.as_dict(), sort_keys=True)
    assert doc_1 == doc_4

    serial_cpu = sum(merged_1.busy_seconds.values())
    critical_4 = _critical_path(merged_4, PARTITIONS)
    speedup = serial_cpu / critical_4
    assert merged_4.workers == PARTITIONS

    bench_json(
        "dist",
        clients=result_4.clients,
        cells=len(merged_4.cells),
        partitions=PARTITIONS,
        swarm_scale=SWARM_SCALE,
        serial_cpu_seconds=round(serial_cpu, 6),
        critical_path_seconds=round(critical_4, 6),
        speedup=round(speedup, 3),
        coordinator_wall_p1=round(wall_1, 6),
        coordinator_wall_p4=round(wall_4, 6),
        wall_speedup=round(wall_1 / wall_4, 3),
    )

    assert speedup >= MIN_SPEEDUP
