"""One measurement in a fresh interpreter.

``perf/harness.py`` starts this script once per repeat so that no run
inherits another's warm caches, free lists or heap. It does one of:

* a workload run: set up, (optionally start the stack sampler,) time
  the run phase, report — ``--workload NAME --config JSON --t0 T``;
* set-up only, to sample ``setup_s`` more often than the run —
  ``--setup-only``;
* the layer drives — ``--drives``.

The last line of standard output is one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
sys.path.insert(0, SRC_DIR)


def _cpu_seconds() -> float:
    """User+system CPU of this process and every worker it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run_workload(args) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(json.loads(args.config))
    setup_s = time.time() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    sampler = None
    if args.trace:
        from sampler import StackSampler

        sampler = StackSampler(os.path.join(SRC_DIR, "repro"))
        sampler.start()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    workload.run(state)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    if sampler is not None:
        sampler.stop()
    peak_rss_mb = _peak_rss_mb()

    doc = workload.report(state, wall_s)
    doc.update(
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
        trace=sampler.report() if sampler is not None else None,
    )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--config", default="{}")
    parser.add_argument("--t0", type=float, default=time.time(),
                        help="time.time() read by the harness just before starting this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--drives", action="store_true")
    args = parser.parse_args(argv)
    if args.drives:
        import layers

        doc = layers.run_all()
    else:
        doc = run_workload(args)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
