"""The end-to-end benchmark: ``python perf/run.py``.

Runs the six workloads (three fresh-interpreter repeats each), prints
every end-to-end metric by name with unit, median, min/max and sample
count, checks the outputs, writes ``perf/out/latest.json`` and exits
non-zero on any failed check.

    python perf/run.py                       # all six workloads
    python perf/run.py --trace               # + sampled run, layer drives, per-layer table
    python perf/run.py --workload ping_mesh --repeats 5 --seed 1
    python perf/run.py --selfcheck           # two sets must agree within the bounds
    python perf/run.py --pin                 # re-pin perf/references.json (its own PR)

Benchmark-driver form (see ``BENCHMARK.json``), one workload per call:

    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--seconds`` times one batch of every input variant, starting at the
seed's own, and goes round again until at least S seconds have been
measured (one round of three batches today); it reports the quietest
batch's timings (the host only adds time), the median memory, and the
median of five set-ups. With ``--trace 1`` it times
the seed's variant only, sampled run included. The last line of standard
output is then one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the declared end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

import harness
import sampler
import workloads

DEFAULT_JSON = os.path.join(workloads.OUT_DIR, "latest.json")
REPO_SRC = os.path.join(os.path.dirname(harness.PERF_DIR), "src", "repro")


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_measurement(doc: Dict[str, Any]) -> None:
    variants = ",".join(map(str, dict.fromkeys(doc["variants"])))
    print(f"== {doc['workload']} (seed {doc['seed']}, input variants {variants}) ==")
    print(f"  {'metric':<14}{'unit':<9}{'median':>11}{'min':>11}{'max':>11}{'n':>4}")
    for metric, s in doc["end_to_end"].items():
        unit = f"{doc['work_unit']}/s" if metric == "work_per_s" else s["unit"]
        print(
            f"  {metric:<14}{unit:<9}{_fmt(s['median']):>11}"
            f"{_fmt(s['min']):>11}{_fmt(s['max']):>11}{s['n']:>4}"
        )
    reference = "none" if doc["reference"] is None else f"{doc['reference']:.6f}"
    print(f"  simulated result {doc['result']:.6f} (reference {reference})")
    print(f"  ops: {doc['ops_attempted']} attempted, {doc['ops_failed']} failed")
    passed = len(doc["checks"]) - len(doc["failed_checks"])
    print(f"  checks: {passed}/{len(doc['checks'])} ok", end="")
    if doc["failed_checks"]:
        print(f"  FAILED: {', '.join(doc['failed_checks'])}", end="")
    if doc["determinism_mismatches"]:
        print(f"  differing: {', '.join(doc['determinism_mismatches'])}", end="")
    print()
    for error in doc["errors"]:
        print(f"  error: {error}")
    if doc["per_layer"] is not None:
        print_per_layer(doc)
    print()


def print_per_layer(doc: Dict[str, Any]) -> None:
    per_layer = doc["per_layer"]
    if per_layer["trace.samples"]:
        print(f"  {'layer':<16}{'self_s':>9}{'share':>9}")
        for layer in (*sampler.LAYERS, sampler.UNATTRIBUTED):
            row = doc["layer_table"][layer]
            if row["self_s"]:
                print(f"  {layer:<16}{row['self_s']:>9.2f}{100 * row['share']:>8.1f}%")
        print(
            f"  {per_layer['trace.samples']} samples, tracing overhead "
            f"{per_layer['trace.overhead_pct']:.1f}% of the untraced median"
        )
    else:
        print("  (multi-process workload: the work runs in workers, not sampled)")
    # Counts and wall-clock layer numbers of this workload; shares are
    # in the table above and the drives are printed once, at the end.
    print_values({
        name: per_layer[name]
        for name in doc["counts"].keys() | doc["walls"].keys()
        if per_layer[name]
    })


def print_values(values: Dict[str, float]) -> None:
    """``name value unit`` rows in ``PER_LAYER`` order."""
    names = [n for n in harness.PER_LAYER if n in values]
    width = max(map(len, names), default=0) + 2
    for name in names:
        print(f"  {name:<{width}}{_fmt(values[name]):>12} {harness.PER_LAYER[name][0]}")


def driver_line(doc: Dict[str, Any], trace: bool) -> str:
    """The one-object result line the benchmark driver parses."""
    if trace:
        metrics = {
            name: {"value": doc["per_layer"].get(name, 0.0), "unit": unit}
            for name, (unit, _better) in harness.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": doc["end_to_end"][name][statistic],
                   "unit": harness.END_TO_END[name][0]}
            for name, statistic in harness.DECLARED_END_TO_END.items()
        }
    return json.dumps({
        "correct": not doc["failed_checks"],
        "attempted": max(1, doc["ops_attempted"]),
        "failed": doc["ops_failed"],
        "metrics": metrics,
    })


def measure_set(names: List[str], args, drives: Dict[str, float]) -> List[Dict[str, Any]]:
    docs = []
    for name in names:
        doc = harness.measure(
            name,
            seed=args.seed,
            repeats=args.repeats,
            seconds=args.seconds or 0.0,
            setups=5 if args.seconds and not args.trace else 0,
            rotate=bool(args.seconds) and not args.trace,
            trace=args.trace,
            drives=drives,
        )
        print_measurement(doc)
        docs.append(doc)
    return docs


def selfcheck(names: List[str], args) -> int:
    print("# first set\n")
    first = measure_set(names, args, {})
    print("# second set\n")
    second = measure_set(names, args, {})
    rows = harness.compare_sets(first, second)
    print(f"{'workload':<19}{'metric':<14}{'first':>11}{'second':>11}{'differ':>9}{'bound':>8}")
    for row in rows:
        absolute = row["metric"] == "sim_err_pct"
        differ = f"{row['difference']:.3f}" if absolute else f"{100 * row['difference']:.1f}%"
        limit = f"{row['bound']:.2f}" if absolute else f"{100 * row['bound']:.0f}%"
        print(
            f"{row['workload']:<19}{row['metric']:<14}{_fmt(row['first']):>11}"
            f"{_fmt(row['second']):>11}{differ:>9}{limit:>8}"
            f"{'' if row['ok'] else '  DISAGREE'}"
        )
    write_json(args.json, {"first": first, "second": second, "comparison": rows})
    failed = [d for d in first + second if d["failed_checks"]] or [r for r in rows if not r["ok"]]
    print("\nselfcheck:", "FAILED" if failed else "two sets agree within every bound")
    return 1 if failed else 0


def pin(names: List[str]) -> int:
    """Run every input variant once and write ``references.json``."""
    references = harness.load_references()
    for name in names:
        for variant in range(harness.VARIANTS):
            doc = harness.measure(name, seed=variant, repeats=1, pin=True)
            if doc["failed_checks"]:
                print(f"{name} variant {variant}: failed {doc['failed_checks']}; not pinned")
                return 1
            err = doc["end_to_end"].get("sim_err_pct", {"median": 0.0})["median"]
            references.setdefault(name, {})[str(variant)] = {
                "result": doc["result"],
                "sim_err_pct": err,
            }
            print(f"{name} variant {variant}: result {doc['result']!r} sim_err_pct {err!r}")
            with open(harness.REFERENCES, "w") as handle:
                json.dump(references, handle, indent=2, sort_keys=True)
                handle.write("\n")
    return 0


def write_json(path: str, doc: Any) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced repeats per workload (default 3; 1 with --seconds)")
    parser.add_argument("--seed", type=int, default=0,
                        help=f"selects input variant seed %% {harness.VARIANTS}")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time every input variant, for at least this long per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add a sampled run and the layer drives; print the per-layer table")
    parser.add_argument("--json", default=DEFAULT_JSON, metavar="PATH",
                        help="where to write the result document")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets and require them to agree within the bounds")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin perf/references.json from the current code")
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.seconds else 3
    args.trace = bool(args.trace)

    if not os.path.isdir(REPO_SRC):
        print(f"perf/run.py: {REPO_SRC} not found: nothing to benchmark", file=sys.stderr)
        return 2
    try:
        names = [harness.get_workload(n).name for n in args.workload or workloads.WORKLOADS]
        if args.pin:
            return pin(names)
        if args.selfcheck:
            return selfcheck(names, args)
        drives = harness.run_drives() if args.trace else {}
        docs = measure_set(names, args, drives)
        if drives:
            print("== layer drives (direct calls, the same for every workload) ==")
            print_values(drives)
            print()
    except harness.HarnessError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2
    write_json(args.json, docs)
    if len(docs) == 1:
        print(driver_line(docs[0], args.trace))
    return 1 if any(d["failed_checks"] for d in docs) else 0


if __name__ == "__main__":
    sys.exit(main())
