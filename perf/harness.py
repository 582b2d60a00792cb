"""Measurement harness: children, medians, checks, per-layer assembly.

One *measurement* of a workload is: N untraced repeats (each a fresh
``perf/child.py`` interpreter under ``PYTHONHASHSEED=0``, one after the
other), extra set-up-only children so ``setup_s`` is a median of several
samples, the packet-mode twin where the workload has one, and — when
tracing — one sampled run. Out of that come the end-to-end metrics
(median, min, max, n), the output checks of every repeat, the
determinism guard and the per-layer numbers.

``--seed`` never reaches the program: it selects one of ``VARIANTS``
pinned input variants (``seed % VARIANTS``) and only the generated
config is handed to the child. Folding the seed space onto a few
variants is what lets every run be checked against a pinned simulated
result in ``references.json``.

Variants of one workload differ by several percent in events and wall
(the swarms are chaotic in their seed). A *rotating* measurement — what
the benchmark driver gets — therefore times one batch of every variant,
starting at ``seed % VARIANTS``, and reports one statistic over that
whole round (``DECLARED_END_TO_END``): the seed decides the inputs and
their order, while the work behind a reported number is the same for
every seed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import sampler
import workloads

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(PERF_DIR, "child.py")
REFERENCES = os.path.join(PERF_DIR, "references.json")

#: Input variants per workload; ``--seed`` is folded onto them.
VARIANTS = 3
#: No single child may outlive this (the driver allows 180 s per run).
CHILD_TIMEOUT_S = 170.0
#: ``--seconds`` keeps repeating a batch until that much is measured,
#: but never beyond this many repeats.
MAX_REPEATS = 20

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "work_per_s": ("units/s", "higher"),
    "sim_err_pct": ("%", "lower"),
}
#: The end-to-end metrics ``BENCHMARK.json`` declares. ``sim_err_pct``
#: is 0.0 on five workloads (the simulator is deterministic) and the
#: benchmark contract wants end-to-end metrics that are never 0 and
#: bounds that are shares of a median, so there it is a per-layer
#: metric; this harness still prints it with the end-to-end metrics
#: and enforces its absolute bound itself.
#:
#: Each maps to the statistic over a call's batches that the driver is
#: given. What the host does to a batch is add time (descheduled vCPUs,
#: contended caches; episodes of +10% to +200% were seen while sizing
#: this), so for the three timings the quietest batch is the steady
#: estimate of what the program costs: over 10 calls of ``swarm_bulk``
#: under moderate host noise the quietest of three batches spread 5.2%
#: where their median spread 9.1%. Everything else is a median.
DECLARED_END_TO_END = {
    "wall_s": "min",
    "cpu_s": "min",
    "setup_s": "median",
    "peak_rss_mb": "median",
    "work_per_s": "max",
}

_SHARE = {f"{layer}.{kind}": (unit, "lower")
          for layer in ("sim", "net.ipfw", "net.pipe", "net.fluid", "net.tcp",
                        "net.stack", "bittorrent", "obs")
          for kind, unit in (("self_s", "s"), ("share", "ratio"))}

#: Per-layer metrics: name -> (unit, better). A metric a workload does
#: not produce (fluid counts off the fluid workload, sampler shares on
#: the multi-process workloads, ...) reads 0.
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.events_per_mb": ("events/MB", "lower"),
    "sim.queue_depth_peak": ("count", "lower"),
    "sim.event_us": ("us", "lower"),
    "net.ipfw.evals": ("count", "lower"),
    "net.ipfw.cache_hit_ratio": ("ratio", "higher"),
    "net.ipfw.rules_scanned_per_eval": ("count", "lower"),
    "net.ipfw.rules": ("count", "lower"),
    "net.ipfw.eval_hit_us": ("us", "lower"),
    "net.ipfw.eval_miss_us": ("us", "lower"),
    "net.pipe.packets": ("count", "lower"),
    "net.pipe.train_ratio": ("ratio", "higher"),
    "net.pipe.drops": ("count", "lower"),
    "net.pipe.pkt_us": ("us", "lower"),
    "net.fluid.flows": ("count", "lower"),
    "net.fluid.epochs": ("count", "lower"),
    "net.fluid.byte_share": ("ratio", "higher"),
    "net.fluid.demotions": ("count", "lower"),
    "net.tcp.segments": ("count", "lower"),
    "net.tcp.retransmissions": ("count", "lower"),
    "net.tcp.segment_us": ("us", "lower"),
    "net.stack.echo_us": ("us", "lower"),
    "bittorrent.pieces": ("count", "higher"),
    "bittorrent.choke_rounds": ("count", "lower"),
    "bittorrent.corrupt_pieces": ("count", "lower"),
    "bittorrent.pick_us": ("us", "lower"),
    "bittorrent.codec_us": ("us", "lower"),
    "topology.vnodes": ("count", "higher"),
    "topology.rules": ("count", "lower"),
    "topology.pipes_materialized": ("count", "lower"),
    "topology.lazy_pending": ("count", "higher"),
    "topology.deploy_us_per_vnode": ("us", "lower"),
    "topology.rss_kb_per_vnode": ("KB", "lower"),
    "obs.metric_update_us": ("us", "lower"),
    "runtime.points": ("count", "higher"),
    "runtime.retries": ("count", "lower"),
    "runtime.failed": ("count", "lower"),
    "runtime.efficiency": ("ratio", "higher"),
    "runtime.overhead_s": ("s", "lower"),
    "runtime.point_roundtrip_ms": ("ms", "lower"),
    "sim.partition.windows": ("count", "lower"),
    "sim.partition.critical_path_s": ("s", "lower"),
    "sim.partition.overhead_s": ("s", "lower"),
    "sim.partition.imbalance": ("ratio", "lower"),
    **_SHARE,
    "trace.samples": ("count", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "sim_err_pct": ("%", "lower"),
}

#: ``sim_err_pct`` may rise this much (absolute) over its pinned value.
SIM_ERR_SLACK = 0.01
#: ``setup_s`` may worsen by 15% or this many seconds, whichever is more.
SETUP_FLOOR_S = 0.05


class HarnessError(RuntimeError):
    """The harness could not produce a measurement (not a failed check)."""


def get_workload(name: str):
    try:
        return workloads.WORKLOADS[name]
    except KeyError:
        raise HarnessError(
            f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}"
        ) from None


def bound(metric: str, workload) -> float:
    """How far ``metric`` may worsen on ``workload`` before it is a
    regression: a share of the baseline median, except ``sim_err_pct``
    (absolute) — see :func:`worse_by`."""
    if metric in ("wall_s", "work_per_s"):
        return 0.15 if workload.processes > 1 else 0.10
    if metric == "setup_s":
        return 0.15
    if metric == "sim_err_pct":
        return SIM_ERR_SLACK
    return 0.10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: str, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, in the unit
    :func:`bound` uses for ``metric`` (negative = better)."""
    if metric == "sim_err_pct":
        return second - first
    delta = first - second if END_TO_END[metric][1] == "higher" else second - first
    return delta / first


def within_bound(metric: str, workload, first: float, second: float) -> bool:
    if metric == "setup_s" and second - first <= SETUP_FLOOR_S:
        return True
    return worse_by(metric, first, second) <= bound(metric, workload)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(args: List[str]) -> Dict[str, Any]:
    """Run ``perf/child.py`` with ``args`` to completion; return the
    JSON document on its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Let the interpreter keep its bytecode cache (inside the checkout):
    # set-up should be the warm start users pay, not a recompile of
    # every module on every child.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, CHILD, *args, "--t0", repr(time.time())]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child exceeded {CHILD_TIMEOUT_S:.0f}s: {' '.join(args)}") from None
    if done.returncode != 0:
        raise HarnessError(
            f"child exited {done.returncode}: {' '.join(args)}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload_child(
    name: str, cfg: Dict[str, Any], trace: bool = False, setup_only: bool = False
) -> Dict[str, Any]:
    args = ["--workload", name, "--config", json.dumps(cfg)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    return run_child(args)


def run_drives() -> Dict[str, float]:
    return run_child(["--drives"])


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def load_references() -> Dict[str, Dict[str, Dict[str, float]]]:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as handle:
        return json.load(handle)


def sim_error_pct(result: float, reference: float) -> float:
    return 100.0 * abs(result - reference) / reference


# ----------------------------------------------------------------------
# One measurement
# ----------------------------------------------------------------------
def determinism_mismatches(runs: Sequence[Dict[str, Any]]) -> List[str]:
    """Names of counts (or ``result``) that differ between any two of
    ``runs`` of the same input variant — untraced repeats and the traced
    run alike."""
    first_of: Dict[Any, Dict[str, Any]] = {}
    names = set()
    for run in runs:
        first = first_of.setdefault(run.get("variant"), run)
        if run["result"] != first["result"]:
            names.add("result")
        for key in set(first["counts"]) | set(run["counts"]):
            if first["counts"].get(key) != run["counts"].get(key):
                names.add(key)
    return sorted(names)


def layer_table(traced: Optional[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """``layer -> {"self_s", "share"}`` out of a traced child's report
    (all zeros when the workload was not sampled)."""
    trace = traced["trace"] if traced else {"samples": 0, "period_s": 0.0, "hits": {}}
    total = trace["samples"]
    table = {}
    for layer in (*sampler.LAYERS, sampler.UNATTRIBUTED):
        hits = trace["hits"].get(layer, 0)
        table[layer] = {
            "self_s": hits * trace["period_s"],
            "share": hits / total if total else 0.0,
        }
    return table


def per_layer_metrics(
    counts: Dict[str, float],
    walls: Dict[str, float],
    untraced_wall: float,
    traced: Optional[Dict[str, Any]],
    table: Dict[str, Dict[str, float]],
    drives: Dict[str, float],
    sim_err_pct: float,
) -> Dict[str, float]:
    """Flat ``name -> value`` of every per-layer metric: the counts, the
    wall-clock layer numbers, sampler self-time and share out of
    ``table`` (:func:`layer_table`), the layer drives, and the tracing
    overhead against ``untraced_wall``."""
    out: Dict[str, float] = {**counts, **walls}
    for name in _SHARE:
        layer, kind = name.rsplit(".", 1)
        out[name] = table[layer][kind]
    out["trace.samples"] = traced["trace"]["samples"] if traced else 0
    out["trace.overhead_pct"] = (
        100.0 * (traced["wall_s"] - untraced_wall) / untraced_wall if traced else 0.0
    )
    out["trace.unattributed_share"] = table[sampler.UNATTRIBUTED]["share"]
    out["sim_err_pct"] = sim_err_pct
    out.update(drives)
    return out


def measure(
    name: str,
    seed: int = 0,
    repeats: int = 3,
    seconds: float = 0.0,
    setups: int = 0,
    trace: bool = False,
    drives: Optional[Dict[str, float]] = None,
    overrides: Optional[Dict[str, Any]] = None,
    pin: bool = False,
    rotate: bool = False,
) -> Dict[str, Any]:
    """Measure one workload; see the module docstring.

    Batches are timed in whole rounds — one batch of the seed's variant,
    or of every variant when ``rotate`` — until there are ``repeats`` of
    them and ``seconds`` have been measured (the traced run included).
    ``overrides`` replace config keys (the tests' seconds-sized runs)
    and, like ``pin``, skip the comparison against ``references.json``.
    """
    workload = get_workload(name)
    variant = seed % VARIANTS
    round_variants = (
        [(variant + j) % VARIANTS for j in range(VARIANTS)] if rotate else [variant]
    )

    def child(v: int, **mode) -> Dict[str, Any]:
        cfg = {**workload.config(v), **(overrides or {})}
        return {**run_workload_child(name, cfg, **mode), "variant": v, "config": cfg}

    traced = child(variant, trace=True) if trace and workload.processes == 1 else None
    measured = traced["wall_s"] if traced else 0.0
    runs: List[Dict[str, Any]] = []
    while len(runs) < repeats or (measured < seconds and len(runs) < MAX_REPEATS):
        for v in round_variants:
            runs.append(child(v))
            measured += runs[-1]["wall_s"]
    setup_samples = [r["setup_s"] for r in runs]
    while len(setup_samples) < setups:
        v = round_variants[len(setup_samples) % len(round_variants)]
        setup_samples.append(child(v, setup_only=True)["setup_s"])

    first = runs[0]
    observed = runs + ([traced] if traced else [])
    checks: Dict[str, bool] = {}
    for run in observed:
        for check, ok in run["checks"].items():
            checks[check] = checks.get(check, True) and ok
    mismatches = determinism_mismatches(observed)
    checks["deterministic"] = not mismatches

    # -- simulated result against its reference ------------------------
    # Re-pinning must not judge the new result by the old pin.
    pins = {} if pin else load_references().get(name, {})
    pinned = pins.get(str(variant))
    reference = None
    twin_cfg = workload.twin(first["config"])
    if twin_cfg is not None:
        twin = run_workload_child(name, twin_cfg)
        checks["twin_complete"] = all(twin["checks"].values())
        reference = twin["result"]
    elif pinned is not None:
        reference = pinned["result"]
    sim_err_pct = (
        sim_error_pct(first["result"], reference) if reference and first["result"] else None
    )
    if not (pin or overrides):
        checks["reference_pinned"] = all(str(r["variant"]) in pins for r in observed)
        checks["result_matches_pinned"] = all(
            r["result"] == pins.get(str(r["variant"]), {}).get("result") for r in observed
        )
        if pinned is not None and sim_err_pct is not None:
            checks["sim_err_within_bound"] = (
                sim_err_pct <= pinned["sim_err_pct"] + SIM_ERR_SLACK
            )

    end_to_end = {
        "wall_s": summarize([r["wall_s"] for r in runs]),
        "cpu_s": summarize([r["cpu_s"] for r in runs]),
        "setup_s": summarize(setup_samples),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in runs]),
        "work_per_s": summarize([r["work_units"] / r["wall_s"] for r in runs]),
    }
    if sim_err_pct is not None:
        end_to_end["sim_err_pct"] = summarize([sim_err_pct])
    for metric, summary in end_to_end.items():
        summary["unit"] = END_TO_END[metric][0]
    walls = {n: statistics.median(r["walls"][n] for r in runs) for n in first["walls"]}
    table = layer_table(traced) if trace else None

    return {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "variants": [r["variant"] for r in runs],
        "config": first["config"],
        "work_unit": workload.work_unit,
        "end_to_end": end_to_end,
        "result": first["result"],
        "reference": reference,
        "counts": first["counts"],
        "walls": walls,
        "ops_attempted": sum(r["ops_attempted"] for r in runs),
        "ops_failed": sum(r["ops_failed"] for r in runs),
        "checks": checks,
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
        "determinism_mismatches": mismatches,
        "errors": [r["error"] for r in runs if r.get("error")],
        "layer_table": table,
        "per_layer": (
            per_layer_metrics(
                first["counts"], walls, end_to_end["wall_s"]["median"], traced,
                table, drives or {}, sim_err_pct or 0.0,
            )
            if trace
            else None
        ),
    }


# ----------------------------------------------------------------------
# Self-check: two sets of the same code must agree within the bounds
# ----------------------------------------------------------------------
def compare_sets(
    first: Sequence[Dict[str, Any]], second: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric): both medians, how much
    worse the second is, the bound, and whether it holds."""
    rows = []
    for a, b in zip(first, second):
        workload = get_workload(a["workload"])
        for metric in a["end_to_end"]:
            m1 = a["end_to_end"][metric]["median"]
            m2 = b["end_to_end"][metric]["median"]
            # Either order may be the "worse" one: two sets of the same
            # code must agree, not merely not regress.
            gap = max(worse_by(metric, m1, m2), worse_by(metric, m2, m1))
            rows.append({
                "workload": a["workload"],
                "metric": metric,
                "first": m1,
                "second": m2,
                "difference": gap,
                "bound": bound(metric, workload),
                "ok": within_bound(metric, workload, m1, m2)
                and within_bound(metric, workload, m2, m1),
            })
        if (a["result"], a["counts"]) != (b["result"], b["counts"]):
            rows.append({
                "workload": a["workload"], "metric": "simulated result and counts",
                "first": a["result"], "second": b["result"],
                "difference": 0.0, "bound": 0.0, "ok": False,
            })
    return rows
