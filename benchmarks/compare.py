#!/usr/bin/env python
"""Benchmark regression checker over ``BENCH_<fig>.json`` files.

The benchmark suite (``pytest benchmarks/``) drops one JSON document
per figure at the repo root: manifest + wall-clock seconds + key
metrics (see ``benchmarks/conftest.py::bench_json``). This script
compares those wall-clocks against a baseline and **fails (exit 1) on
a >25% wall-clock regression** on any figure. ``peak_rss_bytes`` is
held to the same threshold: a figure whose peak resident set grows
more than the threshold over its baseline fails the check too (memory
regressions gate exactly like wall-clock ones; a missing baseline
value is a warning, not an error).

Baselines, in order of preference:

* ``--baseline DIR`` — a directory of ``BENCH_*.json`` files from an
  earlier checkout/run; figures are matched by file name.
* no baseline — each current file's embedded ``previous_wall_seconds``
  (recorded automatically when a run overwrites an older file) is used
  when present; figures without one are reported as NEW and pass.

A missing baseline directory, a baseline covering a different figure
set, or an absent ``previous_wall_seconds`` are all **warnings**, not
errors: baselines drift naturally as figures are added and benchmark
files are regenerated, and the checker must stay usable on a fresh
checkout. Only actual regressions (and, under ``--gate``, a hot-path
speedup below its floor) fail.

``--gate`` additionally enforces **per-metric** speedup floors on the
perf-sensitive microbenches. The defaults gate every speedup-shaped
metric the benches record (top-line ``speedup`` *and* the secondary
horizons like ``wide_speedup``), so a regression can no longer hide
inside a passing aggregate — the exact failure mode that let
``wide_speedup`` sit at 0.984 for a whole PR cycle. Extra or stricter
floors stack on via ``--floor figure:metric>=N``. CI's bench-smoke job
runs in this mode.

Usage::

    python benchmarks/compare.py                      # self-compare
    python benchmarks/compare.py --baseline old/      # vs checkout
    python benchmarks/compare.py --threshold 0.10     # stricter gate
    python benchmarks/compare.py --gate               # CI mode
    python benchmarks/compare.py --gate --floor kernel:steady_speedup>=1.1
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, Optional

DEFAULT_THRESHOLD = 0.25
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Hot-path microbenches record speedup metrics; under ``--gate`` each
#: listed metric must stay at or above its floor (the optimisation's
#: contract, matching the asserts inside the benches themselves).
#: Per-metric — a healthy top-line ``speedup`` does not excuse a losing
#: secondary horizon.
SPEEDUP_GATES: Dict[str, Dict[str, float]] = {
    # The simulator against the plain heapq kernel of
    # tests/reference/heap_kernel.py. Both are one binary heap, so the
    # floors say the inlined loop must not lose to its oracle (see
    # bench_kernel.py for why the calendar queue's 2x burst floor went).
    "kernel": {"speedup": 1.0, "steady_speedup": 1.0, "wide_speedup": 1.0},
    # One firewall: a never-seen flow's evaluation over a repeated
    # flow's, per evaluation (full scale reads ~160x; see bench_ipfw.py).
    "ipfw": {"speedup": 2.0},
    # Critical-path speedup of the partitioned kernel at 4 workers
    # (CPU-seconds based — machine-independent; see bench_dist.py).
    "dist": {"speedup": 1.4},
    # Fluid-flow engine on the steady-state bulk storm: must collapse
    # the per-packet event stream and convert it into wall-clock; and
    # on the churn case (one block in flight per flow, the regime a
    # swarm runs in) keep its rate epochs cheap — epochs per wall
    # second, not a ratio (see bench_fluid.py). ``speedup`` is against
    # the packet path, which is itself a quarter cheaper than when the
    # floor was 3x (smoke reads 2.7-3.2x, full scale 3.6x).
    "fluid": {"speedup": 2.0, "events_ratio": 10.0, "churn_epochs_per_s": 2000.0},
    # Streaming/lazy topology compilation vs the eager reference
    # deployer of tests/reference/eager_deploy.py: build wall-clock and
    # retained bytes per vnode (see bench_topo.py). Ratios against a
    # reference whose pipes have themselves been slimmed (176 B each,
    # not 1 008): CI's 10k-vnode smoke reads 4.1x / 2.4x, full scale
    # 7.9x / 2.3x. The lazy side's own cost is pinned in bytes by
    # tests/test_topo_scale.py.
    "topo": {"speedup": 3.0, "mem_ratio": 2.0},
}


def parse_floor(spec: str) -> tuple:
    """``"figure:metric>=N"`` -> ``(figure, metric, float(N))``."""
    try:
        figure, rest = spec.split(":", 1)
        metric, floor = rest.split(">=", 1)
        return figure.strip(), metric.strip(), float(floor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --floor {spec!r} (expected figure:metric>=N)"
        )


def load_bench_files(directory: pathlib.Path) -> Dict[str, dict]:
    """``{figure_id: document}`` for every BENCH_*.json in ``directory``."""
    docs: Dict[str, dict] = {}
    if not directory.is_dir():
        print(f"warning: no such baseline directory: {directory}", file=sys.stderr)
        return docs
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (ValueError, OSError) as exc:
            print(f"warning: skipping unreadable {path.name}: {exc}", file=sys.stderr)
            continue
        figure = doc.get("figure") or path.stem[len("BENCH_") :]
        docs[figure] = doc
    return docs


def compare_one(
    figure: str,
    current_wall: Optional[float],
    baseline_wall: Optional[float],
    threshold: float,
    current_scale: float = 1.0,
    baseline_scale: float = 1.0,
) -> str:
    """``"ok" | "regression" | "new" | "missing" | "scale-diff"``.

    ``scale-diff`` means the two runs used different
    ``REPRO_BENCH_SCALE`` values (e.g. a CI smoke run vs a local
    full-scale run): wall clocks are incomparable, so the figure is
    only warned about, never flagged as a regression.
    """
    if current_wall is None:
        return "missing"
    if baseline_wall is None or baseline_wall <= 0:
        return "new"
    if current_scale != baseline_scale:
        return "scale-diff"
    if current_wall > baseline_wall * (1.0 + threshold):
        return "regression"
    return "ok"


def _scale(doc: dict) -> float:
    return float((doc.get("manifest") or {}).get("bench_scale", 1.0))


def run(
    current_dir: pathlib.Path,
    baseline_dir: Optional[pathlib.Path],
    threshold: float,
    gate: bool = False,
    extra_floors: Optional[list] = None,
) -> int:
    # Per-figure, per-metric floors: defaults plus any --floor specs
    # (later specs override, so CI can tighten a default).
    floors: Dict[str, Dict[str, float]] = {
        fig: dict(metrics) for fig, metrics in SPEEDUP_GATES.items()
    }
    for fig, metric, floor in extra_floors or ():
        floors.setdefault(fig, {})[metric] = floor
    current = load_bench_files(current_dir)
    if not current:
        print(f"no BENCH_*.json files found in {current_dir}", file=sys.stderr)
        return 2
    baseline = load_bench_files(baseline_dir) if baseline_dir else {}
    if baseline_dir and baseline:
        # Warn (don't fail) on figure-set drift between the two runs.
        only_base = sorted(set(baseline) - set(current))
        only_cur = sorted(set(current) - set(baseline))
        if only_base:
            print(
                "warning: baseline figures absent from current run: "
                + ", ".join(only_base),
                file=sys.stderr,
            )
        if only_cur:
            print(
                "warning: current figures absent from baseline "
                "(compared as NEW): " + ", ".join(only_cur),
                file=sys.stderr,
            )

    regressions = []
    rss_regressions = []
    gate_failures = []
    width = max(len(f) for f in current)
    print(
        f"{'figure':<{width}}  {'baseline':>10}  {'current':>10}  {'delta':>8}"
        f"  {'rss delta':>9}  verdict"
    )
    for figure in sorted(current):
        doc = current[figure]
        wall = doc.get("wall_seconds")
        rss = doc.get("peak_rss_bytes")
        cur_scale = _scale(doc)
        if baseline_dir:
            base_doc = baseline.get(figure, {})
            base = base_doc.get("wall_seconds")
            base_rss = base_doc.get("peak_rss_bytes")
            base_scale = _scale(base_doc)
        else:
            base = doc.get("previous_wall_seconds")
            base_rss = doc.get("previous_peak_rss_bytes")
            base_scale = float(doc.get("previous_bench_scale", cur_scale))
        verdict = compare_one(figure, wall, base, threshold, cur_scale, base_scale)
        if verdict == "regression":
            regressions.append(figure)
        # Peak RSS gates like wall-clock: same threshold, same
        # scale-diff escape hatch, warning-only when either side is
        # missing (old baselines predate the field).
        rss_verdict = compare_one(
            figure, rss, base_rss, threshold, cur_scale, base_scale
        )
        if rss_verdict == "regression":
            rss_regressions.append(figure)
            if verdict == "ok":
                verdict = "rss-regression"
        delta = (
            f"{(wall - base) / base * 100:+7.1f}%"
            if (wall is not None and base)
            else "     n/a"
        )
        rss_delta = (
            f"{(rss - base_rss) / base_rss * 100:+8.1f}%"
            if (rss is not None and base_rss)
            else "      n/a"
        )
        base_s = f"{base:10.3f}" if base else f"{'-':>10}"
        wall_s = f"{wall:10.3f}" if wall is not None else f"{'-':>10}"
        print(f"{figure:<{width}}  {base_s}  {wall_s}  {delta}  {rss_delta}  {verdict}")
        if gate and figure in floors:
            metrics = doc.get("metrics") or {}
            for metric, floor in sorted(floors[figure].items()):
                value = metrics.get(metric)
                if value is None or value < floor:
                    gate_failures.append(
                        f"{figure}:{metric}={value} (floor {floor})"
                    )

    if gate_failures:
        print(
            f"\nFAIL: hot-path gate: {'; '.join(gate_failures)}",
            file=sys.stderr,
        )
        return 1
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} figure(s) regressed more than "
            f"{threshold:.0%} wall-clock: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    if rss_regressions:
        print(
            f"\nFAIL: {len(rss_regressions)} figure(s) regressed more than "
            f"{threshold:.0%} peak RSS: {', '.join(rss_regressions)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nOK: no figure regressed more than {threshold:.0%} "
        "wall-clock or peak RSS"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=pathlib.Path,
        default=REPO_ROOT,
        help="directory holding the current BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="directory of baseline BENCH_*.json files "
        "(default: each file's embedded previous_wall_seconds)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative wall-clock regression that fails the check (default 0.25)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="also enforce the per-metric hot-path speedup floors "
        "recorded by the microbenches (CI mode)",
    )
    parser.add_argument(
        "--floor",
        action="append",
        type=parse_floor,
        default=[],
        metavar="FIGURE:METRIC>=N",
        help="extra (or overriding) per-metric gate floor; repeatable; "
        "implies nothing unless --gate is set",
    )
    args = parser.parse_args(argv)
    return run(
        args.current,
        args.baseline,
        args.threshold,
        gate=args.gate,
        extra_floors=args.floor,
    )


if __name__ == "__main__":
    raise SystemExit(main())
