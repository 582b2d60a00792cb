"""Command-line entry point: ``python -m repro <command>``.

``run <id>`` runs one of the paper's experiments and prints its
report. ``list`` shows all known ids; ``all`` runs everything (scaled
defaults); ``metrics`` runs a quickstart-sized swarm and dumps the run
manifest plus the full platform metrics snapshot (JSON by default);
``sweep`` fans an experiment's parameter grid out over the parallel
runtime. Any other first word is an error that lists the commands.

Examples::

    python -m repro list
    python -m repro run fig6
    python -m repro run fig10_cells partitions=4 scale=0.5
    python -m repro run fig8 leechers=40 file_size=8388608
    python -m repro run fig8 fluid=true
    python -m repro all
    python -m repro metrics
    python -m repro metrics seed=7 leechers=6 format=text
    python -m repro metrics out=run.json deterministic=true
    python -m repro metrics format=prom out=metrics.prom
    python -m repro trace fig8 out=trace.json
    python -m repro sweep fig6 --parallel 4 --out sweep.json
    python -m repro sweep fig6 --parallel 2 rule_count=0,10000,20000
    python -m repro sweep fig10 --replications 3 --resume --checkpoint ck.jsonl
    python -m repro sweep fig10 --parallel 4 --telemetry run/telemetry.jsonl --listen 9099
    python -m repro watch run/telemetry.jsonl
    python -m repro bench kernel ipfw --compare
    python -m repro bench --smoke --compare
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, RunRequest, get_experiment


def _parse_overrides(pairs: List[str]) -> Dict[str, Any]:
    """Parse ``key=value`` overrides with int/float/bool coercion."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"override {pair!r} is not key=value")
        key, _, raw = pair.partition("=")
        value: Any
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        overrides[key] = value
    return overrides


def _pop_flag(overrides: Dict[str, Any], key: str, default: bool) -> Optional[bool]:
    """Pop a ``true``/``false`` override, or ``None`` after a message on
    stderr when the value is anything else."""
    value = overrides.pop(key, default)
    if type(value) is not bool:
        print(f"error: {key} must be true or false, got {value!r}", file=sys.stderr)
        return None
    return value


def _swarm_config(params: Dict[str, Any]) -> Optional[Any]:
    """``SwarmConfig(**params)`` from command-line overrides, or
    ``None`` after a message on stderr when a key is unknown or names a
    nested field (``profile``, ``client``), which ``key=value`` cannot
    spell."""
    from repro.bittorrent import SwarmConfig

    nested = sorted(
        f.name
        for f in dataclasses.fields(SwarmConfig)
        if f.default is dataclasses.MISSING and f.name in params
    )
    if nested:
        print(f"bad override: {', '.join(nested)} is not a scalar field", file=sys.stderr)
        return None
    try:
        return SwarmConfig(**params)
    except TypeError as exc:
        print(f"bad override: {exc}", file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Shared argument builders: every subcommand's parser is assembled from
# these, so an execution knob (--seed, telemetry) is defined once and
# spelled/behaves identically wherever it appears.
# ----------------------------------------------------------------------
def _add_overrides_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("overrides", nargs="*", help=f"key=value {what}")


def _add_seed_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None,
        help="root seed (a seed=N override wins for back-compat)",
    )


def _bounded(cast: Callable[[str], Any], low: float, strict: bool = False):
    """argparse type: ``cast(value)``, at least ``low`` (above it when
    ``strict``) — a malformed number is a usage error at parse time."""

    def parse(value: str) -> Any:
        try:
            number = cast(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {value!r}"
            ) from None
        if not (number > low if strict else number >= low):
            bound = f"> {low:g}" if strict else f">= {low:g}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return number

    return parse


def _listen_spec(value: str) -> str:
    """argparse type for --listen: reject malformed addresses at parse
    time (clean exit-2 usage error instead of a traceback mid-run)."""
    from repro.obs.telemetry import parse_listen

    try:
        parse_listen(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", nargs="?", const="telemetry.jsonl", default=None,
        metavar="PATH",
        help="stream live telemetry events to this JSONL flight log "
        "(default telemetry.jsonl; follow it with 'python -m repro "
        "watch PATH'); wall-clock-only — results are byte-identical "
        "with or without it",
    )
    parser.add_argument(
        "--listen", default=None, metavar="[HOST:]PORT", type=_listen_spec,
        help="serve live /health (JSON) and /metrics (Prometheus) on "
        "this address while the run executes (implies telemetry)",
    )


@contextmanager
def _telemetry_session(log: str | None, listen: str | None, pulse: bool = False):
    """CLI-side telemetry lifecycle: hub + flight log + optional HTTP
    endpoint + (for single runs) a main-process heartbeat. Yields the
    :class:`~repro.obs.telemetry.TelemetryHub`, or ``None`` when both
    knobs are off."""
    if not log and listen is None:
        yield None
        return
    from repro.obs import telemetry as obs_telemetry

    hub = obs_telemetry.TelemetryHub(path=log or None)
    hub.start_watchdog()
    server = None
    heartbeat = None
    if listen is not None:
        server = obs_telemetry.serve_http(hub, listen)
        host, port = server.server_address[0], server.server_address[1]
        print(
            f"telemetry: serving http://{host}:{port}/health and /metrics",
            file=sys.stderr,
        )
    if log:
        print(f"telemetry: streaming events to {log}", file=sys.stderr)
    if pulse:
        heartbeat = obs_telemetry.Heartbeat(hub.emitter("main")).start()
    try:
        yield hub
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if server is not None:
            server.shutdown()
        hub.close()


def run_one(
    experiment_id: str,
    overrides: Dict[str, Any],
    seed: int | None = None,
    telemetry_log: str | None = None,
    listen: str | None = None,
) -> int:
    try:
        entry = get_experiment(experiment_id)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    overrides = dict(overrides)
    if "seed" in overrides:
        seed = overrides.pop("seed")
        if type(seed) is float and seed.is_integer():
            seed = int(seed)
        if type(seed) is not int:
            print(f"error: bad seed {seed!r}: not an integer", file=sys.stderr)
            return 2
    elif seed is None:
        seed = 0
    print(f"== {entry.id}: {entry.title} ==")
    request = RunRequest.make(entry.id, overrides, seed=seed)
    start = time.perf_counter()
    try:
        with _telemetry_session(telemetry_log, listen, pulse=True) as hub:
            if hub is not None:
                from repro.obs import telemetry as obs_telemetry

                hub.ingest({
                    "ts": time.time(), "kind": "run_started",
                    "source": "main", "experiment": entry.id, "points": 1,
                })
                with obs_telemetry.use_emitter(hub.emitter("main")):
                    result = entry.execute(request)
                hub.ingest({
                    "ts": time.time(), "kind": "run_finished", "source": "main",
                    "completed": 1 if result.is_ok else 0,
                    "failed": 0 if result.is_ok else 1,
                    "wall_seconds": time.perf_counter() - start,
                })
            else:
                result = entry.execute(request)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(result.report)
    print(f"[{elapsed:.1f}s wall]")
    return 0


def run_sweep(argv: List[str]) -> int:
    """``python -m repro sweep <id> [--parallel N] [--resume] ...``.

    Expands the experiment's default grid (or ``key=v1,v2,...``
    overrides) into an :class:`~repro.runtime.plan.ExecutionPlan` and
    executes it on the parallel, fault-tolerant runtime. The
    aggregated JSON on stdout (or ``--out``) is deterministic:
    byte-identical for any ``--parallel`` value.
    """
    from repro.analysis.export import sweep_json, write_sweep_json
    from repro.runtime import ExecutionPlan, execute_plan

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run an experiment sweep on the parallel runtime.",
    )
    parser.add_argument("experiment", help="experiment id (see 'list')")
    parser.add_argument(
        "overrides",
        nargs="*",
        help="key=value point params; comma-separated values sweep that key",
    )
    parser.add_argument(
        "--parallel", type=_bounded(int, 0), default=1,
        help="worker processes (0 = inline; default 1)",
    )
    _add_seed_arg(parser)
    _add_telemetry_args(parser)
    parser.add_argument(
        "--replications", type=_bounded(int, 1), default=1,
        help="replications per grid point (derived child seeds)",
    )
    parser.add_argument(
        "--timeout", type=_bounded(float, 0, strict=True), default=None,
        help="per-point wall-clock timeout in seconds",
    )
    parser.add_argument(
        "--max-attempts", type=_bounded(int, 1), default=3,
        help="attempts per point before it is recorded as failed",
    )
    parser.add_argument(
        "--checkpoint", default=None,
        help="JSONL checkpoint path (incremental; enables --resume)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip points already in the checkpoint file",
    )
    parser.add_argument("--out", default=None, help="write aggregated JSON here")
    parser.add_argument(
        "--stats", action="store_true",
        help="include non-deterministic fields (wall clock, attempts, "
        "runtime metrics) in the aggregate",
    )
    args = parser.parse_intermixed_args(argv)

    try:
        entry = get_experiment(args.experiment)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2

    # Overrides: comma-separated values become grid axes, scalars are
    # fixed params; both replace the entry's defaults key-by-key.
    grid = entry.sweep_grid_dict
    base = entry.sweep_base_dict
    for pair in args.overrides:
        if "=" not in pair:
            raise SystemExit(f"override {pair!r} is not key=value")
        key, _, raw = pair.partition("=")
        if "," in raw:
            values = tuple(_parse_overrides([f"x={v}"])["x"] for v in raw.split(","))
            grid[key] = values
            base.pop(key, None)
        else:
            base[key] = _parse_overrides([pair])[key]
            grid.pop(key, None)
    # Every point takes the same parameter names: check them once,
    # before any point runs (a retry could not fix a misspelt one).
    try:
        entry.check_params([*grid, *base], point=True)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plan = ExecutionPlan.build(
        entry.id,
        grid=grid,
        base_params=base,
        replications=args.replications,
        base_seed=args.seed if args.seed is not None else 0,
    )
    print(
        f"== sweep {entry.id}: {len(plan)} points "
        f"({args.parallel or 'inline'} workers) ==",
        file=sys.stderr,
    )
    with _telemetry_session(args.telemetry, args.listen, pulse=True) as hub:
        outcome = execute_plan(
            plan,
            parallel=args.parallel,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            telemetry=hub,
        )
    if args.resume and outcome.prior_failures:
        keys = sorted({
            str(f.get("key")) for f in outcome.prior_failures
        })
        print(
            f"[resume: {len(outcome.prior_failures)} failure/retry records "
            f"for {len(keys)} point(s) in the previous run]",
            file=sys.stderr,
        )
        for failure in outcome.prior_failures:
            print(
                f"  prior {failure.get('kind')}: {failure.get('key')} "
                f"(attempt {failure.get('attempt')}): {failure.get('error')}",
                file=sys.stderr,
            )
    deterministic = not args.stats
    if args.out is not None:
        write_sweep_json(args.out, outcome, deterministic_only=deterministic)
    else:
        print(sweep_json(outcome, deterministic_only=deterministic))
    skipped = f", {outcome.resumed_points} resumed" if outcome.resumed_points else ""
    print(
        f"[{len(outcome.completed)}/{len(plan)} points ok, "
        f"{len(outcome.failed)} failed, {outcome.retried} retries{skipped}, "
        f"{outcome.wall_time_seconds:.1f}s wall]",
        file=sys.stderr,
    )
    return 0 if not outcome.failed else 1


def run_metrics(overrides: Dict[str, Any]) -> int:
    """``python -m repro metrics``: run a small swarm, emit manifest+metrics.

    Overrides: any :class:`~repro.bittorrent.swarm.SwarmConfig` scalar
    (``leechers``, ``seeders``, ``file_size``, ``seed``, ...) plus

    * ``format`` — ``json`` (default), ``text``, ``csv`` or ``prom``
      (Prometheus text exposition);
    * ``out`` — write to a file instead of stdout (required for csv);
    * ``max_time`` — simulation horizon (default 20000 s);
    * ``deterministic`` — drop host-specific manifest fields so the
      output is byte-identical across same-seed runs.
    """
    from repro.analysis.export import (
        metrics_json,
        metrics_prom,
        write_metrics_csv,
        write_metrics_json,
    )
    from repro.bittorrent import Swarm
    from repro.core.report import format_metrics
    from repro.units import MB

    overrides = dict(overrides)
    fmt = overrides.pop("format", "json")
    out = overrides.pop("out", None)
    max_time = float(overrides.pop("max_time", 20000.0))
    deterministic = _pop_flag(overrides, "deterministic", False)
    if deterministic is None:
        return 2
    params: Dict[str, Any] = {
        "leechers": 4,
        "seeders": 1,
        "file_size": 1 * MB,
        "stagger": 1.0,
        "num_pnodes": 2,
        "seed": 42,
    }
    params.update(overrides)
    config = _swarm_config(params)
    if config is None:
        return 2

    start = time.perf_counter()
    swarm = Swarm(config)
    swarm.run(max_time=max_time)
    wall = time.perf_counter() - start

    manifest = swarm.manifest(
        wall_time_seconds=None if deterministic else wall
    )
    snapshot = swarm.metrics_snapshot()
    spans = swarm.sim.tracer.as_list()

    if fmt == "text":
        text = format_metrics(snapshot, manifest)
    elif fmt == "csv":
        if out is None:
            print("format=csv requires out=<path>", file=sys.stderr)
            return 2
        write_metrics_csv(out, snapshot)
        return 0
    elif fmt == "json":
        text = metrics_json(manifest, snapshot, spans, deterministic_only=deterministic)
    elif fmt == "prom":
        # The info line only carries deterministic manifest fields, so
        # prom output is stable bytes regardless of ``deterministic``.
        text = metrics_prom(snapshot, manifest).rstrip("\n")
    else:
        print(f"unknown format {fmt!r} (json|text|csv|prom)", file=sys.stderr)
        return 2
    if out is not None:
        if fmt == "json":
            write_metrics_json(out, manifest, snapshot, spans, deterministic)
        else:
            from pathlib import Path

            Path(out).write_text(text + "\n")
    else:
        print(text)
    return 0


#: Scaled-down swarm shapes for ``python -m repro trace <exp>`` — small
#: enough to trace in seconds, big enough to exercise every layer
#: (≥ 2 physical nodes so the Perfetto view shows multiple pid rows).
_TRACE_PRESETS: Dict[str, Dict[str, Any]] = {
    "quickstart": dict(leechers=4, seeders=1, file_size=1 << 20, stagger=1.0, num_pnodes=2),
    "fig8": dict(leechers=6, seeders=1, file_size=512 * 1024, stagger=1.0, num_pnodes=4),
    "fig9": dict(leechers=8, seeders=1, file_size=512 * 1024, stagger=0.5, num_pnodes=2),
    "fig10": dict(leechers=12, seeders=1, file_size=256 * 1024, stagger=0.25, num_pnodes=4),
    "fig11": dict(leechers=12, seeders=2, file_size=256 * 1024, stagger=0.25, num_pnodes=4),
}


def run_trace(argv: List[str]) -> int:
    """``python -m repro trace <exp> [out=trace.json] [key=value ...]``.

    Runs a scaled-down flight-recorded swarm for the experiment and
    writes a Chrome Trace Event JSON that opens in ``ui.perfetto.dev``:
    physical nodes are process rows (tid 0 = kernel: ipfw + pipes),
    virtual nodes are thread rows, the switch fabric and the experiment
    harness get their own rows. Deterministic: byte-identical across
    same-seed runs.

    Overrides: any :class:`~repro.bittorrent.swarm.SwarmConfig` scalar,
    plus ``out`` (default ``trace.json``), ``max_time``, ``observe``
    (``false`` = NULL-instrument run: no flights recorded) and
    ``sample_period`` (sim-seconds between time-series samples;
    default 5).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Record a Chrome Trace Event JSON of a scaled-down swarm.",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help=f"traceable experiment id ({', '.join(sorted(set(_TRACE_PRESETS) | {'swarm'}))})",
    )
    _add_overrides_arg(parser, "overrides (out=, max_time=, SwarmConfig fields)")
    args = parser.parse_intermixed_args(argv)
    if args.experiment is None:
        print("usage: python -m repro trace <experiment> [out=trace.json]", file=sys.stderr)
        return 2
    experiment_id, pairs = args.experiment, args.overrides
    known = set(_TRACE_PRESETS) | {"swarm"}
    if experiment_id not in known:
        print(
            f"unknown traceable experiment {experiment_id!r} "
            f"(swarm-backed ids: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2

    from repro.bittorrent import Swarm
    from repro.obs.chrometrace import validate_chrome_trace, write_chrome_trace
    from repro.obs.timeseries import TimeSeriesSampler

    overrides = _parse_overrides(pairs)
    out = overrides.pop("out", "trace.json")
    max_time = float(overrides.pop("max_time", 20000.0))
    observe = _pop_flag(overrides, "observe", True)
    if observe is None:
        return 2
    sample_period = float(overrides.pop("sample_period", 5.0))
    params: Dict[str, Any] = dict(_TRACE_PRESETS.get(experiment_id, _TRACE_PRESETS["quickstart"]))
    params["seed"] = 0
    params.update(overrides)
    params["observe"] = observe
    params["flight"] = observe
    config = _swarm_config(params)
    if config is None:
        return 2

    swarm = Swarm(config)
    timeseries = None
    if observe:
        timeseries = TimeSeriesSampler(swarm.sim, period=sample_period)
        timeseries.start()
    start = time.perf_counter()
    swarm.run(max_time=max_time)
    wall = time.perf_counter() - start
    if timeseries is not None:
        timeseries.stop()

    doc = swarm.chrome_trace(timeseries=timeseries, experiment=experiment_id)
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    path = write_chrome_trace(out, doc)

    flights = swarm.sim.flight.flights()
    delivered = sum(1 for f in flights if f.status == "delivered")
    events = doc["traceEvents"]
    timed = [e for e in events if e["ph"] != "M"]
    pids = sorted({e["pid"] for e in timed})
    print(
        f"trace: {len(events)} events ({len(timed)} timed) on {len(pids)} process rows "
        f"-> {path}"
    )
    print(
        f"flights: {len(flights)} recorded, {delivered} delivered; "
        f"spans: {len(getattr(swarm.sim.tracer, 'finished', []))}; "
        f"records: {len(swarm.sim.trace)}"
    )
    print(f"open in https://ui.perfetto.dev  [{wall:.1f}s wall]")
    return 0


def run_bench(argv: List[str]) -> int:
    """``python -m repro bench [figure ...] [--compare] [--smoke]``.

    Runs the microbenchmark suite (``benchmarks/bench_*.py``) through
    pytest in a subprocess, so benches work without remembering the
    pytest incantation. Each bench drops its ``BENCH_<figure>.json``
    at the repo root (see ``benchmarks/conftest.py``).

    * ``figure`` — one or more substrings selecting bench files
      (``kernel`` -> ``bench_kernel.py``, ``fig06`` ->
      ``bench_fig06_rule_scaling.py``); default: all benches.
    * ``--compare`` — afterwards run ``benchmarks/compare.py`` against
      each file's embedded previous wall-clock and fail on >25%
      regression (plus the hot-path speedup floors).
    * ``--smoke`` — reduced scale (``REPRO_BENCH_SCALE=0.1``), what CI
      uses.
    """
    import os
    import pathlib
    import subprocess

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the microbenchmark suite (pytest benchmarks/).",
    )
    parser.add_argument(
        "figures", nargs="*",
        help="bench file substrings (e.g. 'kernel', 'ipfw', 'fig06'); default all",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="run benchmarks/compare.py --gate after the benches",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced scale (REPRO_BENCH_SCALE=0.1)",
    )
    args = parser.parse_args(argv)

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    bench_dir = repo_root / "benchmarks"
    if args.figures:
        targets: List[str] = []
        for fig in args.figures:
            # An exact bench name wins over substring expansion, so
            # 'topo' selects bench_topo.py, not every *topo* file.
            exact = bench_dir / f"bench_{fig}.py"
            if exact.is_file():
                matches = [exact]
            else:
                matches = sorted(bench_dir.glob(f"bench_*{fig}*.py"))
            if not matches:
                print(f"no benchmark matches {fig!r} in {bench_dir}", file=sys.stderr)
                return 2
            targets.extend(str(p) for p in matches)
    else:
        targets = [str(bench_dir)]

    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if args.smoke:
        env["REPRO_BENCH_SCALE"] = "0.1"
    cmd = [sys.executable, "-m", "pytest", "-q", *dict.fromkeys(targets)]
    print(f"== bench: {' '.join(cmd[3:])} ==", file=sys.stderr)
    status = subprocess.call(cmd, cwd=repo_root, env=env)
    if status != 0:
        return status
    if args.compare:
        status = subprocess.call(
            [sys.executable, str(bench_dir / "compare.py"), "--gate"],
            cwd=repo_root,
            env=env,
        )
    return status


# ----------------------------------------------------------------------
# Subcommand handlers. Each builds its parser from the shared argument
# builders above and funnels work through :class:`RunRequest`, so every
# entry path (single run, ``all``, ``sweep``) carries ``--seed`` and the
# ``key=value`` parameters identically.
# ----------------------------------------------------------------------
def _cmd_run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one experiment and print its report.",
    )
    parser.add_argument("experiment", help="experiment id (see 'list')")
    _add_overrides_arg(parser, "parameter overrides passed to the run function")
    _add_seed_arg(parser)
    _add_telemetry_args(parser)
    args = parser.parse_intermixed_args(argv)
    return run_one(
        args.experiment,
        _parse_overrides(args.overrides),
        seed=args.seed,
        telemetry_log=args.telemetry,
        listen=args.listen,
    )


def _cmd_all(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro all",
        description="Run every registered experiment (scaled defaults).",
    )
    _add_overrides_arg(parser, "overrides applied to every experiment")
    _add_seed_arg(parser)
    args = parser.parse_intermixed_args(argv)
    overrides = _parse_overrides(args.overrides)
    status = 0
    for experiment_id in EXPERIMENTS:
        status |= run_one(experiment_id, dict(overrides), seed=args.seed)
        print()
    return status


def _cmd_list(argv: List[str]) -> int:
    argparse.ArgumentParser(
        prog="python -m repro list",
        description="List all registered experiment ids.",
    ).parse_args(argv)
    width = max(len(i) for i in EXPERIMENTS)
    for entry in EXPERIMENTS.values():
        print(f"{entry.id:<{width}}  {entry.title}")
    return 0


def _cmd_watch(argv: List[str]) -> int:
    """``python -m repro watch <telemetry.jsonl|dir>``: follow a run's
    telemetry flight log, rendering the rolling health view (points
    done/failed, per-worker sim-time/events/RSS, stall verdicts) until
    the run finishes."""
    parser = argparse.ArgumentParser(
        prog="python -m repro watch",
        description="Follow a run's telemetry log as a live health view.",
    )
    parser.add_argument(
        "target",
        help="telemetry.jsonl path (or a directory containing one), as "
        "passed to --telemetry on the run being watched",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default 1)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit",
    )
    parser.add_argument(
        "--stall-after", type=float, default=None,
        help="flag a worker as stalled after this many wall seconds "
        "without progress (default 30)",
    )
    parser.add_argument(
        "--max-wait", type=float, default=None,
        help="give up following after this many wall seconds",
    )
    args = parser.parse_args(argv)
    from repro.obs import telemetry as obs_telemetry

    return obs_telemetry.watch(
        args.target,
        interval=args.interval,
        follow=not args.once,
        stall_after=(
            args.stall_after if args.stall_after is not None
            else obs_telemetry.STALL_AFTER
        ),
        max_wait=args.max_wait,
    )


def _cmd_metrics(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics",
        description="Run a small swarm and dump manifest + metrics.",
    )
    _add_overrides_arg(
        parser, "overrides (format=, out=, max_time=, SwarmConfig fields)"
    )
    args = parser.parse_intermixed_args(argv)
    return run_metrics(_parse_overrides(args.overrides))


#: The one command tree: every ``python -m repro`` invocation resolves
#: to exactly one of these handlers.
_COMMANDS = {
    "run": _cmd_run,
    "list": _cmd_list,
    "all": _cmd_all,
    "sweep": run_sweep,
    "trace": run_trace,
    "bench": run_bench,
    "metrics": _cmd_metrics,
    "watch": _cmd_watch,
}


def main(argv: List[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = f"commands: {', '.join(sorted(_COMMANDS))}"
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        print(f"\n{commands}")
        return 0 if argv else 2
    if argv[0] not in _COMMANDS:
        print(f"unknown command {argv[0]!r}; {commands}", file=sys.stderr)
        return 2
    return _COMMANDS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
