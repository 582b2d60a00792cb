"""The harness on seconds-sized configs: child protocol, median/spread
maths, failure counting, the driver result line and BENCHMARK.json."""

import json
import statistics
from pathlib import Path

import pytest

import harness
import run
import workloads

#: swarm_chatty shrunk to a fraction of a second.
TINY = dict(leechers=4, seeders=1, file_size=512 * 1024, stagger=1.0, num_pnodes=2)


# -- statistics --------------------------------------------------------
def test_summarize_and_spread():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    summary = harness.summarize(values)
    assert summary == {"median": statistics.median(values), "min": 9.0, "max": 13.0, "n": 10}
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == (q3 - q1) / statistics.median(values)


def test_worse_by_follows_the_metric_direction():
    assert harness.worse_by("wall_s", 10.0, 11.0) == pytest.approx(0.10)
    assert harness.worse_by("wall_s", 10.0, 9.0) == pytest.approx(-0.10)
    assert harness.worse_by("work_per_s", 100.0, 90.0) == pytest.approx(0.10)
    assert harness.worse_by("sim_err_pct", 0.0, 0.005) == pytest.approx(0.005)


def test_bounds_per_workload():
    single = harness.get_workload("swarm_chatty")
    multi = harness.get_workload("sweep_folding")
    assert harness.bound("wall_s", single) == 0.10
    assert harness.bound("wall_s", multi) == 0.15
    assert harness.within_bound("wall_s", single, 10.0, 10.9)
    assert not harness.within_bound("wall_s", single, 10.0, 11.1)
    assert harness.within_bound("wall_s", multi, 10.0, 11.1)
    # setup_s: the larger of 15% and 0.05 s.
    assert harness.within_bound("setup_s", single, 0.12, 0.16)
    assert not harness.within_bound("setup_s", single, 0.12, 0.18)
    assert harness.within_bound("setup_s", single, 1.0, 1.14)
    assert not harness.within_bound("sim_err_pct", single, 0.0, 0.02)


def _doc(result=1.0, counts=None, wall=10.0):
    return {
        "workload": "swarm_chatty", "result": result, "counts": counts or {"sim.events": 5},
        "end_to_end": {"wall_s": {"median": wall}},
    }


def test_determinism_guard_names_what_differs():
    same = [{"result": 2.0, "counts": {"a": 1, "b": 2}}] * 2
    assert harness.determinism_mismatches(same) == []
    other = {"result": 2.5, "counts": {"a": 1, "b": 3, "c": 0}}
    assert harness.determinism_mismatches([same[0], other]) == ["b", "c", "result"]
    # Different input variants may differ; repeats of one variant may not.
    assert harness.determinism_mismatches([{**same[0], "variant": 0}, {**other, "variant": 1}]) == []
    assert harness.determinism_mismatches(
        [{**same[0], "variant": 0}, {**other, "variant": 1}, {**same[0], "variant": 1}]
    ) == ["b", "c", "result"]


def test_compare_sets_flags_disagreement_either_way():
    rows = harness.compare_sets([_doc(wall=10.0)], [_doc(wall=10.5)])
    assert [r["ok"] for r in rows] == [True]
    for first, second in ((10.0, 11.5), (11.5, 10.0)):
        rows = harness.compare_sets([_doc(wall=first)], [_doc(wall=second)])
        assert [r["ok"] for r in rows] == [False]
    rows = harness.compare_sets([_doc()], [_doc(counts={"sim.events": 6})])
    assert rows[-1]["metric"] == "simulated result and counts" and not rows[-1]["ok"]


# -- workloads and children -------------------------------------------
def test_unknown_workload_name():
    with pytest.raises(harness.HarnessError, match="unknown workload 'nope'"):
        harness.measure("nope")
    assert run.main(["--workload", "nope"]) == 2


def test_configs_are_plain_json_and_follow_the_seed():
    for workload in workloads.WORKLOADS.values():
        cfg = workload.config(3)
        assert json.loads(json.dumps(cfg)) == cfg
        assert cfg != workload.config(4)
        assert cfg == workload.config(3)


def test_child_protocol():
    cfg = {**harness.get_workload("swarm_chatty").config(0), **TINY}
    doc = harness.run_workload_child("swarm_chatty", cfg)
    assert {"result", "work_units", "ops_attempted", "ops_failed", "counts", "walls",
            "checks", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "trace"} <= set(doc)
    assert doc["trace"] is None and doc["ops_attempted"] == 4 and doc["ops_failed"] == 0
    assert doc["work_units"] == 4 * 0.5 and all(doc["checks"].values())
    assert 0 < doc["setup_s"] < 30 and doc["wall_s"] > 0 and doc["peak_rss_mb"] > 1

    assert set(harness.run_workload_child("swarm_chatty", cfg, setup_only=True)) == {"setup_s"}
    traced = harness.run_workload_child("swarm_chatty", cfg, trace=True)
    assert traced["trace"]["period_s"] == 0.01
    assert (traced["result"], traced["counts"]) == (doc["result"], doc["counts"])


def test_child_failure_is_a_harness_error():
    with pytest.raises(harness.HarnessError, match="child exited"):
        harness.run_workload_child("swarm_chatty", {"leechers": 0})


def test_measure_on_a_tiny_swarm():
    doc = harness.measure("swarm_chatty", seed=11, repeats=2, setups=3, trace=True,
                          drives={"sim.event_us": 1.5}, overrides=TINY)
    assert doc["variant"] == 11 % harness.VARIANTS
    assert doc["failed_checks"] == [] and doc["checks"]["deterministic"]
    assert doc["ops_attempted"] == 8 and doc["ops_failed"] == 0
    e2e = doc["end_to_end"]
    assert set(harness.DECLARED_END_TO_END) <= set(e2e)
    assert e2e["wall_s"]["n"] == 2 and e2e["setup_s"]["n"] == 3
    assert e2e["wall_s"]["min"] <= e2e["wall_s"]["median"] <= e2e["wall_s"]["max"]
    assert e2e["work_per_s"]["median"] > 0

    line = json.loads(run.driver_line(doc, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 8 and line["failed"] == 0
    assert set(line["metrics"]) == set(harness.DECLARED_END_TO_END)
    # Timings: the quietest batch; set-up and memory: the median.
    assert line["metrics"]["wall_s"] == {"value": e2e["wall_s"]["min"], "unit": "s"}
    assert line["metrics"]["work_per_s"]["value"] == e2e["work_per_s"]["max"]
    assert line["metrics"]["setup_s"]["value"] == e2e["setup_s"]["median"]

    traced = json.loads(run.driver_line(doc, trace=True))
    assert set(traced["metrics"]) == set(harness.PER_LAYER)
    assert traced["metrics"]["sim.event_us"]["value"] == 1.5
    assert traced["metrics"]["sim.events"]["value"] == doc["counts"]["sim.events"] > 0
    assert traced["metrics"]["runtime.points"]["value"] == 0.0


def test_rotating_measurement_times_every_variant():
    doc = harness.measure("swarm_chatty", seed=4, repeats=1, setups=5, rotate=True,
                          overrides=TINY)
    start = 4 % harness.VARIANTS
    assert doc["variant"] == start and doc["config"]["seed"] == start
    assert doc["variants"] == [(start + j) % harness.VARIANTS for j in range(harness.VARIANTS)]
    assert doc["end_to_end"]["wall_s"]["n"] == harness.VARIANTS
    assert doc["end_to_end"]["setup_s"]["n"] == 5
    assert doc["failed_checks"] == [] and doc["ops_attempted"] == 4 * harness.VARIANTS


def test_max_time_too_small_counts_failed_downloads():
    doc = harness.measure("swarm_chatty", repeats=1, overrides={**TINY, "max_time": 5.0})
    assert doc["ops_attempted"] == 4 and doc["ops_failed"] == 4
    assert "all_leechers_complete" in doc["failed_checks"]
    assert doc["errors"] and "did not complete" in doc["errors"][0]
    assert json.loads(run.driver_line(doc, trace=False))["correct"] is False


def test_tiny_ping_mesh_and_sweep():
    ping = harness.measure("ping_mesh", repeats=1, overrides=dict(
        scale=0.02, idle_vnodes=100, num_pnodes=4, sources=10, targets=3, echoes=2))
    assert ping["failed_checks"] == [] and ping["ops_attempted"] == 60
    assert ping["counts"]["net.tcp.segments"] == 0

    sweep = harness.measure("sweep_folding", repeats=1, overrides=dict(
        leechers=3, seeders=1, file_size=512 * 1024, stagger=1.0, pnode_counts=[2, 1],
        replications=1))
    assert sweep["failed_checks"] == [] and sweep["ops_attempted"] == 2
    assert sweep["counts"] == {"runtime.points": 2, "runtime.retries": 0, "runtime.failed": 0}


# -- the declaration the driver reads ----------------------------------
def test_benchmark_json_matches_the_harness():
    declared = json.loads((Path(harness.PERF_DIR).parent / "BENCHMARK.json").read_text())
    assert declared["command"] == ["python3", "perf/run.py"] and declared["paths"] == ["perf"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == {
        name: harness.END_TO_END[name] for name in harness.DECLARED_END_TO_END
    }
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == harness.PER_LAYER
    pinned = harness.load_references()
    for name in workloads.WORKLOADS:
        assert sorted(pinned[name]) == sorted(str(v) for v in range(harness.VARIANTS))
