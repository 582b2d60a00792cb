"""Chrome/Perfetto trace export: schema, rows, byte-identity."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.net.ping import ping
from repro.obs.chrometrace import (
    EXPERIMENT_PID,
    TraceLayout,
    chrome_trace_document,
    chrome_trace_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim import SimConfig
from repro.topology.compiler import compile_topology
from repro.topology.spec import TopologySpec
from repro.virt.deployment import Testbed

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def traced_run():
    """A tiny two-pnode run with every timeline source populated."""
    testbed = Testbed(num_pnodes=2, seed=0, sim_config=SimConfig(flight=True))
    spec = TopologySpec(name="trace-test")
    spec.add_group("peers", "10.9.0.0/24", 2, latency=0.001)
    compiler = compile_topology(spec, testbed)
    a, b = compiler.vnodes("peers")
    sim = testbed.sim
    sim.trace.enable("test.mark")
    sim.trace.record(0.0, "test.mark", node=a.name, msg="hello")
    sampler = TimeSeriesSampler(sim, period=0.5)
    sampler.start()
    with sim.tracer.span("test.run"):
        probe = ping(sim, a.pnode.stack, a.address, b.address, count=2, interval=0.5)
        # The sampler reschedules itself forever; bound the run.
        sim.run(until=3.0)
    sampler.stop()
    assert probe.result.received == 2
    layout = TraceLayout.for_testbed(testbed)
    doc = chrome_trace_document(
        layout,
        flight_recorder=sim.flight,
        tracer=sim.tracer,
        recorder=sim.trace,
        timeseries=sampler,
        metadata={"experiment": "trace-test"},
    )
    return testbed, doc


class TestDocument:
    def test_schema_valid(self):
        _, doc = traced_run()
        assert validate_chrome_trace(doc) == []

    def test_rows_pnodes_as_pids_vnodes_as_tids(self):
        testbed, doc = traced_run()
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # pnode kernel rows + vnode rows + switch + harness.
        assert names[(1, 0)] == "kernel (stack/ipfw/pipes)"
        assert names[(2, 0)] == "kernel (stack/ipfw/pipes)"
        assert any(n.startswith("node1") for n in names.values())
        procs = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs[EXPERIMENT_PID] == "experiment"
        assert procs[3] == "switch"

    def test_net_events_cover_both_pnodes(self):
        _, doc = traced_run()
        net_pids = {
            e["pid"]
            for e in doc["traceEvents"]
            if e.get("cat", "").startswith("net.")
        }
        assert {1, 2}.issubset(net_pids)

    def test_all_timeline_sources_present(self):
        _, doc = traced_run()
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"net.ipfw", "net.pipe", "net.stack", "span",
                "test.mark", "timeseries"}.issubset(cats)

    def test_timed_events_sorted_by_timestamp(self):
        _, doc = traced_run()
        ts = [e["ts"] for e in doc["traceEvents"] if "ts" in e]
        assert ts == sorted(ts)

    def test_write_and_reload(self, tmp_path):
        _, doc = traced_run()
        path = write_chrome_trace(tmp_path / "trace.json", doc)
        reloaded = json.loads(path.read_text())
        assert validate_chrome_trace(reloaded) == []


class TestValidation:
    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def test_rejects_malformed_events(self):
        doc = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 0, "tid": 0},
                {"ph": "X", "name": "y", "pid": 0, "tid": 0},
                "nope",
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("unknown phase" in p for p in problems)
        assert any("without ts" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_layout_unknown_label_falls_back_to_experiment_row(self):
        layout = TraceLayout()
        assert layout.row_of(None) == (EXPERIMENT_PID, 0)
        assert layout.row_of("no-such-node") == (EXPERIMENT_PID, 0)


_BYTE_IDENTITY_SCRIPT = textwrap.dedent(
    """
    import hashlib
    from repro.net.ping import ping
    from repro.obs.chrometrace import TraceLayout, chrome_trace_document, chrome_trace_json
    from repro.obs.timeseries import TimeSeriesSampler
    from repro.sim import SimConfig
    from repro.topology.compiler import compile_topology
    from repro.topology.spec import TopologySpec
    from repro.virt.deployment import Testbed

    testbed = Testbed(num_pnodes=2, seed=0, sim_config=SimConfig(flight=True))
    spec = TopologySpec(name="trace-test")
    spec.add_group("peers", "10.9.0.0/24", 2, latency=0.001)
    compiler = compile_topology(spec, testbed)
    a, b = compiler.vnodes("peers")
    sim = testbed.sim
    sampler = TimeSeriesSampler(sim, period=0.5)
    sampler.start()
    with sim.tracer.span("run"):
        probe = ping(sim, a.pnode.stack, a.address, b.address, count=2, interval=0.5)
        sim.run(until=3.0)
    sampler.stop()
    layout = TraceLayout.for_testbed(testbed)
    doc = chrome_trace_document(
        layout,
        flight_recorder=sim.flight,
        tracer=sim.tracer,
        recorder=sim.trace,
        timeseries=sampler,
        metadata={"experiment": "byte-identity"},
    )
    print(hashlib.sha256(chrome_trace_json(doc).encode()).hexdigest())
    """
)


class TestByteIdentity:
    def _digest(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run(
            [sys.executable, "-c", _BYTE_IDENTITY_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_export_identical_across_runs_and_hashseeds(self):
        digests = {self._digest("0"), self._digest("0"), self._digest("12345")}
        assert len(digests) == 1
