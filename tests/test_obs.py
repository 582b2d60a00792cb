"""Tests for the unified observability layer (repro.obs)."""

import gc
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObservabilityError
from repro.obs import (
    BYTES_EDGES,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NULL_TRACER,
    NullTracer,
    RunManifest,
    TimeSeriesSampler,
    Tracer,
    diff_snapshots,
    topology_fingerprint,
)
from repro.sim import Simulator
from repro.topology.spec import TopologySpec
from tests.test_fluid import _run_child


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("sim.kernel.test")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ObservabilityError):
            c.inc(-1)


class TestGauge:
    def test_set_and_peak(self):
        g = MetricsRegistry().gauge("net.ipfw.rules")
        g.set(10)
        g.set(3)
        assert g.value == 3
        assert g.peak == 10

    def test_inc_dec(self):
        g = MetricsRegistry().gauge("x")
        g.inc(5)
        g.dec(2)
        assert g.value == 3
        assert g.peak == 5  # dec does not move the peak


class TestHistogram:
    def test_bucket_assignment(self):
        h = MetricsRegistry().histogram("h", edges=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 100.0, 1e6):
            h.observe(v)
        # <=1 -> bucket 0 (twice: 0.5 and 1.0); <=10 -> bucket 1;
        # <=100 -> bucket 2; overflow -> bucket 3.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(0.5 + 1.0 + 5.0 + 100.0 + 1e6)
        assert h.min == 0.5 and h.max == 1e6

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", edges=(2.0, 1.0))

    def test_empty_edges_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", edges=())


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_shares_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("net.pipe.packets_out")
        b = reg.counter("net.pipe.packets_out")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")

    def test_histogram_edge_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", edges=(1.0, 2.0))
        reg.histogram("h", edges=(1.0, 2.0))  # same edges: fine
        with pytest.raises(ObservabilityError):
            reg.histogram("h", edges=BYTES_EDGES)

    def test_names_sorted_and_contains(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2

    def test_snapshot_sorted_and_excludes_wall(self):
        reg = MetricsRegistry()
        reg.counter("z.deterministic").inc(3)
        reg.counter("a.wall", wall=True).inc(7)
        snap = reg.snapshot()
        assert list(snap) == ["z.deterministic"]
        full = reg.snapshot(include_wall=True)
        assert list(full) == ["a.wall", "z.deterministic"]
        assert full["a.wall"]["value"] == 7

    def test_diff_snapshots(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        h = reg.histogram("h", edges=(1.0,))
        c.inc(2)
        h.observe(0.5)
        before = reg.snapshot()
        c.inc(5)
        h.observe(2.0)
        reg.counter("new").inc(1)  # appears only in `after`
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["c"]["value"] == 5
        assert delta["new"]["value"] == 1
        assert delta["h"]["count"] == 1
        assert delta["h"]["counts"] == [0, 1]  # one overflow observation


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        c1 = NULL_REGISTRY.counter("a")
        c2 = NULL_REGISTRY.counter("b")
        assert c1 is c2  # one shared singleton, regardless of name

    def test_no_side_effects(self):
        NULL_REGISTRY.counter("a").inc(10)
        NULL_REGISTRY.gauge("b").set(5)
        NULL_REGISTRY.histogram("c").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.snapshot(include_wall=True) == {}
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.names() == []
        assert not NULL_REGISTRY.enabled


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_keyed_to_sim_time(self):
        sim = Simulator(seed=1)
        spans = []
        span = sim.tracer.begin("phase", label="warmup")
        sim.schedule(5.0, lambda: spans.append(sim.tracer.end(span)))
        sim.run()
        (s,) = spans
        assert s.start == 0.0 and s.end == 5.0 and s.duration == 5.0
        assert s.fields == {"label": "warmup"}

    def test_nesting_depth_and_parent(self):
        t = Tracer(lambda: 0.0)
        outer = t.begin("outer")
        inner = t.begin("inner")
        assert inner.depth == 1 and inner.parent is outer
        assert t.depth == 2 and t.active is inner
        t.end(inner)
        t.end(outer)
        assert [s.name for s in t.finished] == ["inner", "outer"]
        # Export order is begin order, not close order.
        assert [s["name"] for s in t.as_list()] == ["outer", "inner"]

    def test_ending_outer_closes_inner(self):
        t = Tracer(lambda: 1.5)
        outer = t.begin("outer")
        inner = t.begin("inner")
        t.end(outer)
        assert inner.end == 1.5 and outer.end == 1.5
        assert t.depth == 0

    def test_double_end_raises(self):
        t = Tracer(lambda: 0.0)
        s = t.begin("s")
        t.end(s)
        with pytest.raises(ObservabilityError):
            t.end(s)

    def test_context_manager_and_select(self):
        now = [0.0]
        t = Tracer(lambda: now[0])
        with t.span("a"):
            now[0] = 2.0
        with t.span("b"):
            now[0] = 3.0
        assert len(t) == 2
        assert [s.name for s in t.select("a")] == ["a"]
        assert t.select("a")[0].duration == 2.0

    def test_null_tracer_noop(self):
        t = NullTracer()
        with t.span("x") as s:
            s.annotate(k=1)
        assert t.begin("y") is t.begin("z")
        assert t.as_list() == [] and len(t) == 0
        assert NULL_TRACER.select() == []
        assert not NULL_TRACER.enabled


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


class TestManifest:
    def test_from_sim(self):
        sim = Simulator(seed=7)
        sim.schedule(1.0, lambda: None)
        sim.run()
        manifest = sim.manifest(note="unit")
        assert manifest.seed == 7
        assert manifest.sim_time == 1.0
        assert manifest.events_processed == 1
        assert manifest.extra == {"note": "unit"}

    def test_deterministic_dict_drops_host_fields(self):
        m = RunManifest.from_sim(Simulator(seed=0), wall_time_seconds=1.23)
        full = m.as_dict()
        det = m.as_dict(deterministic_only=True)
        assert "wall_time_seconds" in full and "python_version" in full
        assert "wall_time_seconds" not in det and "python_version" not in det

    def test_topology_fingerprint_stable_and_sensitive(self):
        def make(count):
            spec = TopologySpec(name="t")
            spec.add_group("g", "10.0.0.0/24", count, latency=0.03)
            return spec

        assert topology_fingerprint(make(5)) == topology_fingerprint(make(5))
        assert topology_fingerprint(make(5)) != topology_fingerprint(make(6))


# ----------------------------------------------------------------------
# Kernel integration + determinism guard
# ----------------------------------------------------------------------


class TestKernelIntegration:
    def test_kernel_metrics_track_events(self):
        sim = Simulator(seed=0)
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        snap = sim.metrics.snapshot()
        assert snap["sim.kernel.events_processed"]["value"] == 5
        assert snap["sim.kernel.runs"]["value"] == 1
        assert snap["sim.kernel.queue_depth"]["value"] == 0

    def test_observe_false_is_noop(self):
        sim = Simulator(seed=0, observe=False)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1  # legacy counter still works
        assert sim.metrics.snapshot() == {}
        assert sim.metrics is NULL_REGISTRY
        assert sim.tracer.as_list() == []


def _launched_swarm(seed=5, observe=True):
    from repro.bittorrent import Swarm, SwarmConfig

    swarm = Swarm(
        SwarmConfig(
            leechers=3, seeders=1, file_size=512 * 1024,
            stagger=1.0, num_pnodes=2, seed=seed, observe=observe,
        )
    )
    swarm.launch()
    return swarm


def _run_swarm(seed):
    swarm = _launched_swarm(seed)
    swarm.run(max_time=20000)
    return swarm


class TestEndToEndDeterminism:
    def test_same_seed_snapshots_byte_identical(self):
        a, b = _run_swarm(5), _run_swarm(5)
        ja = json.dumps(a.metrics_snapshot(), sort_keys=True)
        jb = json.dumps(b.metrics_snapshot(), sort_keys=True)
        assert ja == jb
        # Spans too: keyed to sim-time, hence reproducible.
        assert json.dumps(a.sim.tracer.as_list(), sort_keys=True) == json.dumps(
            b.sim.tracer.as_list(), sort_keys=True
        )

    def test_snapshot_covers_every_layer(self):
        snap = _run_swarm(5).metrics_snapshot()
        for required in (
            "sim.kernel.events_processed",
            "net.ipfw.rules_scanned_total",
            "net.pipe.packets_out",
            "net.tcp.segments_sent",
            "bt.swarm.completions",
        ):
            assert required in snap, required
        assert snap["bt.swarm.completions"]["value"] == 3

    def test_manifest_matches_run(self):
        swarm = _run_swarm(9)
        manifest = swarm.manifest()
        assert manifest.seed == 9
        assert manifest.events_processed == swarm.sim.events_processed
        assert manifest.topology_hash == topology_fingerprint(swarm.spec)


# ----------------------------------------------------------------------
# Read-time fold: per-packet counts live in plain slots on their owners
# and reach the registry whenever it is read
# ----------------------------------------------------------------------


def _slot_totals(swarm):
    """What the owners themselves say, bypassing the registry."""
    firewalls = [p.stack.fw for p in swarm.testbed.pnodes]
    pipes = [pipe for fw in firewalls for pipe in fw.pipes.values()]
    for port in swarm.testbed.switch._ports.values():
        pipes += [port.tx, port.rx]
    return {
        "net.ipfw.packets_evaluated": sum(fw.packets_evaluated for fw in firewalls),
        "net.ipfw.rules_scanned_total": sum(fw.rules_scanned_total for fw in firewalls),
        "net.pipe.packets_out": sum(pipe.packets_out for pipe in pipes),
    }


class TestReadTimeFold:
    def test_mid_run_reads_see_every_packet_so_far(self):
        swarm = _launched_swarm()
        sim = swarm.sim
        sampler = TimeSeriesSampler(sim, period=1000.0)
        sampler.sample_now()
        sim.run(until=6.0)
        truth = _slot_totals(swarm)
        assert all(v > 0 for v in truth.values()), truth
        snap = sim.metrics.snapshot()
        sampler.sample_now()
        for name, value in truth.items():
            assert sim.metrics.get(name).value == value
            assert snap[name]["value"] == value
            assert sum(v for _t, v in sampler.get(name)) == value
        occupancy = snap["net.pipe.queue_occupancy_bytes"]
        assert occupancy["count"] == sum(occupancy["counts"]) > 0
        assert occupancy["counts"][0] > 0 and occupancy["min"] == 0.0

    def test_two_reads_in_a_row_are_equal(self):
        swarm = _launched_swarm()
        swarm.sim.run(until=6.0)
        snapshot = swarm.sim.metrics.snapshot
        assert snapshot(include_wall=True) == snapshot(include_wall=True)
        swarm.sim.metrics.fold()
        held = swarm.sim.metrics.get("net.pipe.queue_occupancy_bytes")
        before = held.as_dict()
        swarm.sim.metrics.fold()
        assert held.as_dict() == before

    def test_reading_between_bursts_does_not_change_the_final_read(self):
        docs = []
        for read_midway in (True, False):
            swarm = _launched_swarm()
            sim = swarm.sim
            for horizon in (3.0, 6.0):
                sim.run(until=horizon)
                if read_midway:
                    sim.metrics.snapshot(include_wall=True)
                    sim.metrics.get("net.tcp.segments_sent")
            swarm.run(max_time=20000)
            docs.append(json.dumps(sim.metrics.snapshot(include_wall=True), sort_keys=True))
        assert docs[0] == docs[1]

    def test_closed_connections_and_dropped_pipes_stay_counted(self):
        from repro.net.addr import ip
        from repro.net.packet import Packet
        from repro.net.pipe import DummynetPipe

        sim = Simulator(seed=1)
        sent = 0
        for burst in (3, 2):
            pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.01, name="tmp")
            for _ in range(burst):
                pipe.transmit(Packet(ip("10.0.0.1"), ip("10.0.0.2"), "udp", 500), lambda p: None)
            sent += burst
            sim.run()
            del pipe
            gc.collect()
            assert sim.metrics.get("net.pipe.packets_out").value == sent
        occupancy = sim.metrics.get("net.pipe.queue_occupancy_bytes")
        assert occupancy.count == 5 and occupancy.counts[0] == 2

        swarm = _launched_swarm()
        swarm.run(max_time=20000)
        segments = swarm.sim.metrics.get("net.tcp.segments_sent").value
        for client in swarm.clients:
            client.stop()
        swarm.sim.run(until=swarm.sim.now + 60.0)
        gc.collect()
        assert not any(p.stack.tcp._conns for p in swarm.testbed.pnodes)
        assert swarm.sim.metrics.get("net.tcp.segments_sent").value >= segments > 0

    def test_observe_false_registers_nothing(self):
        swarm = _launched_swarm(observe=False)
        swarm.run(max_time=20000)
        metrics = swarm.sim.metrics
        assert metrics is NULL_REGISTRY
        assert metrics.snapshot(include_wall=True) == {} and len(metrics) == 0
        assert metrics.get("net.pipe.packets_out") is None
        # The slots themselves still count (they are the owners' own).
        assert _slot_totals(swarm)["net.pipe.packets_out"] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e8)),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_zero_fed_histogram_equals_plain_observe(self, backlogs):
        class Owner:
            idle = 0

        plain = Histogram("h", BYTES_EDGES)
        registry = MetricsRegistry()
        owner = Owner()
        fed = registry.histogram("h", edges=BYTES_EDGES)
        pushed = registry.feed_zeros(fed, owner, "idle")
        for value, read_now in backlogs:
            plain.observe(value)
            if value == 0.0:
                owner.idle += 1
            else:
                pushed.observe(value)
            if read_now:
                assert registry.get("h").as_dict() == plain.as_dict()
        assert registry.snapshot()["h"] == plain.as_dict()
        assert fed.as_dict() == plain.as_dict()


# ----------------------------------------------------------------------
# Byte identity across the fold: digests computed at the commit before
# per-packet instruments became slots, each over a run that is read
# mid-way and sampled throughout
# ----------------------------------------------------------------------
GOLDEN_METRICS_DIGESTS = {
    "swarm": "96a26fb4df4f2529c57c7e7b8795c2d7",
    "ping": "f7adeb52d0ece6eb0067f2393d3072d0",
}


def _golden_swarm():
    """Reduced fig8: staggered leechers, 16 KB blocks."""
    from repro.bittorrent import Swarm, SwarmConfig

    swarm = Swarm(
        SwarmConfig(
            leechers=6, seeders=1, file_size=768 * 1024,
            stagger=5.0, num_pnodes=3, seed=8,
        )
    )
    swarm.launch()
    return swarm.sim, lambda: swarm.run(max_time=20000)


def _golden_ping():
    """Reduced ping mesh over the Figure-7 topology plus an idle group."""
    import random

    from repro.net.ping import ping_process
    from repro.sim.process import Process
    from repro.topology.compiler import compile_topology
    from repro.topology.presets import figure7_topology
    from repro.units import mbps, ms
    from repro.virt.deployment import Testbed

    testbed = Testbed(num_pnodes=4, seed=3)
    spec = figure7_topology(scale=0.04)
    active_groups = list(spec.groups)
    spec.add_group(
        "idle", "10.64.0.0/10", 500, down_bw=mbps(2), up_bw=mbps(1), latency=ms(30)
    )
    compiler = compile_topology(spec, testbed)
    active = [v for group in active_groups for v in compiler.vnodes(group)]
    rng = random.Random(3)

    def prober(src, targets):
        for dst in targets:
            yield from ping_process(
                src.pnode.stack, src.address, dst.address,
                count=3, interval=0.5, size=64, timeout=10.0,
            )

    for i, src in enumerate(rng.sample(active, 40)):
        Process(testbed.sim, prober(src, rng.sample(active, 4)), start_delay=0.01 * i)
    return testbed.sim, testbed.sim.run


def _golden_metrics_digest(kind):
    sim, run = {"swarm": _golden_swarm, "ping": _golden_ping}[kind]()
    sampler = TimeSeriesSampler(sim, period=2.0)
    sampler.start()
    midway = []
    sim.schedule_at(4.0, lambda: midway.append(sim.metrics.snapshot()))
    sim.schedule_at(60.0, sampler.stop)
    run()
    doc = {
        "midway": midway,
        "final": sim.metrics.snapshot(),
        "series": sampler.as_dict(),
    }
    assert midway and midway[0]["net.pipe.packets_out"]["value"] > 0
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN_METRICS_DIGESTS))
def test_metrics_document_golden_digest(kind):
    code = f"import tests.test_obs as t; print(t._golden_metrics_digest({kind!r}))"
    for hash_seed in ("1", "31337"):
        digest = _run_child(code, PYTHONHASHSEED=hash_seed).strip()
        assert digest == GOLDEN_METRICS_DIGESTS[kind], hash_seed


# ----------------------------------------------------------------------
# Span unwinding under exceptions
# ----------------------------------------------------------------------


class TestSpanUnwind:
    def test_exception_closes_span_and_annotates(self):
        sim = Simulator()
        tracer = sim.tracer
        with pytest.raises(ValueError):
            with tracer.span("phase"):
                sim.now  # touch the clock
                raise ValueError("boom")
        assert tracer.depth == 0
        (span,) = tracer.select("phase")
        assert span.end is not None
        assert span.fields["error"] == "ValueError"

    def test_nested_exception_unwinds_whole_stack(self):
        sim = Simulator()
        tracer = sim.tracer
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("deep")
        assert tracer.depth == 0
        assert {s.name for s in tracer.finished} == {"outer", "inner"}
        assert tracer.select("inner")[0].fields["error"] == "RuntimeError"
        assert tracer.select("outer")[0].fields["error"] == "RuntimeError"

    def test_outer_end_inside_context_does_not_raise_on_exit(self):
        """Ending an *outer* span cascades; the inner context manager
        must tolerate its span having been closed already (previously
        this raised and masked whatever was happening)."""
        sim = Simulator()
        tracer = sim.tracer
        outer = tracer.begin("outer")
        with tracer.span("inner"):
            tracer.end(outer)  # closes inner too
        assert tracer.depth == 0
        assert len(tracer.finished) == 2

    def test_explicit_double_end_still_raises(self):
        tracer = Tracer(lambda: 0.0)
        span = tracer.begin("x")
        tracer.end(span)
        with pytest.raises(ObservabilityError):
            tracer.end(span)


# ----------------------------------------------------------------------
# TraceRecorder mid-run control
# ----------------------------------------------------------------------


class TestTraceRecorderControl:
    def test_enable_disable_mid_run(self):
        sim = Simulator()
        sim.trace.enable("cat.a")
        sim.trace.record(0.0, "cat.a", n=1)
        sim.trace.disable("cat.a")
        sim.trace.record(1.0, "cat.a", n=2)
        sim.trace.enable("cat.a")
        sim.trace.record(2.0, "cat.a", n=3)
        assert [r.get("n") for r in sim.trace.select("cat.a")] == [1, 3]
        assert sim.trace.categories() == {"cat.a"}

    def test_unsubscribe_mid_run(self):
        sim = Simulator()
        seen = []
        listener = seen.append
        sim.trace.subscribe("cat.b", listener)
        sim.trace.record(0.0, "cat.b")
        sim.trace.unsubscribe("cat.b", listener)
        sim.trace.record(1.0, "cat.b")
        assert len(seen) == 1
        # Subscribing does not retain: nothing accumulated.
        assert len(list(sim.trace.select("cat.b"))) == 0
        # An enabled, subscribed category keeps retaining after
        # unsubscribe.
        sim.trace.enable("cat.b")
        sim.trace.subscribe("cat.b", listener)
        sim.trace.record(2.0, "cat.b")
        sim.trace.unsubscribe("cat.b", listener)
        sim.trace.record(3.0, "cat.b")
        assert len(seen) == 2
        assert [r.time for r in sim.trace.select("cat.b")] == [2.0, 3.0]
        # Unknown unsubscribes are no-ops.
        sim.trace.unsubscribe("cat.b", listener)
        sim.trace.unsubscribe("never-enabled", listener)

    def test_clear_keeps_listeners_reset_drops_them(self):
        sim = Simulator()
        seen = []
        sim.trace.subscribe("cat.c", seen.append)
        sim.trace.record(0.0, "cat.c")
        sim.trace.clear()
        assert len(sim.trace) == 0
        sim.trace.record(1.0, "cat.c")
        assert len(seen) == 2  # listener survived clear()
        sim.trace.reset()
        sim.trace.record(2.0, "cat.c")
        assert len(sim.trace) == 0  # category gone after reset()
        assert len(seen) == 2
