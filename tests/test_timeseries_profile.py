"""Time-series sampler determinism."""

import pytest

from repro.errors import ObservabilityError
from repro.net.ping import ping
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim import Simulator
from repro.topology.compiler import compile_topology
from repro.topology.spec import TopologySpec
from repro.virt.deployment import Testbed


def sampled_ping_run(seed=0, period=0.5, metrics=None):
    testbed = Testbed(num_pnodes=2, seed=seed)
    spec = TopologySpec(name="ts-test")
    spec.add_group("peers", "10.9.0.0/24", 2, latency=0.001)
    compiler = compile_topology(spec, testbed)
    a, b = compiler.vnodes("peers")
    sim = testbed.sim
    sampler = TimeSeriesSampler(sim, period=period, metrics=metrics)
    sampler.start()
    probe = ping(sim, a.pnode.stack, a.address, b.address, count=3, interval=0.5)
    sim.run(until=3.0)
    sampler.stop()
    assert probe.result.received == 3
    return sampler


class TestSampler:
    def test_counter_series_records_deltas(self):
        sim = Simulator()
        counter = sim.metrics.counter("test.ticks")
        sampler = TimeSeriesSampler(sim, period=1.0)

        def bump():
            counter.inc(3)
            sim.schedule(1.0, bump)

        sim.schedule(0.5, bump)
        sampler.start()
        sim.run(until=3.5)
        series = dict(sampler.get("test.ticks"))
        # Baseline sample at t=0 sees nothing; each period then sees +3.
        assert series[0.0] == 0
        assert series[1.0] == 3 and series[2.0] == 3 and series[3.0] == 3
        assert sampler.rate("test.ticks")[1][1] == pytest.approx(3.0)

    def test_gauge_series_records_values(self):
        sim = Simulator()
        gauge = sim.metrics.gauge("test.level")
        sampler = TimeSeriesSampler(sim, period=1.0)
        sim.schedule(0.25, lambda: gauge.set(7))
        sim.schedule(1.25, lambda: gauge.set(2))
        sampler.start()
        sim.run(until=2.5)
        values = [v for _, v in sampler.get("test.level", "value")]
        assert values == [0, 7, 2]

    def test_histogram_series_records_count_and_sum_deltas(self):
        sim = Simulator()
        hist = sim.metrics.histogram("test.sizes", edges=(10, 100))
        sampler = TimeSeriesSampler(sim, period=1.0)
        sim.schedule(0.5, lambda: (hist.observe(5), hist.observe(50)))
        sampler.start()
        sim.run(until=1.5)
        assert [v for _, v in sampler.get("test.sizes", "count_delta")] == [0, 2]
        assert [v for _, v in sampler.get("test.sizes", "sum_delta")] == [0, 55]

    def test_metric_filter(self):
        sampler = sampled_ping_run(metrics=["net.pipe.packets_out"])
        assert sampler.names() == ["net.pipe.packets_out"]

    def test_determinism_across_same_seed_runs(self):
        a = sampled_ping_run(seed=0)
        b = sampled_ping_run(seed=0)
        assert a.to_json() == b.to_json()

    def test_csv_long_format(self, tmp_path):
        sampler = sampled_ping_run()
        path = sampler.to_csv(tmp_path / "series.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "time,metric,field,value"
        assert len(lines) > 1
        # Sorted by (time, metric, field): stable diffable bytes.
        keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert keys == sorted(keys, key=lambda k: (float(k[0]), k[1], k[2]))

    def test_invalid_period_rejected(self):
        with pytest.raises(ObservabilityError):
            TimeSeriesSampler(Simulator(), period=0.0)

