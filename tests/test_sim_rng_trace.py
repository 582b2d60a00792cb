"""Tests for RNG streams and tracing."""

import hashlib

import pytest

from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.trace import TraceRecorder


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("x")
        b = RngRegistry(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        reg = RngRegistry(42)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_stream_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")
        assert "s" in reg
        assert len(reg) == 1

    def test_derive_seed_stable(self):
        # Regression pin: stability across interpreter runs is the point.
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert 0 <= derive_seed(123, "net") < 2**64

    @pytest.mark.parametrize(
        "root, name, seed",
        [
            (0, "a", 15270482384145340437),
            (42, "pipe.loss/10.0.0.7", 9420205080024145802),
            (7, "bt.choker/10.1.2.3", 18190359636732044537),
            (-1, "net", 14164348835873984526),
            (2**64 - 1, "x", 9402055405068259993),
            (123, "n\u0153ud/\u00e9", 16017452200023479388),
            (0, "", 11401113931532778961),
        ],
    )
    def test_derive_seed_golden(self, root, name, seed):
        # Every RNG stream and every sweep point's seed hangs off these
        # values: a change of hash source must not move them.
        assert derive_seed(root, name) == seed

    def test_builtin_blake2b_is_hashlib_blake2b(self):
        # derive_seed takes the builtin so it need not import hashlib.
        _blake2 = pytest.importorskip("_blake2")
        assert _blake2.blake2b is hashlib.blake2b

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(9)
        s = reg1.stream("keep")
        first = s.random()
        reg2 = RngRegistry(9)
        reg2.stream("other")  # extra consumer
        s2 = reg2.stream("keep")
        assert s2.random() == first


class TestTrace:
    def test_disabled_by_default(self):
        tr = TraceRecorder()
        tr.record(1.0, "cat", x=1)
        assert len(tr) == 0

    def test_enable_records(self):
        tr = TraceRecorder()
        tr.enable("cat")
        tr.record(1.0, "cat", x=1)
        tr.record(2.0, "other", y=2)
        recs = list(tr.select())
        assert len(recs) == 1
        assert recs[0].get("x") == 1

    def test_select_by_category_and_field(self):
        tr = TraceRecorder()
        tr.enable("dl")
        tr.record(1.0, "dl", node="a", pct=10)
        tr.record(2.0, "dl", node="b", pct=20)
        tr.record(3.0, "dl", node="a", pct=30)
        recs = list(tr.select("dl", node="a"))
        assert [r.get("pct") for r in recs] == [10, 30]

    def test_select_missing_field_excluded(self):
        tr = TraceRecorder()
        tr.enable("c")
        tr.record(1.0, "c", a=1)
        assert list(tr.select("c", b=None)) == []

    def test_subscribe_listener(self):
        tr = TraceRecorder()
        seen = []
        tr.subscribe("ev", seen.append)
        tr.record(5.0, "ev", k="v")
        assert len(seen) == 1
        assert seen[0].time == 5.0
        assert seen[0].as_dict() == {"k": "v"}

    def test_disable(self):
        tr = TraceRecorder()
        tr.enable("c")
        tr.disable("c")
        tr.record(1.0, "c")
        assert len(tr) == 0

    def test_clear(self):
        tr = TraceRecorder()
        tr.enable("c")
        tr.record(1.0, "c")
        tr.clear()
        assert len(tr) == 0


class TestUnits:
    def test_rates(self):
        from repro import units

        assert units.kbps(128) == 16000.0
        assert units.mbps(2) == 250000.0
        assert units.gbps(1) == 125000000.0
        assert units.bps(8) == 1.0

    def test_times(self):
        from repro import units

        assert units.ms(30) == 0.03
        assert abs(units.us(10) - 1e-5) < 1e-18
        assert units.minutes(2) == 120.0

    def test_sizes(self):
        from repro import units

        assert units.MB == 1024 * 1024
        assert 16 * units.MB == 16777216

    def test_formatting(self):
        from repro import units

        assert units.fmt_bytes(512) == "512 B"
        assert units.fmt_bytes(2048) == "2.0 KiB"
        assert "Mbps" in units.fmt_rate(units.mbps(2))
        assert "kbps" in units.fmt_rate(units.kbps(128))
        assert "us" in units.fmt_duration(5e-6)
        assert "ms" in units.fmt_duration(0.005)
        assert "min" in units.fmt_duration(300)

    def test_to_mbit(self):
        from repro import units

        assert units.to_mbit(125000) == 1.0
