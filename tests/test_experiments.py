"""Tests for the experiment modules (scaled-down parameters).

Each test asserts the *shape* property the corresponding paper figure
shows, at parameters small enough for the unit-test suite; the full
parameter sets live in benchmarks/ and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments.ablations import (
    run_choker_ablation,
    run_rule_lookup_ablation,
    run_stagger_ablation,
)
from repro.experiments.fig1_cpu_scalability import print_report as report1, run_fig1
from repro.experiments.fig2_memory_pressure import print_report as report2, run_fig2
from repro.experiments.fig3_fairness import print_report as report3, run_fig3
from repro.experiments.fig6_rule_scaling import print_report as report6, run_fig6
from repro.experiments.fig7_topology import print_report as report7, run_fig7
from repro.experiments.fig8_download_evolution import run_fig8
from repro.experiments.fig10_scalability import run_fig10
from repro.experiments.tbl_connect_overhead import (
    print_report as report_tbl,
    run_connect_overhead,
)
from repro.units import MB, ms, us


class TestFig1:
    def test_flat_and_slightly_decreasing(self):
        result = run_fig1(counts=(1, 10, 100, 400))
        for label, series in result.curves.items():
            # Flat around the 1.65 s solo time...
            assert all(1.60 < v < 1.72 for v in series), label
            # ...and decreasing with the process count.
            assert series[0] > series[-1], label
            assert series[-1] == pytest.approx(1.65, abs=0.01)

    def test_report_renders(self):
        result = run_fig1(counts=(1, 10))
        out = report1(result)
        assert "Figure 1" in out and "1.6" in out


class TestFig2:
    def test_knee_at_ram_for_freebsd_only(self):
        result = run_fig2(counts=(5, 15, 30, 50))
        for label in ("ULE scheduler", "4BSD scheduler"):
            series = result.curves[label]
            assert series[1] < 1.5          # below RAM: near solo time
            assert series[-1] > 3 * series[0]  # far past RAM: inflated
        linux = result.curves["Linux 2.6"]
        assert max(linux) < 1.3 * min(linux)

    def test_report_renders(self):
        result = run_fig2(counts=(5, 50))
        assert "Figure 2" in report2(result)


class TestFig3:
    def test_ule_spread_others_steep(self):
        result = run_fig3(instances=60)
        assert result.spread("ULE scheduler") > 0.1
        assert result.spread("4BSD scheduler") < 0.02
        assert result.spread("Linux 2.6") < 0.02

    def test_cdf_shape(self):
        result = run_fig3(instances=40)
        cdf = result.cdf("4BSD scheduler")
        assert cdf[0][1] == pytest.approx(1 / 40)
        assert cdf[-1][1] == 1.0

    def test_report_renders(self):
        result = run_fig3(instances=20)
        assert "Figure 3" in report3(result)


class TestConnectOverhead:
    def test_matches_paper_within_tolerance(self):
        result = run_connect_overhead(cycles=200)
        assert result.plain_us == pytest.approx(10.22, abs=0.05)
        assert result.intercepted_us == pytest.approx(10.79, abs=0.05)
        assert result.overhead_us == pytest.approx(0.57, abs=0.02)

    def test_report_renders(self):
        out = report_tbl(run_connect_overhead(cycles=50))
        assert "libc" in out


class TestFig6:
    def test_rtt_linear_in_rules(self):
        result = run_fig6(rule_counts=(0, 5000, 10000, 20000), pings_per_point=2)
        avgs = [r[0] for r in result.rtts]
        assert avgs == sorted(avgs)
        # Paper slope: ~0.1 us/rule of RTT.
        assert result.slope_us_per_rule() == pytest.approx(0.1, rel=0.1)

    def test_report_renders(self):
        result = run_fig6(rule_counts=(0, 1000), pings_per_point=1)
        assert "Figure 6" in report6(result)


class TestFig7:
    def test_decomposition_near_paper(self):
        result = run_fig7(scale=0.02, num_pnodes=4)
        # Paper: 853 ms measured, 850 ms propagation, ~3 ms overhead.
        assert result.measured_rtt == pytest.approx(0.851, abs=0.005)
        assert 0 < result.overhead < ms(5)

    def test_pairwise_ordering(self):
        result = run_fig7(scale=0.02, num_pnodes=4)
        # group2<->group3 crosses the 1 s link: the slowest pair.
        assert result.pair_rtts["group2->group3"] > result.pair_rtts["dsl-fast->group3"]
        assert result.pair_rtts["dsl-fast->modem"] < result.pair_rtts["dsl-fast->group2"]

    def test_report_renders(self):
        assert "853" in report7(run_fig7(scale=0.02, num_pnodes=2))


class TestFig8Scaled:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(
            leechers=12, seeders=2, file_size=2 * MB, stagger=2.0, num_pnodes=4, seed=4
        )

    def test_all_complete(self, result):
        assert result.summary.clients == 12

    def test_three_phase_structure(self, result):
        ph = result.phases_first_client
        assert ph["first_piece"] > 0
        assert ph["to_half"] > 0 and ph["to_done"] > 0

    def test_progress_curves_recorded(self, result):
        assert len(result.progress) == 12


class TestFig10Scaled:
    def test_steep_completion_ramp(self):
        result = run_fig10(scale=0.005, stagger=0.25, file_size=2 * MB, seed=2)
        # "Most clients finish their downloads nearly at the same time."
        window = result.last_completion - result.first_completion
        assert result.median_completion < result.first_completion + 0.75 * window
        assert result.completion[-1][1] == result.clients
        assert result.vnodes_per_pnode <= 33


class TestAblations:
    def test_rule_lookup_indexed_is_constant(self):
        result = run_rule_lookup_ablation(vnode_counts=(10, 100, 1000))
        assert result.linear_scanned == (20, 200, 2000)
        assert max(result.indexed_scanned) <= 10  # O(1)-ish

    def test_stagger_changes_dynamics(self):
        result = run_stagger_ablation(
            staggers=(0.0, 5.0), leechers=8, seeders=1, file_size=1 * MB, num_pnodes=2
        )
        assert set(result.last_completions) == {0.0, 5.0}
        assert all(v > 0 for v in result.median_durations.values())

    def test_choker_ablation_runs(self):
        result = run_choker_ablation(
            leechers=8, seeders=1, file_size=1 * MB, stagger=1.0, num_pnodes=2
        )
        assert result.with_tft_last > 0
        assert result.without_tft_last > 0


class TestRegistry:
    def test_all_expected_ids_present(self):
        expected = {
            "fig1", "fig2", "fig3", "tblA", "tblB", "fig6", "fig7",
            "fig8", "fig9", "fig10", "fig10_cells", "fig11",
            "abl-rule-lookup", "abl-uplink", "abl-choker", "abl-stagger",
            "abl-acks", "abl-ule-gen", "abl-superseed", "abl-departure",
        }
        assert expected == set(EXPERIMENTS)

    def test_get_experiment(self):
        entry = get_experiment("fig6")
        assert callable(entry.run) and callable(entry.report)
        with pytest.raises(KeyError):
            get_experiment("fig99")
