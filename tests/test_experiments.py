"""Tests for the per-figure experiment drivers."""

from __future__ import annotations

import pytest

from repro.analysis.figures import (
    run_fig3_processor_trends,
    run_fig4_yield_sweep,
    run_fig6_configurations,
    run_fig7_detuning_model,
    run_fig8_yield_comparison,
    run_fig9_infidelity_heatmap,
    run_fig10_applications,
    run_sec5c_fabrication_output,
    run_table1_collision_criteria,
    run_table2_compiled_benchmarks,
)


class TestFig3:
    def test_median_grows_with_size(self):
        result = run_fig3_processor_trends(num_cycles=8, seed=11)
        medians = [row["median"] for row in result.rows]
        assert medians == sorted(medians)
        assert "Washington" in result.format_table()


class TestTable1:
    def test_every_criterion_is_detected(self):
        result = run_table1_collision_criteria()
        assert len(result.rows) == 7
        assert all(row["detected"] for row in result.rows)
        assert "yes" in result.format_table()


class TestFig4:
    def test_sweep_structure_and_monotonicity(self):
        result = run_fig4_yield_sweep(
            steps_ghz=(0.06,),
            sigmas_ghz=(0.1323, 0.014),
            sizes=(10, 40, 100),
            batch_size=300,
            seed=3,
        )
        assert set(result.curves) == {(0.06, 0.1323), (0.06, 0.014)}
        precise = result.curves[(0.06, 0.014)]
        coarse = result.curves[(0.06, 0.1323)]
        assert sum(precise) > sum(coarse)
        assert result.best_step(0.014) == pytest.approx(0.06)
        assert "0.06" in result.format_table()


class TestFig6:
    def test_curve_uses_measured_yield(self):
        points = run_fig6_configurations(max_grid=4, seed=3)
        assert [p.grid for p in points] == [(2, 2), (3, 3), (4, 4)]
        assert points[0].max_mcms > points[-1].max_mcms

    def test_explicit_yield(self):
        points = run_fig6_configurations(chiplet_yield=0.694, max_grid=3)
        assert points[0].max_mcms == int(0.694 * 100_000) // 4


class TestSec5C:
    def test_output_gain_in_paper_range(self):
        comparison = run_sec5c_fabrication_output(batch_size=800, seed=9)
        assert comparison.gain > 3.0
        assert comparison.mcm_devices > comparison.monolithic_devices


class TestFig7:
    def test_summary_matches_washington(self):
        result = run_fig7_detuning_model(seed=11)
        assert result.median == pytest.approx(0.012, abs=0.003)
        assert result.mean > result.median
        assert len(result.bin_means) >= 3
        assert "bin centre" in result.format_table()


@pytest.fixture(scope="module")
def small_fig8(small_study):
    return run_fig8_yield_comparison(small_study, chiplet_sizes=(10, 20, 40))


class TestFig8:
    def test_monolithic_yield_collapses_with_size(self, small_fig8):
        yields = dict(small_fig8.monolithic)
        assert yields[max(yields)] <= yields[min(yields)]

    def test_mcm_yields_beat_monolithic_at_scale(self, small_fig8, small_study):
        for chiplet_size, series in small_fig8.mcm_series.items():
            for num_qubits, mcm_yield, mcm_yield_100x in series:
                if num_qubits >= 200:
                    mono = small_study.monolithic_result(num_qubits).collision_free_yield
                    assert mcm_yield >= mono
                assert mcm_yield_100x <= mcm_yield + 1e-12

    def test_yield_improvements_positive(self, small_fig8):
        for value in small_fig8.yield_improvements.values():
            assert value > 1.0
        assert "chiplet size" in small_fig8.format_table()


class TestFig9:
    def test_heatmap_cells_and_scenarios(self, small_study):
        result = run_fig9_infidelity_heatmap(small_study, chiplet_sizes=(10, 20, 40))
        scenarios = {c["scenario"] for c in result.cells}
        assert len(scenarios) == 4
        assert result.fraction_below_one("elink=1echip") >= result.fraction_below_one(
            "state-of-art"
        ) - 1e-9
        table = result.format_table("state-of-art")
        assert "ratio" in table

    def test_equal_link_quality_favours_mcm(self, small_study):
        result = run_fig9_infidelity_heatmap(small_study, chiplet_sizes=(20, 40))
        assert result.fraction_below_one("elink=1echip") > 0.5


class TestFig10AndTable2:
    def test_application_rows(self, small_study):
        result = run_fig10_applications(
            small_study,
            chiplet_sizes=(20,),
            benchmarks=("bv", "ghz"),
            square_only=True,
        )
        assert result.rows
        for row in result.rows:
            assert row["mcm_log10_fidelity"] <= 0
            assert row["ratio"] > 0
        assert "benchmark" in result.format_table()
        bv_ratios = result.ratios_for_benchmark("bv")
        assert {size for size, _ in bv_ratios} <= {80, 180, 320, 500}

    def test_table2_row_structure(self):
        result = run_table2_compiled_benchmarks(
            chiplet_sizes=(10,), benchmarks=("bv", "ghz"), utilisation=0.8
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["num_qubits"] == 40
            assert row["num_two_qubit"] > 0
            assert row["two_qubit_critical_path"] <= row["num_two_qubit"]
        assert "2q critical" in result.format_table()
