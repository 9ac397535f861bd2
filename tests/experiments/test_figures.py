"""Tests for the Figure 6 and Figure 7 experiment harnesses (TINY scale).

These tests check the *plumbing* of the experiment harness — every requested
(task, p, policy) combination produces a row with sane values — not the
paper's performance ordering, which only emerges at larger scales (see the
benchmark suite).
"""

import numpy as np
import pytest

from repro.experiments.config import TINY_SCALE
from repro.experiments.figure6 import Figure6Result, Figure6Row, run_figure6
from repro.experiments.figure7 import Figure7Result, Figure7Row, run_figure7
from repro.experiments.runner import report_markdown, report_text, run_all_experiments
from repro.experiments.timing import run_timing


@pytest.fixture(scope="module")
def figure6_result():
    return run_figure6(
        TINY_SCALE,
        tasks=("temperature",),
        p_values=(0.9,),
        policies=("DR-Cell", "RANDOM"),
        seed=0,
    )


@pytest.fixture(scope="module")
def figure7_result():
    return run_figure7(
        TINY_SCALE,
        directions=(("temperature", "humidity"),),
        strategies=("TRANSFER", "RANDOM"),
        fine_tune_episodes=1,
        seed=0,
    )


class TestFigure6:
    def test_row_per_combination(self, figure6_result):
        assert len(figure6_result.rows) == 2
        policies = {row.policy for row in figure6_result.rows}
        assert policies == {"DR-Cell", "RANDOM"}

    def test_rows_have_sane_values(self, figure6_result):
        for row in figure6_result.rows:
            assert 1.0 <= row.mean_selected_per_cycle <= TINY_SCALE.sensorscope_cells
            assert 0.0 <= row.quality_satisfied_fraction <= 1.0
            assert row.n_cycles > 0
            assert row.total_selected >= row.n_cycles

    def test_row_lookup_and_reduction(self, figure6_result):
        row = figure6_result.row("temperature", 0.9, "RANDOM")
        assert isinstance(row, Figure6Row)
        reduction = figure6_result.reduction_vs("temperature", 0.9, "RANDOM")
        assert -1.0 <= reduction <= 1.0

    def test_missing_row_raises(self, figure6_result):
        with pytest.raises(KeyError):
            figure6_result.row("temperature", 0.5, "QBC")

    def test_unknown_task_raises(self):
        with pytest.raises(ValueError):
            run_figure6(TINY_SCALE, tasks=("noise",), seed=0)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            run_figure6(TINY_SCALE, tasks=("temperature",), policies=("GREEDY",), seed=0)

    def test_as_dicts_round_trip(self, figure6_result):
        dicts = figure6_result.as_dicts()
        assert len(dicts) == len(figure6_result.rows)
        assert all("mean_selected_per_cycle" in d for d in dicts)


class TestFigure7:
    def test_row_per_strategy(self, figure7_result):
        assert len(figure7_result.rows) == 2
        strategies = {row.strategy for row in figure7_result.rows}
        assert strategies == {"TRANSFER", "RANDOM"}

    def test_rows_have_sane_values(self, figure7_result):
        for row in figure7_result.rows:
            assert isinstance(row, Figure7Row)
            assert 1.0 <= row.mean_selected_per_cycle <= TINY_SCALE.sensorscope_cells
            assert row.target_task == "humidity"
            assert row.source_task == "temperature"

    def test_reduction_vs_baseline(self, figure7_result):
        reduction = figure7_result.reduction_vs("humidity", "RANDOM")
        assert -1.0 <= reduction <= 1.0

    def test_missing_row_raises(self, figure7_result):
        with pytest.raises(KeyError):
            figure7_result.row("humidity", "NO-TRANSFER")

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            run_figure7(
                TINY_SCALE,
                directions=(("temperature", "humidity"),),
                strategies=("MAGIC",),
                seed=0,
            )


class TestTiming:
    def test_timing_result_fields(self):
        result = run_timing(TINY_SCALE, epsilon=1.0, seed=0)
        assert result.scale == "tiny"
        assert result.n_cells == TINY_SCALE.sensorscope_cells
        assert result.wall_clock_seconds > 0
        assert result.steps_per_second > 0
        assert result.seconds_per_episode > 0
        assert "wall_clock_seconds" in result.as_dict()


class TestRunner:
    def test_run_all_and_reports(self):
        results = run_all_experiments(TINY_SCALE, seed=0, include_figure7=False)
        assert set(results) == {"table1", "figure6", "timing"}
        text = report_text(results)
        assert "Table 1" in text and "Figure 6" in text and "Training time" in text
        markdown = report_markdown(results)
        assert "### Table 1" in markdown and "|" in markdown
