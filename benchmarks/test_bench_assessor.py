"""Benchmark: sequential vs batched quality assessment.

The quality assessor is consulted after every submission of a campaign and
each consultation runs up to ``max_loo_cells`` full ALS matrix completions,
so assessment — not selection — dominates testing-stage cost.  This
benchmark measures the leave-one-out Bayesian assessor's throughput with the
completions solved one at a time (the seed protocol) against the batched
path (all held-out windows in one ``complete_batch`` call), plus the pooled
``assess_many`` path used by the lockstep campaign runner.

Results go to ``benchmarks/out/assessor.json``.  Smoke mode for CI:
``ASSESSOR_BENCH_SMOKE=1`` runs a single repetition so regressions in the
batched path fail fast without paying the full measurement.
"""

import os

import numpy as np

from repro.inference.compressive import CompressiveSensingInference
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.utils.timing import monotonic

from benchmarks.conftest import write_result

#: Matches the FULL-scale assessor budget (`ExperimentScale.max_loo_cells`).
MAX_LOO_CELLS = 12

N_CELLS = 20
HISTORY = 24
SENSED_PER_CYCLE = 15
REQUIREMENT = QualityRequirement(epsilon=0.3, p=0.9, metric="mae")


def _smoke_mode() -> bool:
    return os.environ.get("ASSESSOR_BENCH_SMOKE", "") not in ("", "0")


def _assessment_inputs(n_states: int, seed: int = 0):
    """Partially observed windows in the regime the campaign assesses in."""
    rng = np.random.default_rng(seed)
    base = (
        np.linspace(0, 3, N_CELLS)[:, None]
        + np.sin(np.linspace(0, 6, HISTORY))[None, :]
    )
    matrix = base + 0.1 * rng.normal(size=(N_CELLS, HISTORY))
    states = []
    for _ in range(n_states):
        observed = matrix.copy()
        cycle = HISTORY - 1
        observed[:, cycle] = np.nan
        sensed = rng.choice(N_CELLS, size=SENSED_PER_CYCLE, replace=False)
        observed[sensed, cycle] = matrix[sensed, cycle]
        states.append((observed, cycle))
    return states


def _throughput(assessor, states, inference, repeats):
    start = monotonic()
    for _ in range(repeats):
        for observed, cycle in states:
            assessor.probability_error_below(observed, cycle, REQUIREMENT, inference)
    elapsed = monotonic() - start
    n_assessments = repeats * len(states)
    return n_assessments, elapsed


def _pooled_throughput(assessor, states, inference, repeats):
    start = monotonic()
    for _ in range(repeats):
        assessor.probabilities_error_below(
            [observed for observed, _ in states],
            [cycle for _, cycle in states],
            [REQUIREMENT] * len(states),
            inference,
        )
    elapsed = monotonic() - start
    return repeats * len(states), elapsed


def test_bench_assessor_batched_throughput(benchmark):
    """Record sequential vs batched assessment throughput at max_loo_cells=12."""
    smoke = _smoke_mode()
    repeats = 1 if smoke else 5
    states = _assessment_inputs(2 if smoke else 6)
    inference = CompressiveSensingInference(iterations=8, seed=0)

    def make(batched):
        return LeaveOneOutBayesianAssessor(
            min_observations=3,
            max_loo_cells=MAX_LOO_CELLS,
            history_window=HISTORY,
            batched=batched,
            rng=np.random.default_rng(0),
        )

    n_seq, t_seq = _throughput(make(batched=False), states, inference, repeats)
    n_bat, t_bat = _throughput(make(batched=True), states, inference, repeats)
    n_pool, t_pool = _pooled_throughput(make(batched=True), states, inference, repeats)
    benchmark.pedantic(
        _throughput,
        args=(make(batched=True), states, inference, 1),
        rounds=1,
        iterations=1,
    )

    seq_rate = n_seq / t_seq
    rows = []
    for mode, n, elapsed in (
        ("sequential", n_seq, t_seq),
        ("batched", n_bat, t_bat),
        ("assess_many_pooled", n_pool, t_pool),
    ):
        rate = n / elapsed
        rows.append(
            {
                "mode": mode,
                "max_loo_cells": MAX_LOO_CELLS,
                "n_cells": N_CELLS,
                "history_window": HISTORY,
                "sensed_per_cycle": SENSED_PER_CYCLE,
                "assessments": n,
                "seconds": round(elapsed, 4),
                "assessments_per_second": round(rate, 2),
                "speedup_vs_sequential": round(rate / seq_rate, 2),
                "smoke": smoke,
            }
        )
    write_result("assessor", rows)

    # The acceptance bar: batching 12 LOO completions into one stacked ALS
    # must at least double assessment throughput (measured ~6-7x locally, so
    # 2x stays robust to machine noise).
    assert n_bat / t_bat >= 2.0 * seq_rate
    # Pooling whole slots through assess_many must not be slower than the
    # per-slot batched path.
    assert n_pool / t_pool >= n_bat / t_bat * 0.8
