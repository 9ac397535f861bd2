"""Benchmark: DR-Cell training wall-clock time (paper §5.4, last paragraph).

The paper reports 2–4 hours of off-line TensorFlow training on a Xeon
server.  This benchmark measures the analogous quantity for the NumPy DRQN
at SMALL scale and records the throughput (environment steps per second)
from which larger scales can be extrapolated.

``timing.json`` keeps the seed repo's measurement as a frozen baseline row
so the effect of the vectorized training engine (array-backed replay, fused
TD pipeline, batched rollouts) stays visible next to the current numbers.
It also carries MEDIUM- and FULL-scale rows (bounded episode budgets, so
they measure per-episode cost at paper-sized grids rather than a full
training run).  Those are too slow for the default suite: they re-measure
only when ``TIMING_BENCH_SCALES`` lists them (e.g.
``TIMING_BENCH_SCALES=medium,full``); otherwise the previously published
rows are carried over from the checked-in ``timing.json``.
"""

import json
import os

from repro.experiments.config import FULL_SCALE, MEDIUM_SCALE, SMALL_SCALE
from repro.experiments.timing import run_timing

from benchmarks.conftest import RESULTS_DIR, write_result

# The seed repo's measurement on this benchmark (pre-vectorization), kept
# for comparison.  Do not update this row when re-running the benchmark.
SEED_BASELINE = {
    "label": "seed-baseline",
    "scale": "small",
    "n_cells": 20,
    "training_cycles": 48,
    "episodes": 4,
    "total_steps": 1538,
    "vector_envs": 1,
    "wall_clock_seconds": 5.66,
    "seconds_per_episode": 1.42,
    "steps_per_second": 271.7,
}

#: Bounded episode budgets for the big-scale rows: enough to measure the
#: per-episode cost at paper-sized grids without a multi-hour run.
BIG_SCALE_ROWS = (
    ("medium", MEDIUM_SCALE, 2),
    ("full", FULL_SCALE, 1),
)


def _requested_scales() -> set:
    return {
        name.strip()
        for name in os.environ.get("TIMING_BENCH_SCALES", "").split(",")
        if name.strip()
    }


def _published_rows(labels) -> list:
    """Previously published timing.json rows with the given labels, in order."""
    path = RESULTS_DIR / "timing.json"
    if not path.exists():
        return []
    by_label = {row.get("label"): row for row in json.loads(path.read_text())}
    return [by_label[label] for label in labels if label in by_label]


def test_bench_training_time(benchmark):
    result = benchmark.pedantic(
        run_timing, kwargs=dict(scale=SMALL_SCALE, seed=0), rounds=1, iterations=1
    )
    vectorized = run_timing(scale=SMALL_SCALE, seed=0, vector_envs=8)
    fused = run_timing(scale=SMALL_SCALE, seed=0, vector_envs=8, fused=True)

    rows = [
        SEED_BASELINE,
        {"label": "sequential", **result.as_dict()},
        {"label": "vectorized-k8", **vectorized.as_dict()},
        {"label": "fused-k8", **fused.as_dict()},
    ]

    # MEDIUM/FULL rows: re-measured on request, carried over otherwise.
    requested = _requested_scales()
    for label, scale, episodes in BIG_SCALE_ROWS:
        if label in requested:
            measured = run_timing(
                scale=scale, seed=0, vector_envs=8, fused=True, episodes=episodes
            )
            rows.append({"label": label, **measured.as_dict()})
        else:
            rows.extend(_published_rows([label]))
    write_result("timing", rows)

    assert result.wall_clock_seconds > 0
    assert result.total_steps > 0
    assert result.episodes == SMALL_SCALE.episodes
    assert vectorized.total_steps > 0
    assert fused.total_steps > 0

