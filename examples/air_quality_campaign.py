#!/usr/bin/env python
"""Air-quality (PM2.5) monitoring campaign — the paper's U-Air scenario.

The U-Air task differs from the temperature task in two ways that this
example highlights:

* the data is heavy-tailed PM2.5 concentration, and the quantity of interest
  is the *AQI category* of each cell rather than the raw value;
* the quality metric is classification error over the six standard AQI
  categories, with the paper's bound ε = 9/36 (at most a quarter of the
  unsensed cells misclassified) in p = 90% of cycles.

The example compares DR-Cell against QBC and RANDOM on a reduced-scale
synthetic Beijing grid and prints, per policy, the selected-cells average
and the achieved classification accuracy.

Run with::

    python examples/air_quality_campaign.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BatchedCampaignRunner,
    CampaignConfig,
    DRCellConfig,
    DRCellTrainer,
    QBCSelectionPolicy,
    QualityRequirement,
    RandomSelectionPolicy,
    SensingTask,
    generate_uair,
)
from repro.core.drcell import DRCellPolicy
from repro.datasets.aqi import aqi_category
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.utils.logging import enable_console_logging


def categorisation_accuracy(result, test_set) -> float:
    """Fraction of (cell, cycle) entries whose inferred AQI category is correct."""
    inferred = result.inferred_matrix
    truth_categories = aqi_category(test_set.data[:, : inferred.shape[1]])
    inferred_categories = aqi_category(np.clip(inferred, 0.0, None))
    return float(np.mean(truth_categories == inferred_categories))


def main() -> None:
    enable_console_logging()

    # A reduced U-Air-like grid: 16 of the 36 Beijing cells, hourly cycles.
    dataset = generate_uair(n_cells=16, duration_days=3.0, cycle_length_hours=1.0, seed=0)
    train_set, test_set = dataset.train_test_split(training_days=2.0)
    print(
        f"dataset: {dataset.name}, {dataset.n_cells} cells, "
        f"mean PM2.5 {dataset.mean():.1f} ± {dataset.std():.1f} µg/m³"
    )

    # Paper's PM2.5 requirement: classification error ≤ 9/36 in 90% of cycles.
    requirement = QualityRequirement(epsilon=9.0 / 36.0, p=0.9, metric="classification")

    inference = CompressiveSensingInference(rank=3, iterations=8, seed=0)
    config = DRCellConfig(
        window=2,
        episodes=4,
        lstm_hidden=32,
        dense_hidden=(32,),
        exploration_decay_steps=600,
        history_window=8,
        dqn=DQNConfig(batch_size=16, min_replay_size=32, target_update_interval=50, learn_every=2),
        seed=0,
    )
    agent, _ = DRCellTrainer(config, inference=inference).train(train_set, requirement)

    task = SensingTask(
        dataset=test_set,
        requirement=requirement,
        inference=inference,
        assessor=LeaveOneOutBayesianAssessor(min_observations=3, max_loo_cells=6, history_window=8),
    )
    runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=3, assess_every=2))

    policies = (
        DRCellPolicy(agent),
        QBCSelectionPolicy(coordinates=test_set.coordinates, history_window=8, seed=2),
        RandomSelectionPolicy(seed=3),
    )
    print(f"\nquality requirement: {requirement.describe()}")
    for policy in policies:
        result = runner.run([policy], n_cycles=min(20, test_set.n_cycles))[0]
        accuracy = categorisation_accuracy(result, test_set)
        print(
            f"{policy.name:>8}: {result.mean_selected_per_cycle:.2f} cells/cycle, "
            f"AQI category accuracy {accuracy:.0%}, "
            f"cycles within ε: {result.quality_satisfied_fraction:.0%}"
        )


if __name__ == "__main__":
    main()
