#!/usr/bin/env python
"""Online DR-Cell with per-cell sensing costs — the paper's future-work extensions.

The paper's conclusion sketches two extensions that this library implements:

* **online learning** — learn the cell-selection policy during the campaign
  itself, removing the need for a preliminary study that senses every cell;
* **diverse cell costs** — different cells can be cheaper or more expensive
  to sense (e.g. fewer participants pass through some areas), and the policy
  should account for that.

This example runs a temperature campaign where the left half of the sensing
area is three times as expensive to sense as the right half, and compares:

1. ONLINE DR-Cell — starts untrained, learns cycle by cycle, cost-aware;
2. RANDOM — the usual baseline, unaware of costs.

Both are evaluated on the cells they select *and* on the total collection
cost under the per-cell cost vector.

Run with::

    python examples/online_learning.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BatchedCampaignRunner,
    CampaignConfig,
    DRCellConfig,
    QualityRequirement,
    RandomSelectionPolicy,
    SensingTask,
    generate_sensorscope,
)
from repro.core.online import build_online_policy
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()

    dataset = generate_sensorscope(
        "temperature", n_cells=16, duration_days=2.0, cycle_length_hours=1.0, seed=4
    )
    requirement = QualityRequirement(epsilon=0.6, p=0.9, metric="mae")

    # The left half of the area (smaller x coordinate) is 3x as expensive.
    median_x = float(np.median(dataset.coordinates[:, 0]))
    cell_costs = np.where(dataset.coordinates[:, 0] < median_x, 3.0, 1.0)
    print(
        f"{dataset.n_cells} cells, {dataset.n_cycles} cycles; "
        f"{int((cell_costs == 3.0).sum())} cells cost 3.0, the rest cost 1.0"
    )

    inference = CompressiveSensingInference(rank=3, iterations=8, seed=0)
    task = SensingTask(
        dataset=dataset,
        requirement=requirement,
        inference=inference,
        assessor=LeaveOneOutBayesianAssessor(min_observations=3, max_loo_cells=6, history_window=8),
    )
    runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=3, assess_every=2))

    config = DRCellConfig(
        window=2,
        lstm_hidden=32,
        dense_hidden=(32,),
        exploration_start=0.6,
        exploration_end=0.05,
        exploration_decay_steps=300,
        dqn=DQNConfig(batch_size=16, min_replay_size=32, target_update_interval=40, learn_every=2),
        seed=0,
    )
    online_policy = build_online_policy(
        dataset.n_cells, config, cell_costs=cell_costs, exploration_decay_cycles=300
    )

    n_cycles = min(30, dataset.n_cycles)
    policies = {"ONLINE DR-Cell": online_policy, "RANDOM": RandomSelectionPolicy(seed=1)}
    for name, policy in policies.items():
        result = runner.run([policy], n_cycles=n_cycles)[0]
        print(
            f"{name:>15}: {result.mean_selected_per_cycle:.2f} cells/cycle, "
            f"total cost {result.total_cost(cell_costs):.1f} "
            f"(uniform-cost equivalent {result.total_selected}), "
            f"cycles within ε: {result.quality_satisfied_fraction:.0%}"
        )

    print(
        f"\nonline policy saw {online_policy.cycles_seen} cycles and "
        f"{online_policy.transitions_observed} transitions; "
        f"recent TD loss {online_policy.mean_recent_loss:.4f}"
    )


if __name__ == "__main__":
    main()
