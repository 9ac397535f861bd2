#!/usr/bin/env python
"""Transfer learning between correlated tasks — the paper's Figure-7 scenario.

Temperature and humidity in the same area are strongly (negatively)
correlated, so a Q-function learned for temperature sensing is a useful
starting point for humidity sensing.  This example:

1. trains a DR-Cell agent on the temperature task with a full 2-day
   preliminary study (the *source* task);
2. assumes the humidity task (the *target*) only has 10 cycles of training
   data;
3. compares four strategies on the humidity testing stage:
   TRANSFER (paper's proposal: initialise from the source weights and
   fine-tune), NO-TRANSFER (use the source agent as-is), SHORT-TRAIN
   (train from scratch on the 10 cycles) and RANDOM.

Run with::

    python examples/transfer_learning.py
"""

from __future__ import annotations

from repro import (
    BatchedCampaignRunner,
    CampaignConfig,
    DRCellConfig,
    DRCellTrainer,
    QualityRequirement,
    RandomSelectionPolicy,
    SensingTask,
    transfer_train,
)
from repro.core.drcell import DRCellPolicy
from repro.datasets.sensorscope import generate_sensorscope_pair
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()

    # Correlated temperature/humidity pair over the same 16-cell area.
    temperature, humidity = generate_sensorscope_pair(
        n_cells=16, duration_days=3.0, cycle_length_hours=1.0, seed=0
    )
    source_train, _ = temperature.train_test_split(training_days=2.0)
    target_train_full, target_test = humidity.train_test_split(training_days=2.0)
    target_train_small = target_train_full.slice_cycles(0, 10, suffix="short")

    source_requirement = QualityRequirement(epsilon=0.5, p=0.9, metric="mae")
    target_requirement = QualityRequirement(epsilon=2.0, p=0.9, metric="mae")

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
    trainer = DRCellTrainer(config, inference=inference)

    print("training source (temperature) agent on the full 2-day study ...")
    source_agent, _ = trainer.train(source_train, source_requirement)

    print("building the four target-task strategies ...")
    transfer_agent, _ = transfer_train(
        source_agent, target_train_small, target_requirement, fine_tune_episodes=2, trainer=trainer
    )
    short_agent, _ = trainer.train(target_train_small, target_requirement, episodes=2)

    strategies = {
        "TRANSFER": DRCellPolicy(transfer_agent, name="TRANSFER"),
        "NO-TRANSFER": DRCellPolicy(source_agent, name="NO-TRANSFER"),
        "SHORT-TRAIN": DRCellPolicy(short_agent, name="SHORT-TRAIN"),
        "RANDOM": RandomSelectionPolicy(seed=5),
    }

    task = SensingTask(
        dataset=target_test,
        requirement=target_requirement,
        inference=inference,
        assessor=LeaveOneOutBayesianAssessor(min_observations=3, max_loo_cells=6, history_window=8),
    )
    runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=3, assess_every=2))

    print(f"\nhumidity testing stage under {target_requirement.describe()}:")
    for name, policy in strategies.items():
        result = runner.run([policy], n_cycles=min(20, target_test.n_cycles))[0]
        print(
            f"{name:>12}: {result.mean_selected_per_cycle:.2f} cells/cycle, "
            f"cycles within ε: {result.quality_satisfied_fraction:.0%}"
        )


if __name__ == "__main__":
    main()
