"""Tests for repro.core.tabular (tabular DR-Cell, paper §4.2)."""

import numpy as np
import pytest

from repro.core.config import DRCellConfig
from repro.core.tabular import MAX_TRACTABLE_STATES, TabularDRCell
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import OracleAssessor
from repro.inference.compressive import CompressiveSensingInference


def small_config(**overrides):
    defaults = dict(
        window=2,
        episodes=3,
        exploration_start=0.8,
        exploration_end=0.1,
        exploration_decay_steps=200,
        min_cells_before_check=2,
        history_window=6,
        seed=0,
    )
    defaults.update(overrides)
    return DRCellConfig(**defaults)


class TestBuild:
    def test_build_small_area(self):
        agent = TabularDRCell.build(5, small_config())
        assert agent.n_cells == 5
        assert agent.learner.n_actions == 5

    def test_refuses_intractable_state_space(self):
        # 57 cells x 2 cycles -> 2^114 states, far above the tractable cap.
        with pytest.raises(ValueError, match="intractable"):
            TabularDRCell.build(57, small_config())
        assert MAX_TRACTABLE_STATES < 2**114


class TestTraining:
    def test_training_populates_q_table(self, tiny_temperature_dataset):
        agent = TabularDRCell.build(tiny_temperature_dataset.n_cells, small_config())
        agent.train(
            tiny_temperature_dataset,
            QualityRequirement(epsilon=1.0, p=0.9),
            episodes=2,
        )
        assert agent.learner.n_states_seen > 0
        assert agent.training_info["episodes"] == 2

    def test_selection_avoids_sensed_cells(self, tiny_temperature_dataset):
        agent = TabularDRCell.build(tiny_temperature_dataset.n_cells, small_config())
        observed = np.full((tiny_temperature_dataset.n_cells, 3), np.nan)
        sensed = np.zeros(tiny_temperature_dataset.n_cells, dtype=bool)
        sensed[0] = True
        cell = agent.select_cell(observed, 1, sensed)
        assert cell != 0

    def test_policy_runs_in_campaign(self, tiny_temperature_dataset):
        config = small_config()
        agent = TabularDRCell.build(tiny_temperature_dataset.n_cells, config)
        agent.train(tiny_temperature_dataset, QualityRequirement(epsilon=1.0, p=0.9), episodes=1)
        task = SensingTask(
            dataset=tiny_temperature_dataset,
            requirement=QualityRequirement(epsilon=1.0, p=0.8),
            inference=CompressiveSensingInference(iterations=5, seed=0),
            assessor=OracleAssessor(tiny_temperature_dataset.data),
        )
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=1))
        result = runner.run([agent.policy()], n_cycles=3)[0]
        assert result.n_cycles == 3
        assert result.total_selected >= 3
