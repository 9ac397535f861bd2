"""Tests for repro.core.online (online DR-Cell, the paper's future-work extension)."""

import numpy as np
import pytest

from repro.core.config import DRCellConfig
from repro.core.drcell import DRCellAgent
from repro.core.online import OnlineDRCellPolicy, build_online_policy
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig
from repro.mcs.environment import RewardModel
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import OracleAssessor
from repro.rl.dqn import DQNConfig


def quick_config(**overrides):
    defaults = dict(
        window=2,
        episodes=1,
        lstm_hidden=8,
        dense_hidden=(8,),
        exploration_start=0.5,
        exploration_end=0.05,
        exploration_decay_steps=100,
        min_cells_before_check=2,
        history_window=4,
        dqn=DQNConfig(
            batch_size=4,
            replay_capacity=300,
            min_replay_size=8,
            target_update_interval=20,
            learn_every=1,
        ),
        seed=0,
    )
    defaults.update(overrides)
    return DRCellConfig(**defaults)


class TestBuildOnlinePolicy:
    def test_builder_defaults(self):
        policy = build_online_policy(6, quick_config())
        assert isinstance(policy, OnlineDRCellPolicy)
        assert policy.agent.n_cells == 6
        assert policy.reward_model.bonus == 6.0

    def test_builder_with_cell_costs(self):
        costs = np.linspace(1.0, 2.0, 6)
        policy = build_online_policy(6, quick_config(), cell_costs=costs)
        assert policy.reward_model.cost_of(5) == pytest.approx(2.0)


class TestSelectionBehaviour:
    def test_never_selects_sensed_cell(self):
        policy = build_online_policy(5, quick_config())
        policy.begin_cycle(0, np.full((5, 3), np.nan))
        observed = np.full((5, 3), np.nan)
        sensed = np.array([True, False, True, False, True])
        for _ in range(10):
            cell = policy.select_cell(observed, 0, sensed)
            assert not sensed[cell]

    def test_records_selections_within_cycle(self):
        policy = build_online_policy(5, quick_config())
        observed = np.full((5, 3), np.nan)
        policy.begin_cycle(0, observed)
        sensed = np.zeros(5, dtype=bool)
        first = policy.select_cell(observed, 0, sensed)
        sensed[first] = True
        policy.select_cell(observed, 0, sensed)
        assert len(policy._cycle_actions) == 2


class TestOnlineLearning:
    def _run_campaign(self, dataset, policy, n_cycles=5):
        task = SensingTask(
            dataset=dataset,
            requirement=QualityRequirement(epsilon=1.0, p=0.9, metric="mae"),
            inference=CompressiveSensingInference(iterations=5, seed=0),
            assessor=OracleAssessor(dataset.data, history_window=6),
        )
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=1))
        return runner.run([policy], n_cycles=n_cycles)[0]

    def test_policy_learns_during_campaign(self, tiny_temperature_dataset):
        policy = build_online_policy(tiny_temperature_dataset.n_cells, quick_config())
        result = self._run_campaign(tiny_temperature_dataset, policy)
        assert result.n_cycles == 5
        assert policy.cycles_seen == 5
        # The learner actually received transitions (one per submission).
        assert policy.transitions_observed == result.total_selected
        # After enough transitions the replay-based learner has taken steps.
        assert np.isfinite(policy.mean_recent_loss) or result.total_selected < 8

    def test_learning_can_be_frozen(self, tiny_temperature_dataset):
        agent = DRCellAgent.build(tiny_temperature_dataset.n_cells, quick_config())
        policy = OnlineDRCellPolicy(agent, learn=False)
        result = self._run_campaign(tiny_temperature_dataset, policy, n_cycles=3)
        assert result.n_cycles == 3
        assert policy.transitions_observed == 0
        assert np.isnan(policy.mean_recent_loss)

    def test_online_policy_with_per_cell_costs(self, tiny_temperature_dataset):
        n = tiny_temperature_dataset.n_cells
        costs = np.ones(n)
        costs[0] = 5.0  # cell 0 is expensive to sense
        policy = build_online_policy(n, quick_config(), cell_costs=costs)
        result = self._run_campaign(tiny_temperature_dataset, policy, n_cycles=4)
        # Cost accounting on the campaign result uses the same vector.
        assert result.total_cost(costs) >= result.total_selected
        assert result.total_cost() == result.total_selected


class TestRewardModelPerCellCosts:
    def test_cost_of_uses_vector(self):
        model = RewardModel(bonus=5.0, cost=1.0, cell_costs=np.array([1.0, 3.0]))
        assert model.cost_of(0) == 1.0
        assert model.cost_of(1) == 3.0
        assert model.reward(True, cell=1) == pytest.approx(2.0)

    def test_cost_of_without_vector_falls_back_to_uniform(self):
        model = RewardModel(bonus=5.0, cost=2.0)
        assert model.cost_of(3) == 2.0

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            RewardModel(bonus=1.0, cell_costs=np.array([[1.0]]))
        with pytest.raises(ValueError):
            RewardModel(bonus=1.0, cell_costs=np.array([1.0, -2.0]))

    def test_out_of_range_cell_rejected(self):
        model = RewardModel(bonus=1.0, cell_costs=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            model.cost_of(7)


class TestCampaignCostAccounting:
    def test_total_cost_validation(self, tiny_temperature_dataset):
        from repro.mcs.results import CampaignResult, CycleRecord

        result = CampaignResult("X", QualityRequirement(epsilon=1.0), n_cells=3)
        result.add_record(CycleRecord(0, (0, 2), 0.1, True))
        assert result.total_cost() == 2.0
        assert result.total_cost(np.array([1.0, 10.0, 2.0])) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            result.total_cost(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            result.total_cost(np.array([1.0, -1.0, 2.0]))


class TestRegistryIntegration:
    """``"online"`` is a first-class policy registry key (PR 5 satellite)."""

    def test_registered_under_online(self):
        from repro.api.registry import POLICIES

        assert POLICIES.get("online") is OnlineDRCellPolicy
        assert POLICIES.metadata("online").get("trains_agent") is True

    def test_builds_through_registry_with_injected_agent(self):
        from repro.api.registry import POLICIES

        agent = DRCellAgent.build(6, quick_config())
        policy = POLICIES.create("online", agent=agent, learn=False)
        assert isinstance(policy, OnlineDRCellPolicy)
        assert policy.agent is agent
        assert policy.learn is False

    def test_session_evaluates_an_online_slot(self):
        from repro.api.session import Session
        from repro.api.specs import (
            DatasetSpec,
            PolicySpec,
            RequirementSpec,
            ScenarioSpec,
            SlotSpec,
            TrainingSpec,
        )

        spec = ScenarioSpec(
            name="online-session",
            seed=0,
            history_window=4,
            training_days=0.5,
            min_cells_per_cycle=2,
            assess_every=2,
            max_test_cycles=2,
            training=TrainingSpec(
                episodes=1,
                drcell={
                    "window": 2,
                    "lstm_hidden": 8,
                    "dense_hidden": [8],
                    "min_cells_before_check": 2,
                    "dqn": {"batch_size": 4, "min_replay_size": 8, "learn_every": 1},
                },
            ),
            slots=(
                SlotSpec(
                    name="adaptive",
                    dataset=DatasetSpec(
                        "sensorscope",
                        {
                            "kind": "temperature",
                            "n_cells": 6,
                            "duration_days": 1.0,
                            "cycle_length_hours": 2.0,
                            "seed": 0,
                        },
                    ),
                    requirement=RequirementSpec(epsilon=1.0, p=0.8),
                    policy=PolicySpec("online"),
                ),
            ),
        )
        session = Session.from_spec(spec)
        session.train()
        evaluation = session.evaluate()
        row = evaluation.row("adaptive")
        assert row.policy == "DR-Cell (online)"
        assert row.n_cycles == 2
