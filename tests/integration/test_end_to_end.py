"""Integration tests: the full train-then-evaluate pipeline on tiny data.

These exercise the public API end to end the way the examples and the
experiment harness do: generate data, train DR-Cell on the preliminary-study
split, run campaigns for DR-Cell and the baselines on the testing split, and
check the bookkeeping is consistent.
"""

import numpy as np
import pytest

from repro import (
    BatchedCampaignRunner,
    CampaignConfig,
    DRCellConfig,
    DRCellTrainer,
    QBCSelectionPolicy,
    QualityRequirement,
    RandomSelectionPolicy,
    SensingTask,
    generate_sensorscope,
    quick_campaign,
    transfer_train,
)
from repro.core.drcell import DRCellPolicy
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, OracleAssessor
from repro.rl.dqn import DQNConfig


@pytest.fixture(scope="module")
def pipeline():
    """Train a small DR-Cell agent and prepare the test-stage task."""
    dataset = generate_sensorscope(
        "temperature", n_cells=10, duration_days=2.0, cycle_length_hours=2.0, seed=11
    )
    train_set, test_set = dataset.train_test_split(training_days=1.0)
    requirement = QualityRequirement(epsilon=0.8, p=0.9, metric="mae")
    config = DRCellConfig(
        window=2,
        episodes=2,
        lstm_hidden=12,
        dense_hidden=(12,),
        exploration_decay_steps=200,
        min_cells_before_check=2,
        history_window=6,
        dqn=DQNConfig(
            batch_size=8,
            replay_capacity=500,
            min_replay_size=16,
            target_update_interval=20,
            learn_every=2,
        ),
        seed=0,
    )
    inference = CompressiveSensingInference(iterations=6, seed=0)
    trainer = DRCellTrainer(config, inference=inference)
    agent, report = trainer.train(train_set, requirement)
    task = SensingTask(
        dataset=test_set,
        requirement=requirement,
        inference=inference,
        assessor=LeaveOneOutBayesianAssessor(min_observations=2, max_loo_cells=4, history_window=6),
    )
    return {
        "dataset": dataset,
        "train": train_set,
        "test": test_set,
        "task": task,
        "agent": agent,
        "report": report,
        "config": config,
        "trainer": trainer,
        "requirement": requirement,
    }


class TestQuickCampaign:
    def test_quick_campaign_runs(self):
        result = quick_campaign(n_cells=8, seed=0)
        assert result.n_cycles > 0
        assert result.mean_selected_per_cycle >= 1.0


class TestTrainingPipeline:
    def test_report_consistent_with_agent(self, pipeline):
        report = pipeline["report"]
        agent = pipeline["agent"]
        assert report.total_steps == agent.agent.total_steps
        assert report.episodes == 2
        assert len(report.episode_rewards) == 2

    def test_agent_matches_dataset_dimensions(self, pipeline):
        assert pipeline["agent"].n_cells == pipeline["dataset"].n_cells


class TestCampaignComparison:
    @pytest.fixture(scope="class")
    def outcomes(self, pipeline):
        runner = BatchedCampaignRunner(
            pipeline["task"], CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)
        )
        n_cycles = 6
        return {
            "DR-Cell": runner.run([DRCellPolicy(pipeline["agent"])], n_cycles=n_cycles)[0],
            "RANDOM": runner.run([RandomSelectionPolicy(seed=1)], n_cycles=n_cycles)[0],
            "QBC": runner.run(
                [QBCSelectionPolicy(coordinates=pipeline["test"].coordinates, seed=2, history_window=6)],
                n_cycles=n_cycles,
            )[0],
        }

    def test_every_policy_produces_full_campaign(self, outcomes):
        for name, result in outcomes.items():
            assert result.n_cycles == 6, name
            assert result.total_selected >= 6
            assert not np.isnan(result.inferred_matrix).any()

    def test_selection_matrices_are_binary_and_consistent(self, outcomes):
        for result in outcomes.values():
            matrix = result.selection_matrix()
            assert set(np.unique(matrix)).issubset({0, 1})
            assert matrix.sum() == result.total_selected

    def test_errors_are_recorded_for_every_cycle(self, outcomes):
        for result in outcomes.values():
            assert len(result.errors) == result.n_cycles
            assert np.all(result.errors[~np.isnan(result.errors)] >= 0.0)

    def test_policies_do_not_exceed_cell_count(self, outcomes, pipeline):
        n_cells = pipeline["test"].n_cells
        for result in outcomes.values():
            assert result.selected_per_cycle.max() <= n_cells


class TestOracleCampaignQuality:
    def test_oracle_assessed_campaign_meets_bound_each_cycle(self, pipeline):
        # With the oracle assessor (training-style quality check), every
        # assessed-satisfied cycle must truly satisfy the error bound.
        test_set = pipeline["test"]
        task = SensingTask(
            dataset=test_set,
            requirement=pipeline["requirement"],
            inference=CompressiveSensingInference(iterations=6, seed=0),
            assessor=OracleAssessor(test_set.data, history_window=6),
        )
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=1))
        result = runner.run([RandomSelectionPolicy(seed=3)], n_cycles=5)[0]
        for record in result.records:
            if record.assessed_satisfied:
                assert record.true_error <= pipeline["requirement"].epsilon + 1e-9


class TestTransferPipeline:
    def test_transfer_to_humidity_runs_end_to_end(self, pipeline):
        humidity = generate_sensorscope(
            "humidity", n_cells=10, duration_days=2.0, cycle_length_hours=2.0, seed=11
        )
        target_train = humidity.slice_cycles(0, 4)
        target_requirement = QualityRequirement(epsilon=3.0, p=0.9, metric="mae")
        agent, report = transfer_train(
            pipeline["agent"],
            target_train,
            target_requirement,
            fine_tune_episodes=1,
            trainer=pipeline["trainer"],
        )
        assert agent.training_info["strategy"] == "TRANSFER"
        assert report.episodes == 1
        # The transferred agent can drive a campaign on the humidity task.
        task = SensingTask(
            dataset=humidity.slice_cycles(4, 10),
            requirement=target_requirement,
            inference=CompressiveSensingInference(iterations=6, seed=0),
            assessor=LeaveOneOutBayesianAssessor(min_observations=2, max_loo_cells=4),
        )
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=2))
        result = runner.run([DRCellPolicy(agent, name="TRANSFER")], n_cycles=3)[0]
        assert result.n_cycles == 3
