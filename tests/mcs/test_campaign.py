"""Tests for repro.mcs.campaign (the Sparse MCS cycle loop)."""

import numpy as np
import pytest

from repro.inference.compressive import CompressiveSensingInference
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.random_policy import RandomSelectionPolicy
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, OracleAssessor


class FirstKPolicy(CellSelectionPolicy):
    """Deterministic policy: always pick the lowest-index unsensed cell."""

    name = "FIRST-K"

    def __init__(self):
        self.begin_calls = 0
        self.end_calls = 0

    def begin_cycle(self, cycle, observed_matrix):
        self.begin_calls += 1

    def end_cycle(self, cycle, observed_matrix):
        self.end_calls += 1

    def select_cell(self, observed_matrix, cycle, sensed_mask):
        return int(np.flatnonzero(~sensed_mask)[0])


def make_task(dataset, epsilon=1.0, p=0.8, assessor=None):
    return SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=epsilon, p=p, metric=dataset.metric),
        inference=CompressiveSensingInference(iterations=6, seed=0),
        assessor=assessor or LeaveOneOutBayesianAssessor(min_observations=2, max_loo_cells=4),
    )


class TestCampaignConfig:
    def test_invalid_min_cells_raises(self):
        with pytest.raises(ValueError):
            CampaignConfig(min_cells_per_cycle=0)

    def test_max_below_min_raises(self):
        with pytest.raises(ValueError):
            CampaignConfig(min_cells_per_cycle=5, max_cells_per_cycle=3)


class TestCampaignRunner:
    def test_one_record_per_cycle(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset)
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=2))
        result = runner.run([RandomSelectionPolicy(seed=0)], n_cycles=4)[0]
        assert result.n_cycles == 4
        assert all(record.n_selected >= 1 for record in result.records)

    def test_policy_hooks_called_once_per_cycle(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset)
        policy = FirstKPolicy()
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=2))
        runner.run([policy], n_cycles=3)
        assert policy.begin_calls == 3
        assert policy.end_calls == 3

    def test_no_cell_selected_twice_in_a_cycle(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset)
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=2))
        result = runner.run([RandomSelectionPolicy(seed=1)], n_cycles=4)[0]
        for record in result.records:
            assert len(record.selected_cells) == len(set(record.selected_cells))

    def test_max_cells_per_cycle_respected(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, epsilon=1e-9, p=0.99)
        config = CampaignConfig(min_cells_per_cycle=2, max_cells_per_cycle=3, assess_every=1)
        result = BatchedCampaignRunner(task, config).run(
            [RandomSelectionPolicy(seed=0)], n_cycles=3
        )[0]
        assert all(record.n_selected <= 3 for record in result.records)

    def test_min_cells_per_cycle_respected(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, epsilon=100.0, p=0.1)
        config = CampaignConfig(min_cells_per_cycle=4, assess_every=1)
        result = BatchedCampaignRunner(task, config).run(
            [RandomSelectionPolicy(seed=0)], n_cycles=3
        )[0]
        assert all(record.n_selected >= 4 for record in result.records)

    def test_loose_requirement_selects_fewer_cells_than_tight(self, tiny_temperature_dataset):
        oracle = OracleAssessor(tiny_temperature_dataset.data)
        loose = make_task(tiny_temperature_dataset, epsilon=2.5, assessor=oracle)
        tight = make_task(tiny_temperature_dataset, epsilon=0.05, assessor=oracle)
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=1)
        loose_result = BatchedCampaignRunner(loose, config).run(
            [RandomSelectionPolicy(seed=0)], n_cycles=4
        )[0]
        tight_result = BatchedCampaignRunner(tight, config).run(
            [RandomSelectionPolicy(seed=0)], n_cycles=4
        )[0]
        assert loose_result.total_selected <= tight_result.total_selected

    def test_inferred_matrix_is_complete(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset)
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=2))
        result = runner.run([RandomSelectionPolicy(seed=0)], n_cycles=3)[0]
        assert result.inferred_matrix.shape == (tiny_temperature_dataset.n_cells, 3)
        assert not np.isnan(result.inferred_matrix).any()

    def test_oracle_assessor_guarantees_true_quality(self, tiny_temperature_dataset):
        # With the oracle assessor the recorded true error of every
        # assessed-satisfied cycle must be within the bound.
        oracle = OracleAssessor(tiny_temperature_dataset.data)
        task = make_task(tiny_temperature_dataset, epsilon=1.0, assessor=oracle)
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=1)
        result = BatchedCampaignRunner(task, config).run(
            [RandomSelectionPolicy(seed=0)], n_cycles=4
        )[0]
        for record in result.records:
            if record.assessed_satisfied:
                assert record.true_error <= 1.0 + 1e-9

    def test_n_cycles_larger_than_dataset_is_clamped(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset)
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=3))
        result = runner.run([RandomSelectionPolicy(seed=0)], n_cycles=10_000)[0]
        assert result.n_cycles == tiny_temperature_dataset.n_cycles

    def test_fully_sensed_cycle_has_zero_error(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, epsilon=1e-12, p=0.99)
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=1)
        result = BatchedCampaignRunner(task, config).run(
            [RandomSelectionPolicy(seed=0)], n_cycles=2
        )[0]
        for record in result.records:
            if record.n_selected == tiny_temperature_dataset.n_cells:
                assert record.true_error == 0.0

    def test_metadata_recorded(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset)
        result = BatchedCampaignRunner(task).run(
            [RandomSelectionPolicy(seed=0)], n_cycles=2
        )[0]
        assert result.metadata["dataset"] == tiny_temperature_dataset.name
        assert result.metadata["n_cycles"] == 2
