"""Failure-injection tests: misbehaving policies and assessors.

The campaign runner sits between user-supplied policies and assessors, so it
must fail loudly (not corrupt results) when a component misbehaves, and keep
its guarantees when a component is merely unhelpful.
"""

import numpy as np
import pytest

from repro.inference.base import InferenceAlgorithm
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.random_policy import RandomSelectionPolicy
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import QualityAssessor


class AlwaysFailAssessor(QualityAssessor):
    """Never satisfied: forces full coverage every cycle."""

    def assess(self, observed_matrix, cycle, requirement, inference):
        return False


class AlwaysPassAssessor(QualityAssessor):
    """Immediately satisfied: the campaign stops at the minimum cell count."""

    def assess(self, observed_matrix, cycle, requirement, inference):
        return True


class RepeatingPolicy(CellSelectionPolicy):
    """Misbehaving policy that keeps returning the same cell."""

    name = "REPEAT"

    def select_cell(self, observed_matrix, cycle, sensed_mask):
        return 0


class OutOfRangePolicy(CellSelectionPolicy):
    """Misbehaving policy that returns an invalid cell index."""

    name = "OUT-OF-RANGE"

    def select_cell(self, observed_matrix, cycle, sensed_mask):
        return sensed_mask.shape[0] + 10


class ExplodingInference(InferenceAlgorithm):
    """Inference that raises, to check errors propagate instead of being swallowed."""

    name = "exploding"

    def _complete(self, matrix, mask):
        raise RuntimeError("inference backend unavailable")


def make_task(dataset, assessor, inference=None):
    return SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=0.5, p=0.9, metric="mae"),
        inference=inference or CompressiveSensingInference(iterations=5, seed=0),
        assessor=assessor,
    )


class TestAssessorBehaviour:
    def test_always_fail_assessor_forces_full_coverage(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, AlwaysFailAssessor())
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=1))
        result = runner.run([RandomSelectionPolicy(seed=0)], n_cycles=2)[0]
        assert all(
            record.n_selected == tiny_temperature_dataset.n_cells for record in result.records
        )
        # Full coverage means zero inference error in every cycle.
        assert np.allclose(result.errors, 0.0)
        assert not any(record.assessed_satisfied for record in result.records)

    def test_always_pass_assessor_stops_at_minimum(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, AlwaysPassAssessor())
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=3, assess_every=1))
        result = runner.run([RandomSelectionPolicy(seed=0)], n_cycles=3)[0]
        assert all(record.n_selected == 3 for record in result.records)
        assert all(record.assessed_satisfied for record in result.records)


class TestMisbehavingPolicies:
    def test_repeating_policy_is_rejected(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, AlwaysFailAssessor())
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=1))
        with pytest.raises(ValueError, match="already sensed"):
            runner.run([RepeatingPolicy()], n_cycles=1)

    def test_out_of_range_policy_is_rejected(self, tiny_temperature_dataset):
        task = make_task(tiny_temperature_dataset, AlwaysPassAssessor())
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=1))
        with pytest.raises(ValueError, match="out of range"):
            runner.run([OutOfRangePolicy()], n_cycles=1)


class TestFailingInference:
    def test_inference_errors_propagate(self, tiny_temperature_dataset):
        task = make_task(
            tiny_temperature_dataset, AlwaysPassAssessor(), inference=ExplodingInference()
        )
        runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=1))
        with pytest.raises(RuntimeError, match="inference backend unavailable"):
            runner.run([RandomSelectionPolicy(seed=0)], n_cycles=1)
