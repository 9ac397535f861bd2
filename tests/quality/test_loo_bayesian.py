"""Tests for repro.quality.loo_bayesian."""

import numpy as np
import pytest
from scipy import stats

from repro.inference.compressive import CompressiveSensingInference
from repro.inference.interpolation import SpatialMeanInference
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, OracleAssessor


def smooth_matrix(n_cells=10, n_cycles=8, noise=0.01, seed=0):
    """A very smooth (easy to infer) cells × cycles matrix."""
    rng = np.random.default_rng(seed)
    base = np.linspace(0, 1, n_cells)[:, None] + np.linspace(0, 0.5, n_cycles)[None, :]
    return base + noise * rng.normal(size=(n_cells, n_cycles))


def observe(matrix, cycle, sensed_cells):
    """Full history observed, current cycle only at ``sensed_cells``."""
    observed = matrix.copy()
    observed[:, cycle:] = np.nan
    observed = observed[:, : cycle + 1]
    observed[sensed_cells, cycle] = matrix[sensed_cells, cycle]
    return observed


class TestLOOBayesianAssessor:
    def test_too_few_observations_never_satisfied(self):
        matrix = smooth_matrix()
        observed = observe(matrix, 4, [0, 1])
        assessor = LeaveOneOutBayesianAssessor(min_observations=3)
        requirement = QualityRequirement(epsilon=100.0, p=0.5)
        assert not assessor.assess(observed, 4, requirement, SpatialMeanInference())

    def test_fully_sensed_cycle_is_satisfied(self):
        matrix = smooth_matrix()
        observed = observe(matrix, 4, list(range(matrix.shape[0])))
        assessor = LeaveOneOutBayesianAssessor()
        requirement = QualityRequirement(epsilon=1e-6, p=0.99)
        assert assessor.assess(observed, 4, requirement, SpatialMeanInference())

    def test_easy_data_with_loose_bound_is_satisfied(self):
        matrix = smooth_matrix(noise=0.001)
        observed = observe(matrix, 5, [0, 2, 4, 6, 8])
        assessor = LeaveOneOutBayesianAssessor(min_observations=3)
        requirement = QualityRequirement(epsilon=5.0, p=0.9)
        assert assessor.assess(
            observed, 5, requirement, CompressiveSensingInference(iterations=8, seed=0)
        )

    def test_tight_bound_not_satisfied_on_noisy_data(self):
        rng = np.random.default_rng(1)
        matrix = 10.0 * rng.normal(size=(10, 8))
        observed = observe(matrix, 5, [0, 2, 4, 6])
        assessor = LeaveOneOutBayesianAssessor(min_observations=3)
        requirement = QualityRequirement(epsilon=1e-4, p=0.9)
        assert not assessor.assess(observed, 5, requirement, SpatialMeanInference())

    def test_probability_monotone_in_epsilon(self):
        matrix = smooth_matrix(noise=0.1)
        observed = observe(matrix, 5, [0, 2, 4, 6, 8])
        assessor = LeaveOneOutBayesianAssessor(min_observations=3)
        inference = SpatialMeanInference()
        loose = assessor.probability_error_below(
            observed, 5, QualityRequirement(epsilon=2.0, p=0.9), inference
        )
        tight = assessor.probability_error_below(
            observed, 5, QualityRequirement(epsilon=0.01, p=0.9), inference
        )
        assert loose >= tight

    def test_probability_between_zero_and_one(self):
        matrix = smooth_matrix(noise=0.3, seed=2)
        observed = observe(matrix, 4, [1, 3, 5, 7])
        assessor = LeaveOneOutBayesianAssessor(min_observations=3)
        probability = assessor.probability_error_below(
            observed, 4, QualityRequirement(epsilon=0.5, p=0.9), SpatialMeanInference()
        )
        assert 0.0 <= probability <= 1.0

    def test_classification_metric_uses_beta_posterior(self):
        matrix = smooth_matrix(noise=0.01) * 10.0 + 60.0
        observed = observe(matrix, 4, [0, 2, 4, 6, 8])
        assessor = LeaveOneOutBayesianAssessor(min_observations=3)
        requirement = QualityRequirement(epsilon=0.5, p=0.5, metric="classification")
        probability = assessor.probability_error_below(
            observed, 4, requirement, SpatialMeanInference()
        )
        assert 0.0 <= probability <= 1.0

    def test_out_of_range_cycle_raises(self):
        assessor = LeaveOneOutBayesianAssessor()
        with pytest.raises(IndexError):
            assessor.assess(
                np.zeros((3, 3)), 10, QualityRequirement(epsilon=1.0), SpatialMeanInference()
            )

    def test_max_loo_cells_caps_work(self):
        matrix = smooth_matrix(n_cells=20)
        observed = observe(matrix, 5, list(range(15)))
        assessor = LeaveOneOutBayesianAssessor(min_observations=3, max_loo_cells=4)
        probability = assessor.probability_error_below(
            observed, 5, QualityRequirement(epsilon=1.0, p=0.9), SpatialMeanInference()
        )
        assert 0.0 <= probability <= 1.0



class TestPosteriorsMatchFrozenDistributions:
    """The posteriors equal the frozen scipy distributions exactly, not approximately."""

    N_UNSENSED = (1, 7, 19)

    @pytest.mark.parametrize("n_unsensed", N_UNSENSED)
    @pytest.mark.parametrize("n_samples", [2, 3, 12])
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_continuous_posterior(self, n_unsensed, n_samples, epsilon):
        rng = np.random.default_rng(n_samples)
        requirement = QualityRequirement(epsilon=epsilon, p=0.9)
        for _ in range(5):
            errors = np.abs(rng.normal(0.4, 0.3, size=n_samples))
            std = errors.std(ddof=1)
            standard_error = std / np.sqrt(n_unsensed) + std / np.sqrt(n_samples)
            t_stat = (epsilon - errors.mean()) / standard_error
            expected = float(stats.t(n_samples - 1).cdf(t_stat))
            posterior = LeaveOneOutBayesianAssessor._continuous_posterior(
                errors, requirement, n_unsensed
            )
            assert posterior == expected

    @pytest.mark.parametrize("n_unsensed", N_UNSENSED)
    @pytest.mark.parametrize("n_samples,misses", [(3, 0), (3, 1), (6, 3), (12, 0), (12, 5)])
    @pytest.mark.parametrize("epsilon", [0.0, 0.15, 0.5])
    def test_classification_posterior(self, n_unsensed, n_samples, misses, epsilon):
        requirement = QualityRequirement(epsilon=epsilon, p=0.9, metric="classification")
        true_values = np.full(n_samples, 10.0)  # all in the lowest category
        predicted = true_values.copy()
        predicted[:misses] = 400.0  # the highest category
        allowed = int(np.floor(epsilon * n_unsensed))
        expected = float(
            stats.betabinom(n_unsensed, 0.5 + misses, 0.5 + n_samples - misses).cdf(allowed)
        )
        posterior = LeaveOneOutBayesianAssessor._classification_posterior(
            true_values, predicted, requirement, n_unsensed
        )
        assert posterior == expected


class TestOracleAssessor:
    def test_exact_error_used(self):
        matrix = smooth_matrix(noise=0.0)
        oracle = OracleAssessor(matrix)
        observed = observe(matrix, 4, [0, 5])
        requirement = QualityRequirement(epsilon=10.0, p=0.9)
        error = oracle.cycle_error(observed, 4, requirement, SpatialMeanInference())
        assert np.isfinite(error)
        assert oracle.assess(observed, 4, requirement, SpatialMeanInference())

    def test_no_observations_gives_infinite_error(self):
        matrix = smooth_matrix()
        oracle = OracleAssessor(matrix)
        observed = np.full((matrix.shape[0], 5), np.nan)
        error = oracle.cycle_error(
            observed, 4, QualityRequirement(epsilon=1.0), SpatialMeanInference()
        )
        assert error == float("inf")

    def test_fully_observed_history_is_zero_error(self):
        matrix = smooth_matrix()
        oracle = OracleAssessor(matrix)
        observed = matrix[:, :5].copy()
        error = oracle.cycle_error(
            observed, 4, QualityRequirement(epsilon=1.0), SpatialMeanInference()
        )
        assert error == 0.0

    def test_cell_count_mismatch_raises(self):
        oracle = OracleAssessor(smooth_matrix(n_cells=5))
        with pytest.raises(ValueError):
            oracle.cycle_error(
                np.zeros((7, 3)), 2, QualityRequirement(epsilon=1.0), SpatialMeanInference()
            )

    def test_tight_bound_fails_on_sparse_noisy_data(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(scale=5.0, size=(10, 8))
        oracle = OracleAssessor(matrix)
        observed = observe(matrix, 5, [0])
        requirement = QualityRequirement(epsilon=1e-6, p=0.9)
        assert not oracle.assess(observed, 5, requirement, SpatialMeanInference())


class TestRngNormalisation:
    """Regression: the constructor used `rng or default_rng(0)`, which kept
    bare truthy ints (crashing at first use) and special-cased falsy inputs
    by truthiness instead of by `is None`.  The rng-discipline analysis rule
    now bans that pattern; these tests pin the corrected semantics."""

    def sparse_assessment(self, assessor):
        """Force the subsampling path that actually draws from the rng."""
        matrix = smooth_matrix()
        observed = observe(matrix, 4, list(range(matrix.shape[0])))
        return assessor.probability_error_below(
            observed, 4, QualityRequirement(epsilon=0.5, p=0.9), SpatialMeanInference()
        )

    def test_default_stream_is_seed_zero(self):
        assessor = LeaveOneOutBayesianAssessor()
        assert isinstance(assessor._rng, np.random.Generator)
        assert (
            assessor._rng.bit_generator.state
            == np.random.default_rng(0).bit_generator.state
        )

    def test_int_seed_becomes_a_generator(self):
        # Previously `7 or default_rng(0)` stored the bare int 7, which
        # crashed with AttributeError at the first `.choice` draw.
        assessor = LeaveOneOutBayesianAssessor(max_loo_cells=2, rng=7)
        assert isinstance(assessor._rng, np.random.Generator)
        assert (
            assessor._rng.bit_generator.state
            == np.random.default_rng(7).bit_generator.state
        )
        probability = self.sparse_assessment(assessor)
        assert 0.0 <= probability <= 1.0

    def test_seed_zero_matches_default(self):
        seeded = LeaveOneOutBayesianAssessor(rng=0)
        default = LeaveOneOutBayesianAssessor()
        assert (
            seeded._rng.bit_generator.state == default._rng.bit_generator.state
        )

    def test_generator_is_used_as_is(self):
        generator = np.random.default_rng(123)
        assessor = LeaveOneOutBayesianAssessor(rng=generator)
        assert assessor._rng is generator

    def test_same_seed_same_assessment(self):
        first = self.sparse_assessment(
            LeaveOneOutBayesianAssessor(max_loo_cells=2, rng=11)
        )
        second = self.sparse_assessment(
            LeaveOneOutBayesianAssessor(max_loo_cells=2, rng=11)
        )
        assert first == second
