"""Tests for the ALS completion kernels.

Two guarantees are pinned here:

* **Bit-exactness** — the grouped single-matrix kernel and the stacked
  ``complete_batch`` kernel reproduce committed golden outputs bit for bit
  (``tests/inference/data/als_golden.npz``).  ``observed`` / ``single`` /
  ``batch_*`` date from before the kernels were split out of
  :class:`CompressiveSensingInference`; the ``missing_*``,
  ``unobserved_row_*`` and ``mu0_*`` keys were generated by the earlier
  per-row kernel (one Python loop over rows in the cell half-step) before it
  was deleted.  Beyond those fixed inputs, :func:`loop_reference` — the
  sweep written as plain per-factor loops — checks the grouped kernel bit
  for bit on random windows, singular systems included.
* **Isolation** — the convergence ``tolerance`` is part of an instance's
  configuration: completion-cache fingerprints and batched-pooling
  equivalence both keep numerically different solvers apart.
"""

import numpy as np
import pytest

from repro.inference.backends import grouped
from repro.inference.backends.base import SolverStats, factor_delta
from repro.inference.backends.grouped import bucket_rows
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs.vector import BatchedSparseMCSVectorEnv
from repro.serve.cache import CachingInference, CompletionCache, inference_fingerprint

from tests.conftest import mask_entries


@pytest.fixture(scope="module")
def golden():
    from pathlib import Path

    return np.load(Path(__file__).parent / "data" / "als_golden.npz")


def make_inference(**kwargs):
    kwargs.setdefault("rank", 3)
    kwargs.setdefault("iterations", 15)
    kwargs.setdefault("seed", 0)
    return CompressiveSensingInference(**kwargs)


class TestGoldenBitExactness:
    """Both kernels are bit-for-bit the committed golden outputs."""

    def test_complete_matches_pre_refactor_golden(self, golden):
        completed = make_inference().complete(golden["observed"])
        assert np.array_equal(completed, golden["single"])

    def test_complete_batch_matches_pre_refactor_golden(self, golden):
        observed = golden["observed"]
        batch = make_inference().complete_batch([observed, observed * 1.5])
        assert np.array_equal(batch[0], golden["batch_first"])
        assert np.array_equal(batch[1], golden["batch_second"])

    def test_zero_tolerance_and_no_sharding_are_the_defaults(self):
        inference = make_inference()
        assert inference.tolerance == 0.0
        assert not hasattr(inference, "shard_rows")


class TestGroupedParity:
    """The grouped kernel reproduces the per-row kernel's golden outputs."""

    @pytest.mark.parametrize("fraction_missing", [0.2, 0.5, 0.8])
    def test_grouped_matches_baseline(self, golden, fraction_missing):
        key = f"missing_m{int(round(fraction_missing * 100))}"
        completed = make_inference().complete(golden[f"{key}_observed"])
        assert np.array_equal(completed, golden[f"{key}_single"])

    def test_grouped_handles_unobserved_rows(self, golden):
        observed = golden["unobserved_row_observed"]
        assert np.isnan(observed[3]).all()  # a fully unobserved cell
        completed = make_inference().complete(observed)
        assert np.array_equal(completed, golden["unobserved_row_single"])

    def test_grouped_without_temporal_smoothness(self, golden):
        completed = make_inference(temporal_weight=0.0).complete(golden["mu0_observed"])
        assert np.array_equal(completed, golden["mu0_single"])

    def test_bucketing_partitions_observed_rows(self, low_rank_matrix, rng):
        observed = mask_entries(low_rank_matrix, 0.5, rng)
        mask = ~np.isnan(observed)
        normalised = np.where(mask, observed, 0.0)
        buckets = bucket_rows(mask, normalised)
        covered = np.concatenate([bucket.rows for bucket in buckets])
        expected = np.flatnonzero(mask.sum(axis=1) > 0)
        assert sorted(covered.tolist()) == sorted(expected.tolist())
        for bucket in buckets:
            # Every member of a bucket has the same observation count, and
            # the gathered targets match the raw matrix entries.
            counts = mask[bucket.rows].sum(axis=1)
            assert (counts == bucket.obs_columns.shape[1]).all()
            gathered = normalised[bucket.rows[:, None], bucket.obs_columns]
            assert np.array_equal(gathered, bucket.targets)




def loop_reference(normalised, mask, U, V, *, regularization, mu, iterations, tolerance):
    """The paper-protocol sweep written as loops: one ``np.linalg.solve`` per factor."""
    n_cycles = mask.shape[1]
    rank = U.shape[1]
    ridge = regularization * np.eye(rank)
    for sweep in range(1, iterations + 1):
        previous = U.copy(), V.copy()
        for i in np.flatnonzero(mask.any(axis=1)):
            v = V[np.flatnonzero(mask[i])]
            U[i] = np.linalg.solve(v.T @ v + ridge, v.T @ normalised[i, mask[i]])
        for j in range(n_cycles):
            rows = np.flatnonzero(mask[:, j])
            u = U[rows]
            gram, rhs = u.T @ u + ridge, u.T @ normalised[rows, j]
            neighbours = [V[k] for k in (j - 1, j + 1) if 0 <= k < n_cycles]
            if mu > 0:
                coupling = sum(neighbours[1:], neighbours[0]) if neighbours else np.zeros(rank)
                gram = gram + mu * len(neighbours) * np.eye(rank)
                rhs = rhs + mu * coupling
            if rows.size or (mu > 0 and neighbours):
                V[j] = np.linalg.solve(gram, rhs)
        if tolerance > 0 and factor_delta(U, V, *previous) < tolerance:
            return U, V, sweep
    return U, V, iterations


class TestLoopReferenceParity:
    """The grouped kernel is bit for bit the loop reference, singular systems included."""

    @staticmethod
    def outcome(kernel, normalised, mask, U, V, **params):
        try:
            return kernel(normalised, mask, U.copy(), V.copy(), **params)
        except np.linalg.LinAlgError:
            return "singular"

    @pytest.mark.parametrize("case", range(40))
    def test_random_windows(self, case):
        rng = np.random.default_rng(case)
        n_cells, n_cycles = int(rng.integers(1, 21)), int(rng.integers(1, 9))
        rank = min(int(rng.integers(1, 4)), n_cells, n_cycles)
        mask = rng.random((n_cells, n_cycles)) < rng.uniform(0.1, 0.9)
        mask[:, rng.integers(n_cycles)] &= case % 3 != 0  # sometimes an unobserved cycle
        normalised = np.where(mask, rng.standard_normal(mask.shape), 0.0)
        U = 0.1 * rng.standard_normal((n_cells, rank))
        V = 0.1 * rng.standard_normal((n_cycles, rank))
        params = dict(
            regularization=(0.1, 0.0)[case % 4 == 1],
            mu=(0.1, 0.0, 0.5)[case % 3],
            iterations=int(rng.integers(1, 9)),
            tolerance=(0.0, 1e-3)[case % 5 == 2],
        )
        expected = self.outcome(loop_reference, normalised, mask, U, V, **params)
        got = self.outcome(grouped.solve, normalised, mask, U, V, **params)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str)
            assert got[2] == expected[2]
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])


class TestSingularSystems:
    """Without ridge or smoothness, a rank-deficient system raises LinAlgError."""

    @staticmethod
    def unregularised():
        return make_inference(regularization=0.0, temporal_weight=0.0)

    def test_singular_row_half_step_raises(self):
        observed = np.random.default_rng(0).standard_normal((12, 8))
        observed[:3, 1:] = np.nan  # three rows with one observation each, rank 3
        with pytest.raises(np.linalg.LinAlgError):
            self.unregularised().complete(observed)

    def test_single_singular_cycle_column_raises(self):
        observed = np.random.default_rng(0).standard_normal((12, 8))
        observed[1:, 7] = np.nan  # every row keeps 7 ≥ rank observations
        with pytest.raises(np.linalg.LinAlgError):
            self.unregularised().complete(observed)


class TestConvergenceEarlyExit:
    def test_disabled_by_default_runs_full_budget(self, golden):
        inference = make_inference(iterations=30)
        inference.complete(golden["observed"])
        assert inference.solver_stats.sweeps_run == 30
        assert inference.solver_stats.sweeps_saved == 0

    def test_tolerance_saves_sweeps(self, golden):
        inference = make_inference(iterations=30, tolerance=1e-2)
        inference.complete(golden["observed"])
        stats = inference.solver_stats
        assert 0 < stats.sweeps_run < 30
        assert stats.sweeps_saved == 30 - stats.sweeps_run

    def test_converged_result_close_to_full_budget(self, golden):
        full = make_inference(iterations=30).complete(golden["observed"])
        early = make_inference(iterations=30, tolerance=1e-2).complete(
            golden["observed"]
        )
        assert np.abs(early - full).max() < 0.2

    def test_tolerance_applies_to_batched_path(self, golden):
        observed = golden["observed"]
        inference = make_inference(iterations=30, tolerance=1e-2)
        inference.complete_batch([observed, observed * 1.5])
        stats = inference.solver_stats
        assert stats.matrices == 2
        assert stats.sweeps_saved > 0

    def test_stats_reset(self, golden):
        inference = make_inference()
        inference.complete(golden["observed"])
        assert inference.solver_stats.solves == 1
        inference.solver_stats.reset()
        assert inference.solver_stats == SolverStats()


class TestToleranceIsolation:
    """The convergence tolerance keeps caches and pooled batches apart."""

    def test_fingerprints_differ_by_tolerance(self):
        exact = make_inference()
        early = make_inference(tolerance=1e-2)
        assert inference_fingerprint(exact) != inference_fingerprint(early)

    def test_fingerprint_ignores_solver_stats(self, golden):
        inference = make_inference()
        before = inference_fingerprint(inference)
        inference.complete(golden["observed"])  # mutates the stats counters
        assert inference_fingerprint(inference) == before

    def test_tolerances_do_not_share_cache_entries(self, golden):
        cache = CompletionCache(capacity=8)
        observed = golden["observed"]
        exact = CachingInference(make_inference(), cache)
        early = CachingInference(make_inference(tolerance=1e-2), cache)
        exact.complete(observed)
        assert cache.misses == 1
        early.complete(observed)
        # Identical ALS hyper-parameters, same matrix — but a different
        # tolerance must miss, not reuse the fixed-budget entry.
        assert cache.misses == 2
        assert cache.hits == 0
        assert len(cache) == 2
        # Same configuration does hit.
        exact.complete(observed)
        assert cache.hits == 1

    def test_pooling_requires_same_tolerance(self):
        a = make_inference()
        b = make_inference(tolerance=1e-2)
        same = make_inference(seed=99)  # different seed only — still pools
        eq = BatchedSparseMCSVectorEnv._equivalent_inference
        assert not eq(a, b)
        assert eq(a, same)
