"""The single-matrix ALS kernel: grouped cell half-step, Gauss–Seidel cycles.

The cell half-step's systems depend only on the (fixed) cycle factors, so
rows are bucketed by their observation count, each bucket's observed-column
indices are gathered into one ``(B, count)`` integer array, and the bucket's
grams, right-hand sides and solves all run as single stacked gufunc calls —

    V_b   = cycle_factors[idx]                  # (B, count, rank) gather
    grams = V_bᵀ V_b + λI                        # one batched matmul
    rhs   = V_bᵀ t_b                             # one batched matmul
    U_b   = solve(grams, rhs)                    # one stacked LAPACK call

Stacked-solve slices are independent, so this is the same arithmetic as
solving row by row; the committed golden outputs of the earlier per-row
kernel (``tests/inference/data/als_golden.npz``) pin it bitwise.  The cycle
half-step is the sequential Gauss–Seidel sweep of the paper protocol: the
temporal-smoothness coupling uses the neighbours' *current* values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.inference.backends.base import factor_delta

try:  # pragma: no cover - exercised indirectly on every solve
    # The raw LAPACK gufunc behind np.linalg.solve for 1-D right-hand sides.
    # Calling it directly skips ~10µs of per-call wrapper overhead, which
    # dominates the Gauss–Seidel cycle sweep (tiny rank×rank systems).
    # Bit-for-bit identical to np.linalg.solve; falls back to the public API
    # if the private module moves.
    from numpy.linalg import _umath_linalg as _raw_linalg

    _solve_vector = _raw_linalg.solve1
except Exception:  # pragma: no cover - depends on numpy internals
    _solve_vector = None


def solve_small(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one small dense system, minimising call overhead."""
    if _solve_vector is not None:
        out = _solve_vector(gram, rhs)
        total = out.sum()
        if total != total:  # NaN ⇒ singular system; match np.linalg.solve
            raise np.linalg.LinAlgError("Singular matrix")
        return out
    return np.linalg.solve(gram, rhs)


@dataclass
class _RowBucket:
    """Rows sharing one observation count, with their gathered structure."""

    rows: np.ndarray  # (B,) int row indices
    obs_columns: np.ndarray  # (B, count) int observed-column indices per row
    targets: np.ndarray  # (B, count) observed values per row


def bucket_rows(mask: np.ndarray, normalised: np.ndarray) -> List[_RowBucket]:
    """Group the rows by observation count and gather their index structure.

    Runs once per solve (the observation pattern is constant across sweeps).
    Rows with zero observations are dropped — they keep their prior factor.
    """
    counts = mask.sum(axis=1)
    buckets: List[_RowBucket] = []
    for count in np.unique(counts):
        if count == 0:
            continue
        members = np.flatnonzero(counts == count)
        # np.nonzero is row-major, so reshaping recovers each row's sorted
        # observed-column indices.
        obs_columns = np.nonzero(mask[members])[1].reshape(members.size, int(count))
        targets = normalised[members[:, None], obs_columns]
        buckets.append(_RowBucket(rows=members, obs_columns=obs_columns, targets=targets))
    return buckets


def gauss_seidel_cycle_sweep(
    cell_factors: np.ndarray,
    cycle_factors: np.ndarray,
    ridge: np.ndarray,
    mu: float,
    col_obs,
    col_targets,
    zero_rhs: np.ndarray,
    smooth_gram,
) -> None:
    """One Gauss–Seidel sweep over the cycle factors (the paper protocol).

    The temporal-smoothness coupling uses the neighbours' *current* values,
    so the per-column solves stay sequential.
    """
    n_cycles = cycle_factors.shape[0]
    for j in range(n_cycles):
        has_obs = col_obs[j].size > 0
        u = cell_factors[col_obs[j]]
        gram = u.T @ u + ridge
        rhs_j = u.T @ col_targets[j] if has_obs else zero_rhs
        neighbor_count = 0
        if mu > 0:
            if j > 0:
                if j < n_cycles - 1:
                    neighbor_sum = cycle_factors[j - 1] + cycle_factors[j + 1]
                    neighbor_count = 2
                else:
                    neighbor_sum = cycle_factors[j - 1]
                    neighbor_count = 1
            elif j < n_cycles - 1:
                neighbor_sum = cycle_factors[j + 1]
                neighbor_count = 1
            else:
                neighbor_sum = zero_rhs
            gram = gram + smooth_gram[j]
            rhs_j = rhs_j + mu * neighbor_sum
        if not has_obs and neighbor_count == 0:
            continue
        cycle_factors[j] = solve_small(gram, rhs_j)


def solve(
    normalised: np.ndarray,
    mask: np.ndarray,
    cell_factors: np.ndarray,
    cycle_factors: np.ndarray,
    *,
    regularization: float,
    mu: float,
    iterations: int,
    tolerance: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Run the sweep loop; returns ``(cell_factors, cycle_factors, sweeps_run)``.

    ``normalised`` holds zeros at unobserved entries; ``cell_factors`` /
    ``cycle_factors`` are the ``(n_cells, rank)`` / ``(n_cycles, rank)``
    initialisations, updated in place.
    """
    n_cycles = normalised.shape[1]
    rank = cell_factors.shape[1]
    ridge = regularization * np.eye(rank)

    # The observation pattern is constant across sweeps: hoist the row
    # buckets and the per-column index sets / targets / smoothness grams.
    buckets = bucket_rows(mask, normalised)
    col_obs = [np.flatnonzero(mask[:, j]) for j in range(n_cycles)]
    col_targets = [normalised[idx, j] for j, idx in enumerate(col_obs)]
    zero_rhs = np.zeros(rank)
    smooth_gram = (
        [mu * ((j > 0) + (j < n_cycles - 1)) * np.eye(rank) for j in range(n_cycles)]
        if mu > 0
        else None
    )

    sweeps_run = 0
    for _ in range(iterations):
        previous = (
            (cell_factors.copy(), cycle_factors.copy()) if tolerance > 0 else None
        )
        for bucket in buckets:
            v = cycle_factors[bucket.obs_columns]  # (B, count, rank)
            vt = v.transpose(0, 2, 1)
            grams = vt @ v + ridge
            rhs = (vt @ bucket.targets[..., None])[..., 0]
            cell_factors[bucket.rows] = np.linalg.solve(grams, rhs[..., None])[..., 0]

        # One errstate for the whole sweep keeps the raw solve gufunc from
        # leaking FP warnings on singular systems (the NaN guard in
        # solve_small converts those to LinAlgError).
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            gauss_seidel_cycle_sweep(
                cell_factors,
                cycle_factors,
                ridge,
                mu,
                col_obs,
                col_targets,
                zero_rhs,
                smooth_gram,
            )

        sweeps_run += 1
        if previous is not None and (
            factor_delta(cell_factors, cycle_factors, *previous) < tolerance
        ):
            break
    return cell_factors, cycle_factors, sweeps_run
