"""Solver telemetry and the stacked Jacobi ALS sweep behind ``complete_batch``.

The algorithm layer (normalisation, initialisation, width bucketing,
post-conditions) lives in :mod:`repro.inference.compressive`; the sweep
loops — the hot kernels — live here and in
:mod:`repro.inference.backends.grouped`:

* :func:`repro.inference.backends.grouped.solve` runs the single-matrix
  paper-protocol sweep (grouped cell half-step, Gauss–Seidel cycle
  half-step) that :meth:`InferenceAlgorithm.complete` bottoms out in.
* :func:`solve_stacked` runs the Jacobi batched sweep of
  ``complete_batch`` over a ``(K, n_cells, n_cycles)`` stack.

All quantities are in the **normalised domain**: the algorithm layer centres
and scales the data before calling a kernel, so the ridge penalty — and the
convergence ``tolerance`` — are scale-free.  Kernels return the final
factors plus the number of sweeps actually run; the algorithm layer turns
the difference against the sweep budget into :class:`SolverStats`
telemetry.  A ``tolerance`` of zero (the default) disables the convergence
early-exit entirely, which keeps the fixed-budget protocol bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class SolverStats:
    """Mutable per-instance telemetry of the ALS solver.

    Attributes
    ----------
    solves:
        Kernel invocations (one per ``complete`` call, one per stacked
        ``complete_batch`` group).
    matrices:
        Matrices completed (a stacked solve of K slots counts K).
    sweeps_run:
        ALS sweeps actually executed.
    sweeps_saved:
        Sweeps skipped by the convergence early-exit (budget − run).

    The object is telemetry only — it never changes what the solver
    computes — so cache fingerprints and pooling-equivalence checks skip it.
    """

    solves: int = 0
    matrices: int = 0
    sweeps_run: int = 0
    sweeps_saved: int = 0

    def record(self, *, matrices: int, sweeps_run: int, budget: int) -> None:
        self.solves += 1
        self.matrices += matrices
        self.sweeps_run += sweeps_run
        self.sweeps_saved += max(0, budget - sweeps_run)

    def reset(self) -> None:
        self.solves = 0
        self.matrices = 0
        self.sweeps_run = 0
        self.sweeps_saved = 0

    def write_to(self, registry) -> None:
        """Write these counters into ``registry`` as ``repro_als_*`` totals."""
        registry.counter("repro_als_solves_total", "ALS kernel solve calls").set_total(
            self.solves
        )
        registry.counter("repro_als_matrices_total", "Matrices completed").set_total(
            self.matrices
        )
        registry.counter("repro_als_sweeps_run_total", "ALS sweeps executed").set_total(
            self.sweeps_run
        )
        registry.counter(
            "repro_als_sweeps_saved_total",
            "Budgeted sweeps skipped by convergence early-exit",
        ).set_total(self.sweeps_saved)


def factor_delta(
    U: np.ndarray, V: np.ndarray, U_prev: np.ndarray, V_prev: np.ndarray
) -> float:
    """RMS change of the concatenated factors between two sweeps.

    Computed in the normalised data domain, so a fixed tolerance means the
    same thing across datasets of different magnitudes.
    """
    squared = float(((U - U_prev) ** 2).sum() + ((V - V_prev) ** 2).sum())
    return float(np.sqrt(squared / (U.size + V.size)))


def solve_stacked(
    normalised: np.ndarray,
    maskf: np.ndarray,
    U: np.ndarray,
    V: np.ndarray,
    *,
    regularization: float,
    mu: float,
    iterations: int,
    tolerance: float,
    row_has_obs: np.ndarray,
    col_update: np.ndarray,
    smooth: np.ndarray,
    left_gate: Optional[np.ndarray] = None,
    right_gate: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Run the Jacobi batched sweep over a stack; returns ``(U, V, sweeps_run)``.

    ``normalised`` / ``maskf`` are ``(K, n_cells, n_cycles)`` (zeros and
    0.0 where unobserved); ``U`` / ``V`` are the ``(K, n_cells, rank)`` /
    ``(K, n_cycles, rank)`` initial factors, updated in place.  The gating
    arrays encode the width-bucketing seam of ``complete_batch``:
    ``row_has_obs`` ``(K, n_cells, 1)`` / ``col_update`` ``(K, n_cycles, 1)``
    mark which factors update at all (the rest keep their prior value
    through an identity system), ``smooth`` is the precomputed per-column
    temporal-smoothness gram contribution, and ``left_gate`` /
    ``right_gate`` ``(K, n_cycles)`` (present only for NaN-padded
    mixed-width stacks) restrict the neighbour coupling to each slot's true
    columns.
    """
    rank = U.shape[2]
    ridge = regularization * np.eye(rank)
    eye = np.eye(rank)
    sweeps_run = 0
    for _ in range(iterations):
        previous = (U.copy(), V.copy()) if tolerance > 0 else None

        # Cell half-step: gram_i = Σ_j m_ij V_j V_jᵀ, batched over (K, i).
        # Rows with no observation keep their prior factor via an identity
        # system, so the stacked solve cannot hit a singular slot.
        grams = np.einsum("kij,kjr,kjs->kirs", maskf, V, V) + ridge
        grams = np.where(row_has_obs[..., None], grams, eye)
        rhs = normalised @ V
        solved = np.linalg.solve(grams, rhs[..., None])[..., 0]
        U = np.where(row_has_obs, solved, U)

        # Cycle half-step (Jacobi): neighbours come from the previous
        # sweep's V, so all columns solve in one stacked call.
        grams = np.einsum("kij,kir,kis->kjrs", maskf, U, U) + ridge
        rhs = np.einsum("kij,kir->kjr", normalised, U)
        if mu > 0:
            neighbor_sum = np.zeros_like(V)
            if left_gate is None:
                neighbor_sum[:, :-1] += V[:, 1:]
                neighbor_sum[:, 1:] += V[:, :-1]
            else:
                neighbor_sum[:, :-1] += V[:, 1:] * right_gate[:, :-1, None]
                neighbor_sum[:, 1:] += V[:, :-1] * left_gate[:, 1:, None]
            grams = grams + smooth
            rhs = rhs + mu * neighbor_sum
        grams = np.where(col_update[..., None], grams, eye)
        solved = np.linalg.solve(grams, rhs[..., None])[..., 0]
        V = np.where(col_update, solved, V)

        sweeps_run += 1
        if previous is not None and factor_delta(U, V, *previous) < tolerance:
            break
    return U, V, sweeps_run
