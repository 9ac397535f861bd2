"""The ALS kernels behind :class:`~repro.inference.compressive.CompressiveSensingInference`.

* :func:`repro.inference.backends.grouped.solve` — the single-matrix
  paper-protocol sweep (factors bucketed by observation count once per
  solve, one stacked gufunc solve per half-step; sequential Gauss–Seidel
  cycle half-step).
* :func:`repro.inference.backends.base.solve_stacked` — the Jacobi batched
  sweep of ``complete_batch``.
* :class:`~repro.inference.backends.base.SolverStats` — the solver's
  telemetry counters.
"""

from __future__ import annotations

from repro.inference.backends.base import SolverStats

__all__ = ["SolverStats"]
