"""The single-matrix ALS kernel: grouped half-steps, Gauss–Seidel cycles.

A half-step's systems depend only on the other factor matrix, which is fixed
while it runs.  So once per solve the factors being solved are bucketed by
observation count, and every sweep forms each bucket's grams and right-hand
sides with one stacked matmul each, into preallocated buffers —

    F_b   = other_factors[idx]        # (B, count, rank) gather
    grams = F_bᵀ F_b  (+ λI)          # one batched matmul per bucket
    rhs   = F_bᵀ t_b                  # one batched matmul per bucket

— then solves all of a half-step's independent systems in one stacked LAPACK
call.  The cycle half-step with μ > 0 is the sequential Gauss–Seidel sweep
of the paper protocol: the temporal-smoothness coupling uses the
neighbours' *current* values, so its per-column solves stay sequential.

Each stacked slice is computed exactly as the per-row / per-column call it
replaces (same BLAS dispatch, same element-wise order), so the kernel is
bit-for-bit the earlier per-row kernel (``tests/inference/data/als_golden.npz``
pins it).  At the reward path's size (20 × ≤8 windows, rank ≤ 3) the cost is
~2 µs of overhead per numpy call, not FLOPs: this module minimises calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.inference.backends.base import factor_delta

try:  # pragma: no cover - exercised indirectly on every solve
    # The raw LAPACK gufuncs behind np.linalg.solve: ``solve`` for stacked
    # (…, m, k) right-hand sides, ``solve1`` for (…, m) ones.  Calling them
    # directly skips ~10 µs of wrapper per call and lets results land in
    # preallocated buffers; the bits are np.linalg.solve's.  A singular
    # system yields NaNs (the kernel turns those into LinAlgError).
    from numpy.linalg._umath_linalg import solve as _solve, solve1 as _solve1
except Exception:  # pragma: no cover - depends on numpy internals

    def _solve(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        out[...] = np.linalg.solve(a, b)

    def _solve1(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        out[...] = np.linalg.solve(a, b[..., None])[..., 0]


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
    # A stable sort keeps each bucket's rows ascending; np.nonzero is
    # row-major, so each bucket's observed-column indices (and values) are
    # one contiguous, row-sorted run of the flattened arrays.
    order = np.argsort(counts, kind="stable")
    sorted_mask = mask[order]
    obs_columns = np.nonzero(sorted_mask)[1]
    targets = normalised[order][sorted_mask]
    buckets: List[_RowBucket] = []
    first = offset = 0
    for count, group in itertools.groupby(counts[order].tolist()):
        size = len(list(group))
        stop = offset + size * count
        if count:
            gathered = (a[offset:stop].reshape(size, count) for a in (obs_columns, targets))
            buckets.append(_RowBucket(order[first : first + size], *gathered))
        first, offset = first + size, stop
    return buckets


class _HalfStep:
    """One half-step's per-solve plan: the factors it solves and their buckets.

    ``members`` lists the solved factor indices: ``extra`` (unobserved
    factors that still solve; their raw gram and right-hand side stay zero),
    then the buckets'.  ``raw`` / ``rhs`` hold the unregularised ``FᵀF`` and
    ``Fᵀt`` in that order; ``grams`` receives the regularised systems.
    """

    def __init__(self, mask: np.ndarray, normalised: np.ndarray, rank: int, extra=()):
        buckets = bucket_rows(mask, normalised)
        self.members = np.concatenate([np.asarray(extra, int)] + [b.rows for b in buckets])
        size = self.members.size
        self.raw = np.zeros((size, rank, rank))
        self.grams = np.empty_like(self.raw)
        self.rhs = np.zeros((size, rank, 1))
        self.solved = np.empty_like(self.rhs)
        self.parts, start = [], len(extra)
        for b in buckets:
            span = slice(start, start + b.rows.size)
            self.parts.append((b.obs_columns, b.targets[..., None], self.raw[span], self.rhs[span]))
            start = span.stop

    def build(self, other: np.ndarray, ridge: np.ndarray) -> np.ndarray:
        """Form every system against the other factors; returns ``grams``."""
        for obs, targets, raw, rhs in self.parts:
            f = other.take(obs, 0)  # (B, count, rank) gather
            ft = f.mT
            np.matmul(ft, f, out=raw)
            np.matmul(ft, targets, out=rhs)
        return np.add(self.raw, ridge, out=self.grams)

    def solve(self, other: np.ndarray, ridge: np.ndarray, factors: np.ndarray) -> None:
        """Solve every (independent) system in one stacked call, into ``factors``."""
        _solve(self.build(other, ridge), self.rhs, out=self.solved)
        factors[self.members] = self.solved[..., 0]


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
    initialisations, updated in place.  Raises ``np.linalg.LinAlgError`` if
    a sweep meets a singular system.
    """
    n_cycles = normalised.shape[1]
    rank = cell_factors.shape[1]
    ridge = regularization * np.eye(rank)

    # The plan: observed rows; observed columns plus, with μ > 0, unobserved
    # ones that have a neighbour to couple to.
    rows = _HalfStep(mask, normalised, rank)
    unobserved = np.flatnonzero(~mask.any(axis=0)) if mu > 0 and n_cycles > 1 else ()
    cols = _HalfStep(mask.T, normalised.T, rank, extra=unobserved)
    if mu > 0:
        members = cols.members.tolist()
        neighbours = np.array([(j > 0) + (j < n_cycles - 1) for j in members], dtype=float)
        smooth = (mu * neighbours)[:, None, None] * np.eye(rank)
        # Gauss–Seidel order: (gram, rhs, neighbour, second neighbour or
        # None, output) by column; a lone column couples to zero, as the
        # protocol's neighbour sum does.
        sequence = []
        for j, k in sorted((j, k) for k, j in enumerate(members)):
            coupled = [cycle_factors[i] for i in (j - 1, j + 1) if 0 <= i < n_cycles]
            coupled = (coupled + [None]) if coupled else [np.zeros(rank), None]
            sequence.append((cols.grams[k], cols.rhs[k, :, 0], *coupled[:2], cycle_factors[j]))

    sweeps_run = 0
    # One errstate for the whole solve keeps the raw gufuncs from leaking FP
    # warnings on singular systems; the NaN check below reports those.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(iterations):
            previous = (cell_factors.copy(), cycle_factors.copy()) if tolerance > 0 else None

            rows.solve(cycle_factors, ridge, cell_factors)
            if mu > 0:
                np.add(cols.build(cell_factors, ridge), smooth, out=cols.grams)
                for gram, rhs, left, right, out in sequence:
                    coupling = left if right is None else left + right
                    _solve1(gram, rhs + mu * coupling, out=out)
            else:
                cols.solve(cell_factors, ridge, cycle_factors)

            # Each factor is written once per sweep: a singular system's NaNs remain.
            total = cell_factors.sum() + cycle_factors.sum()
            if total != total:
                raise np.linalg.LinAlgError("Singular matrix")

            sweeps_run += 1
            if previous is not None and (
                factor_delta(cell_factors, cycle_factors, *previous) < tolerance
            ):
                break
    return cell_factors, cycle_factors, sweeps_run
