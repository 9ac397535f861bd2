"""The plain one-campaign cycle loop of Figure 2, kept as the reference.

:class:`~repro.mcs.campaign.BatchedCampaignRunner` is the one direct
campaign loop.  With a single slot and an inference algorithm that has no
vectorized solver (``complete_batch`` falls back to one ``complete`` per
matrix) it must reproduce this loop bit for bit: the same selections, the
same verdicts, the same errors and the same inferred matrix.  The parity
tests run one campaign here and one through the lockstep runner and compare
them exactly.
"""

from typing import Optional

import numpy as np

from repro.mcs.campaign import CampaignConfig
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.results import CampaignResult, CycleRecord
from repro.mcs.task import SensingTask
from repro.utils.validation import check_positive_int


def run_campaign(
    task: SensingTask,
    config: CampaignConfig,
    policy: CellSelectionPolicy,
    *,
    n_cycles: Optional[int] = None,
) -> CampaignResult:
    """Execute one campaign, one cycle and one submission at a time."""
    dataset = task.dataset
    total_cycles = dataset.n_cycles if n_cycles is None else min(
        check_positive_int(n_cycles, "n_cycles"), dataset.n_cycles
    )
    n_cells = dataset.n_cells
    max_cells = config.max_cells_per_cycle or n_cells
    max_cells = min(max_cells, n_cells)
    min_cells = min(config.min_cells_per_cycle, max_cells)

    ground_truth = dataset.data
    observed = np.full((n_cells, total_cycles), np.nan)
    inferred = np.full((n_cells, total_cycles), np.nan)
    result = CampaignResult(
        policy_name=policy.name,
        requirement=task.requirement,
        n_cells=n_cells,
        metadata={"dataset": dataset.name, "n_cycles": total_cycles},
    )

    for cycle in range(total_cycles):
        policy.begin_cycle(cycle, observed)
        sensed_mask = np.zeros(n_cells, dtype=bool)
        selected_order = []
        assessed_satisfied = False

        while sensed_mask.sum() < max_cells:
            cell = policy.select_cell(observed, cycle, sensed_mask)
            cell = CellSelectionPolicy._validate_selection(cell, sensed_mask)
            sensed_mask[cell] = True
            selected_order.append(cell)
            observed[cell, cycle] = ground_truth[cell, cycle]

            n_selected = int(sensed_mask.sum())
            if n_selected < min_cells:
                continue
            if (n_selected - min_cells) % config.assess_every != 0:
                continue
            if task.assessor.assess(
                observed[:, : cycle + 1], cycle, task.requirement, task.inference
            ):
                assessed_satisfied = True
                break

        true_error, cycle_estimate = _finalize_cycle(
            task, config, observed, ground_truth, cycle, sensed_mask
        )
        inferred[:, cycle] = cycle_estimate
        policy.end_cycle(cycle, observed)
        result.add_record(
            CycleRecord(
                cycle=cycle,
                selected_cells=tuple(selected_order),
                true_error=true_error,
                assessed_satisfied=assessed_satisfied,
            )
        )

    result.inferred_matrix = inferred
    return result


def _finalize_cycle(
    task: SensingTask,
    config: CampaignConfig,
    observed: np.ndarray,
    ground_truth: np.ndarray,
    cycle: int,
    sensed_mask: np.ndarray,
) -> tuple:
    """Infer the unsensed cells of ``cycle`` and measure the true error."""
    start = max(0, cycle + 1 - config.history_window)
    window = observed[:, start : cycle + 1]
    current = window.shape[1] - 1
    if sensed_mask.all():
        estimate = ground_truth[:, cycle].copy()
    else:
        completed = task.inference.complete(window)
        estimate = completed[:, current]
    error = task.requirement.column_error(
        ground_truth[:, cycle], estimate, exclude=sensed_mask
    )
    return float(error), estimate
