"""The Sparse MCS campaign runner: the cycle loop of Figure 2.

For every sensing cycle the runner asks the selection policy for cells one
by one, reveals their ground-truth values ("a participant submits data"),
and after each submission asks the quality assessor whether the cycle now
satisfies the (ε, p)-quality requirement.  When it does (or when every cell
has been sensed) the remaining cells are inferred and the campaign moves to
the next cycle.  The true per-cycle inference error is recorded against the
ground truth so the evaluation can verify the quality guarantee was really
met.

:class:`BatchedCampaignRunner` is the one direct implementation of that
loop.  It steps P campaigns in lockstep; a single campaign is its P=1 case,
``BatchedCampaignRunner(task, config).run([policy])[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.inference.backends import SolverStats
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.results import CampaignResult, CycleRecord
from repro.mcs.task import SensingTask
from repro.mcs.vector import BatchedSparseMCSVectorEnv
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

logger = get_logger(__name__)


def _same_attributes(a, b, *, skip: frozenset = frozenset()) -> bool:
    """Attribute-wise equality of two same-type component instances.

    RNG state (``numpy.random.Generator`` attributes) and
    :class:`~repro.inference.backends.SolverStats` telemetry are deliberately
    ignored — neither changes *what* a component computes (stats counters
    merely diverge as instances run); arrays compare by value; everything
    else by ``==`` (objects without a value-based ``__eq__``, e.g. committee
    containers, therefore only match themselves, which keeps the comparison
    conservative).
    """
    state_a, state_b = vars(a), vars(b)
    if set(state_a) != set(state_b):
        return False
    for key, value_a in state_a.items():
        if key in skip:
            continue
        value_b = state_b[key]
        if isinstance(value_a, (np.random.Generator, SolverStats)) or isinstance(
            value_b, (np.random.Generator, SolverStats)
        ):
            continue
        if isinstance(value_a, np.ndarray) or isinstance(value_b, np.ndarray):
            if not (
                isinstance(value_a, np.ndarray)
                and isinstance(value_b, np.ndarray)
                and value_a.shape == value_b.shape
                and np.array_equal(value_a, value_b)
            ):
                return False
        elif value_a != value_b:
            return False
    return True


def _equivalent_inference(a, b) -> bool:
    """True when two inference algorithms are interchangeable for pooling.

    Starts from the :meth:`BatchedSparseMCSVectorEnv._equivalent_inference`
    notion (same type, same ALS solver hyper-parameters, initialisation seed
    ignored — the batched solver uses one initialisation anyway) and
    additionally requires every *other* configuration attribute to match:
    the vector-env check alone would treat e.g. ``KNNInference(k=2)`` and
    ``KNNInference(k=7)`` as interchangeable because neither carries the ALS
    parameter names.
    """
    if a is b:
        return True
    if not BatchedSparseMCSVectorEnv._equivalent_inference(a, b):
        return False
    skip = frozenset(("rank", "regularization", "temporal_weight", "iterations", "_init_seed"))
    return _same_attributes(a, b, skip=skip)


def _equivalent_assessor(a, b) -> bool:
    """True when two assessors are interchangeable for a pooled assessment.

    Mirrors :func:`_equivalent_inference` on the assessor side: distinct
    instances of the same assessor class with equal configuration (and, for
    oracle assessors, equal ground truth) compute the same quantity, so
    lockstep slots carrying them can share one ``assess_many`` call.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    return _same_attributes(a, b)


def _group_by_equivalence(items, equivalent) -> List[List]:
    """Partition ``items`` into groups whose members are pairwise ``equivalent``.

    Equivalence is checked against each group's first member (the relation is
    transitive for the attribute-equality notions used here), preserving
    first-seen order so the pooled calls consume shared random streams in a
    deterministic order.
    """
    groups: List[List] = []
    for item in items:
        for group in groups:
            if equivalent(group[0], item):
                group.append(item)
                break
        else:
            groups.append([item])
    return groups


def _warn_on_window_mismatch(task: SensingTask, config: "CampaignConfig") -> None:
    """Warn when the campaign and the assessor window history differently.

    The campaign hands the assessor the full ``observed[:, :cycle+1]`` matrix
    and each side then windows it independently: the assessor with its own
    ``history_window``, the campaign's final-error computation with
    ``config.history_window``.  When the two disagree, the assessed error and
    the recorded true error are computed over different histories, which can
    silently bias the (ε, p) evaluation — surface it loudly.
    """
    assessor_window = getattr(task.assessor, "history_window", None)
    if assessor_window is not None and int(assessor_window) != config.history_window:
        logger.warning(
            "campaign history_window (%d) differs from the assessor's history_window "
            "(%d); the assessed error and the recorded true error will be computed "
            "over different histories",
            config.history_window,
            int(assessor_window),
        )


@dataclass
class CampaignConfig:
    """Knobs of the campaign loop.

    Attributes
    ----------
    min_cells_per_cycle:
        Number of cells always sensed before the assessor is first consulted
        (the assessor needs a few observations to say anything meaningful).
    max_cells_per_cycle:
        Optional hard cap on submissions per cycle; ``None`` means the cap is
        the number of cells.
    assess_every:
        Consult the assessor after every ``assess_every``-th submission
        (1 = after each submission, as in the paper; larger values trade a
        slightly higher selection count for fewer assessments).
    history_window:
        Number of past cycles kept in the observation matrix handed to the
        inference algorithm when computing the final per-cycle error.
    """

    min_cells_per_cycle: int = 3
    max_cells_per_cycle: Optional[int] = None
    assess_every: int = 1
    history_window: int = 24

    def __post_init__(self) -> None:
        check_positive_int(self.min_cells_per_cycle, "min_cells_per_cycle")
        check_positive_int(self.assess_every, "assess_every")
        check_positive_int(self.history_window, "history_window")
        if self.max_cells_per_cycle is not None:
            check_positive_int(self.max_cells_per_cycle, "max_cells_per_cycle")
            if self.max_cells_per_cycle < self.min_cells_per_cycle:
                raise ValueError(
                    "max_cells_per_cycle must be >= min_cells_per_cycle "
                    f"({self.max_cells_per_cycle} < {self.min_cells_per_cycle})"
                )


@dataclass
class _CampaignSlot:
    """Mutable per-(task, policy) state of one lockstep campaign slot."""

    task: SensingTask
    policy: CellSelectionPolicy
    observed: np.ndarray
    inferred: np.ndarray
    result: CampaignResult
    sensed_mask: np.ndarray
    selected_order: List[int] = field(default_factory=list)
    assessed_satisfied: bool = False
    active: bool = False
    #: Tenant (campaign) id the serving layer tags this slot's requests with;
    #: the direct runner never reads it.
    tenant: str = "default"

    @property
    def n_selected(self) -> int:
        return len(self.selected_order)


class BatchedCampaignRunner:
    """Runs P campaigns over one shared dataset in lockstep, batching inference.

    The testing-stage evaluation (Figure 6 / Figure 7) compares several
    policies — and often several requirement settings — over the *same*
    dataset.  Running them one campaign at a time repeats the dominant cost,
    the per-submission quality assessment, P times over.  This runner
    instead steps every campaign slot through the cycle loop together:

    * after each lockstep submission round, all due slots are assessed in one
      :meth:`~repro.quality.loo_bayesian.QualityAssessor.assess_many` call,
      which pools every slot's LOO completions into a single
      ``complete_batch`` solve;
    * at the end of each cycle, the not-fully-sensed slots' final inference
      windows are completed in one batched call as well.

    Each slot's campaign semantics are those of a campaign run alone — a
    slot stops sensing as soon as *its* assessor is satisfied, and records
    its own per-cycle statistics.  With an inference algorithm that has no
    vectorized solver the batched calls degrade to a per-matrix loop, making
    the results bit-exact with P one-slot runs; with a vectorized solver
    (batched ALS) they agree within the solver's documented tolerance.

    Parameters
    ----------
    tasks:
        One :class:`SensingTask` (shared by every policy) or one task per
        policy.  All tasks must be bound to the same dataset object —
        lockstep over different ground truths is a logic error.
    config:
        Shared campaign configuration.
    """

    def __init__(
        self,
        tasks: Union[SensingTask, Sequence[SensingTask]],
        config: Optional[CampaignConfig] = None,
    ) -> None:
        if isinstance(tasks, SensingTask):
            tasks = [tasks]
        if not tasks:
            raise ValueError("at least one task is required")
        self.tasks = list(tasks)
        self.config = config or CampaignConfig()
        dataset = self.tasks[0].dataset
        for index, task in enumerate(self.tasks):
            if task.dataset is not dataset:
                raise ValueError(
                    f"task {index} is bound to a different dataset; lockstep slots "
                    "must share one dataset"
                )
        for task in {id(task): task for task in self.tasks}.values():
            _warn_on_window_mismatch(task, self.config)

    def run(
        self,
        policies: Sequence[CellSelectionPolicy],
        *,
        n_cycles: Optional[int] = None,
    ) -> List[CampaignResult]:
        """Run every (task, policy) slot to completion; results are policy-aligned.

        With one task and P policies, every policy runs against that task;
        otherwise ``policies[i]`` runs against ``tasks[i]``.
        """
        if not policies:
            raise ValueError("at least one policy is required")
        tasks = self.tasks
        if len(tasks) == 1 and len(policies) > 1:
            tasks = tasks * len(policies)
        if len(tasks) != len(policies):
            raise ValueError(
                f"{len(policies)} policies for {len(tasks)} tasks; provide one task "
                "(shared) or exactly one task per policy"
            )

        dataset = tasks[0].dataset
        total_cycles = dataset.n_cycles if n_cycles is None else min(
            check_positive_int(n_cycles, "n_cycles"), dataset.n_cycles
        )
        n_cells = dataset.n_cells
        max_cells = self.config.max_cells_per_cycle or n_cells
        max_cells = min(max_cells, n_cells)
        min_cells = min(self.config.min_cells_per_cycle, max_cells)
        ground_truth = dataset.data

        slots = [
            _CampaignSlot(
                task=task,
                policy=policy,
                observed=np.full((n_cells, total_cycles), np.nan),
                inferred=np.full((n_cells, total_cycles), np.nan),
                result=CampaignResult(
                    policy_name=policy.name,
                    requirement=task.requirement,
                    n_cells=n_cells,
                    metadata={"dataset": dataset.name, "n_cycles": total_cycles},
                ),
                sensed_mask=np.zeros(n_cells, dtype=bool),
            )
            for task, policy in zip(tasks, policies)
        ]

        for cycle in range(total_cycles):
            for slot in slots:
                slot.policy.begin_cycle(cycle, slot.observed)
                slot.sensed_mask = np.zeros(n_cells, dtype=bool)
                slot.selected_order = []
                slot.assessed_satisfied = False
                slot.active = True

            while True:
                active = [slot for slot in slots if slot.active]
                if not active:
                    break
                for slot in active:
                    cell = slot.policy.select_cell(slot.observed, cycle, slot.sensed_mask)
                    cell = CellSelectionPolicy._validate_selection(cell, slot.sensed_mask)
                    slot.sensed_mask[cell] = True
                    slot.selected_order.append(cell)
                    slot.observed[cell, cycle] = ground_truth[cell, cycle]
                self._assess_due_slots(active, cycle, min_cells)
                for slot in active:
                    if slot.active and slot.n_selected >= max_cells:
                        slot.active = False

            self._finalize_cycle(slots, ground_truth, cycle)
            for slot in slots:
                slot.policy.end_cycle(cycle, slot.observed)
                slot.result.add_record(
                    CycleRecord(
                        cycle=cycle,
                        selected_cells=tuple(slot.selected_order),
                        true_error=float(
                            slot.task.requirement.column_error(
                                ground_truth[:, cycle],
                                slot.inferred[:, cycle],
                                exclude=slot.sensed_mask,
                            )
                        ),
                        assessed_satisfied=slot.assessed_satisfied,
                    )
                )

        for slot in slots:
            slot.result.inferred_matrix = slot.inferred
        return [slot.result for slot in slots]

    # -- internals -------------------------------------------------------------

    def _assess_due_slots(
        self, active: List[_CampaignSlot], cycle: int, min_cells: int
    ) -> None:
        """Batch-assess every active slot that is due after this submission round."""
        due = [
            slot
            for slot in active
            if slot.n_selected >= min_cells
            and (slot.n_selected - min_cells) % self.config.assess_every == 0
        ]
        # Pool by (assessor, inference) *equivalence*, not identity: slots
        # sharing a task pool trivially, and slots carrying distinct but
        # equivalently configured instances (the normal case when a scenario
        # spec constructs one instance per slot) share the batched solve too.
        groups = _group_by_equivalence(
            due,
            lambda a, b: _equivalent_assessor(a.task.assessor, b.task.assessor)
            and _equivalent_inference(a.task.inference, b.task.inference),
        )
        for group in groups:
            # Per-slot RNG partitioning: the representative runs the pooled
            # pass, but each slot's subsampling draws come from its own
            # assessor's stream (slots sharing one instance share one stream,
            # consumed in slot order — identical to the pre-partitioning
            # behaviour).
            verdicts = group[0].task.assessor.assess_many(
                [slot.observed[:, : cycle + 1] for slot in group],
                [cycle] * len(group),
                [slot.task.requirement for slot in group],
                group[0].task.inference,
                rngs=[getattr(slot.task.assessor, "rng", None) for slot in group],
            )
            for slot, verdict in zip(group, verdicts):
                if verdict:
                    slot.assessed_satisfied = True
                    slot.active = False

    def _finalize_cycle(
        self, slots: List[_CampaignSlot], ground_truth: np.ndarray, cycle: int
    ) -> None:
        """Infer every slot's unsensed cells for ``cycle``, batched per algorithm."""
        start = max(0, cycle + 1 - self.config.history_window)
        needs_completion: List[_CampaignSlot] = []
        for slot in slots:
            if slot.sensed_mask.all():
                slot.inferred[:, cycle] = ground_truth[:, cycle]
            else:
                needs_completion.append(slot)
        groups = _group_by_equivalence(
            needs_completion,
            lambda a, b: _equivalent_inference(a.task.inference, b.task.inference),
        )
        for group in groups:
            inference = group[0].task.inference
            windows = [slot.observed[:, start : cycle + 1] for slot in group]
            completed_windows = inference.complete_batch(windows)
            for slot, completed in zip(group, completed_windows):
                slot.inferred[:, cycle] = completed[:, completed.shape[1] - 1]
