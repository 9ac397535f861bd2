"""The Sparse MCS campaign: the cycle loop of Figure 2, written once.

For every sensing cycle each campaign asks its selection policy for cells
one by one, reveals their ground-truth values ("a participant submits
data"), and after each submission asks the quality assessor whether the
cycle now satisfies the (ε, p)-quality requirement.  When it does (or when
every cell has been sensed) the remaining cells are inferred and the
campaign moves to the next cycle.  The true per-cycle inference error is
recorded against the ground truth so the evaluation can verify the quality
guarantee was really met.

The loop is a *protocol*: :meth:`BatchedCampaignRunner._cycles` is a
generator that steps P campaign slots in lockstep, yields one typed
:class:`_Phase` per decision it needs and takes the answers back through
``send()``.  Slot construction, validation and checkpoint restore happen
once, in :meth:`BatchedCampaignRunner._open`.  Two drivers answer the
phases:

* direct — :meth:`BatchedCampaignRunner.run` resolves each phase inline
  (:func:`_resolve_direct`), pooling equivalent slots into one
  ``assess_many`` / ``complete_batch`` call per class;
* served — :class:`~repro.mcs.served.ServedCampaignRunner` maps the same
  phases onto a :class:`~repro.serve.server.DecisionServer`, whose handlers
  resolve each class with the same per-class functions.

A single campaign is the P=1 case,
``BatchedCampaignRunner(task, config).run([policy])[0]``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Generator, List, NamedTuple, Optional, Sequence, Tuple, Union

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


# -- per-class resolution (shared with the decision server) --------------------


class _Assessment(NamedTuple):
    """One quality-assessment query; the fields of the server's ``AssessQuery``."""

    assessor: Any
    inference: Any
    observed: np.ndarray
    cycle: int
    requirement: Any


class _Completion(NamedTuple):
    """One completion query; the fields of the server's ``CompleteQuery``."""

    inference: Any
    matrix: np.ndarray


def _same_assessment_class(a, b) -> bool:
    """True when two assessment queries may share one pooled ``assess_many``.

    Pooling is by (assessor, inference) *equivalence*, not identity: slots
    sharing a task pool trivially, and slots carrying distinct but
    equivalently configured instances (the normal case when a scenario spec
    constructs one instance per slot) share the batched solve too.
    """
    return _equivalent_assessor(a.assessor, b.assessor) and _equivalent_inference(
        a.inference, b.inference
    )


def _assess_class(queries: Sequence[_Assessment], inference) -> List[bool]:
    """Answer one assessment class with a single pooled ``assess_many`` call.

    Per-query RNG partitioning: the first query's assessor runs the pooled
    pass, but each query's subsampling draws come from its own assessor's
    stream (queries sharing one instance share one stream, consumed in query
    order), so a campaign's assessment randomness does not depend on who
    shares its batch.
    """
    verdicts = queries[0].assessor.assess_many(
        [query.observed for query in queries],
        [query.cycle for query in queries],
        [query.requirement for query in queries],
        inference,
        rngs=[getattr(query.assessor, "rng", None) for query in queries],
    )
    return [bool(verdict) for verdict in verdicts]


#: Per pooled phase kind: (may two queries share one call?, answer one class).
_POOLED = {
    "assess": (_same_assessment_class, _assess_class),
    "complete": (
        lambda a, b: _equivalent_inference(a.inference, b.inference),
        lambda queries, inference: inference.complete_batch(
            [query.matrix for query in queries]
        ),
    ),
}


def _resolve_pooled(kind: str, queries: Sequence) -> list:
    """Answer ``queries`` one equivalence class at a time; answers in query order."""
    same_class, resolve = _POOLED[kind]
    answers: list = [None] * len(queries)
    for group in _group_by_equivalence(
        range(len(queries)), lambda i, j: same_class(queries[i], queries[j])
    ):
        members = [queries[index] for index in group]
        for index, answer in zip(group, resolve(members, members[0].inference)):
            answers[index] = answer
    return answers


# -- the cycle protocol --------------------------------------------------------


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
    #: Tenant (campaign) id the serving layer tags this slot's requests with.
    tenant: str = "default"

    @property
    def n_selected(self) -> int:
        return len(self.selected_order)

    def state_dict(self) -> dict:
        """Checkpoint payload: matrices, cycle records, policy and assessor state."""
        from repro.utils.statedict import encode_array

        policy, assessor = self.policy, self.task.assessor
        return {
            "tenant": self.tenant,
            "observed": encode_array(self.observed),
            "inferred": encode_array(self.inferred),
            "records": [
                {**asdict(record), "selected_cells": list(record.selected_cells)}
                for record in self.result.records
            ],
            "policy": policy.state_dict() if hasattr(policy, "state_dict") else None,
            "assessor": assessor.state_dict() if hasattr(assessor, "state_dict") else None,
        }

    def load_state_dict(self, state: dict) -> None:
        """Apply one :meth:`state_dict` payload onto this freshly built slot."""
        from repro.utils.statedict import decode_array

        observed = decode_array(state["observed"])
        if observed.shape != self.observed.shape:
            raise ValueError(
                f"checkpointed observed matrix shape {observed.shape} does not "
                f"match the fleet's {self.observed.shape} — resume with the "
                "same scenario and cycle budget it was recorded under"
            )
        self.observed[:, :] = observed
        self.inferred[:, :] = decode_array(state["inferred"])
        self.result.records = []
        for record in state["records"]:
            self.result.add_record(
                CycleRecord(
                    cycle=int(record["cycle"]),
                    selected_cells=tuple(int(c) for c in record["selected_cells"]),
                    true_error=float(record["true_error"]),
                    assessed_satisfied=bool(record["assessed_satisfied"]),
                )
            )
        if state.get("policy") is not None:
            self.policy.load_state_dict(state["policy"])
        if state.get("assessor") is not None:
            self.task.assessor.load_state_dict(state["assessor"])


@dataclass(frozen=True)
class _Phase:
    """One request of the cycle protocol; ``queries[i]`` is ``slots[i]``'s.

    ``kind`` is ``"select"`` (``select_cell`` arguments of the active
    slots), ``"assess"`` (:class:`_Assessment` s of the due slots),
    ``"complete"`` (:class:`_Completion` s of the not-fully-sensed slots),
    ``"learn"`` (``(learner, batch)`` pairs parked by server-bound actor
    policies) or ``"barrier"`` (the cycle is over).  The protocol takes one
    answer per query back through ``send()``, in query order.
    """

    kind: str
    slots: Sequence[_CampaignSlot] = ()
    queries: Sequence[tuple] = ()


def _resolve_direct(phase: _Phase):
    """The direct driver: answer one protocol phase inline."""
    if phase.kind == "select":
        # Lazy, so slot i's pick is applied before slot i+1 selects.
        return (
            slot.policy.select_cell(*query)
            for slot, query in zip(phase.slots, phase.queries)
        )
    if phase.kind == "learn":
        return [learner.ingest([batch])[0] for learner, batch in phase.queries]
    if phase.kind in _POOLED:
        return _resolve_pooled(phase.kind, phase.queries)
    return None


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
        _, protocol = self._open(policies, n_cycles)
        answer = None
        while True:
            try:
                phase = protocol.send(answer)
            except StopIteration as done:
                return done.value
            answer = _resolve_direct(phase)

    # -- the protocol ----------------------------------------------------------

    def _open(
        self,
        policies: Sequence[CellSelectionPolicy],
        n_cycles: Optional[int],
        *,
        tenants: Optional[Sequence[str]] = None,
        start_cycle: int = 0,
        stop_cycle: Optional[int] = None,
        slot_states: Optional[Sequence[Optional[dict]]] = None,
    ) -> Tuple[List[_CampaignSlot], Generator[_Phase, Any, List[CampaignResult]]]:
        """Validate a run, build (and restore) its slots; returns ``(slots, protocol)``.

        Runs eagerly, so a bad argument raises before any driver starts;
        :meth:`~repro.mcs.served.ServedCampaignRunner.launch` documents them.
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
        if tenants is None:
            tenants = [f"campaign-{index}" for index in range(len(policies))]
        if len(tenants) != len(policies):
            raise ValueError(f"{len(policies)} slots but {len(tenants)} tenants")
        start_cycle = int(start_cycle)
        if not 0 <= start_cycle <= total_cycles:
            raise ValueError(
                f"start_cycle {start_cycle} out of range [0, {total_cycles}]"
            )
        end_cycle = total_cycles
        if stop_cycle is not None:
            end_cycle = check_positive_int(stop_cycle, "stop_cycle")
            if not start_cycle <= end_cycle <= total_cycles:
                raise ValueError(
                    f"stop_cycle {end_cycle} out of range "
                    f"[{start_cycle}, {total_cycles}]"
                )
        if slot_states is not None and len(slot_states) != len(policies):
            raise ValueError(
                f"{len(policies)} slots but {len(slot_states)} slot states"
            )

        n_cells = dataset.n_cells
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
                tenant=str(tenant),
            )
            for task, policy, tenant in zip(tasks, policies, tenants)
        ]
        for slot, state in zip(slots, slot_states or ()):
            if state is not None:
                slot.load_state_dict(state)
        return slots, self._cycles(slots, start_cycle, end_cycle)

    def _cycles(
        self, slots: List[_CampaignSlot], start_cycle: int, end_cycle: int
    ) -> Generator[_Phase, Any, List[CampaignResult]]:
        """The cycle protocol: yields phases, takes answers, returns the results.

        Only non-empty phases are yielded, each cycle ends with a
        ``"barrier"`` phase, and queries are in slot order — the order every
        pooled call and shared random stream is consumed in.
        """
        dataset = slots[0].task.dataset
        ground_truth = dataset.data
        n_cells = dataset.n_cells
        max_cells = min(self.config.max_cells_per_cycle or n_cells, n_cells)
        min_cells = min(self.config.min_cells_per_cycle, max_cells)

        for cycle in range(start_cycle, end_cycle):
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
                queries = [(slot.observed, cycle, slot.sensed_mask) for slot in active]
                cells = yield _Phase("select", active, queries)
                for slot, cell in zip(active, cells):
                    cell = CellSelectionPolicy._validate_selection(cell, slot.sensed_mask)
                    slot.sensed_mask[cell] = True
                    slot.selected_order.append(cell)
                    slot.observed[cell, cycle] = ground_truth[cell, cycle]
                due = [
                    slot
                    for slot in active
                    if slot.n_selected >= min_cells
                    and (slot.n_selected - min_cells) % self.config.assess_every == 0
                ]
                if due:
                    queries = [
                        _Assessment(
                            slot.task.assessor, slot.task.inference,
                            slot.observed[:, : cycle + 1], cycle, slot.task.requirement,
                        )
                        for slot in due
                    ]
                    verdicts = yield _Phase("assess", due, queries)
                    for slot, verdict in zip(due, verdicts):
                        if verdict:
                            slot.assessed_satisfied = True
                            slot.active = False
                for slot in active:
                    if slot.active and slot.n_selected >= max_cells:
                        slot.active = False

            # Infer each slot's unsensed cells from its recent history window.
            start = max(0, cycle + 1 - self.config.history_window)
            unsensed = []
            for slot in slots:
                if slot.sensed_mask.all():
                    slot.inferred[:, cycle] = ground_truth[:, cycle]
                else:
                    unsensed.append(slot)
            if unsensed:
                queries = [
                    _Completion(slot.task.inference, slot.observed[:, start : cycle + 1])
                    for slot in unsensed
                ]
                completed = yield _Phase("complete", unsensed, queries)
                for slot, matrix in zip(unsensed, completed):
                    slot.inferred[:, cycle] = matrix[:, matrix.shape[1] - 1]

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

            # Transition batches parked by end_cycle (server-bound actor
            # policies) are learned from before any next-cycle selection.
            parked, batches = [], []
            for slot in slots:
                take = getattr(slot.policy, "take_transition_batch", None)
                batch = take() if take is not None else None
                if batch is not None:
                    parked.append(slot)
                    batches.append((slot.policy.learner, batch))
            if parked:
                yield _Phase("learn", parked, batches)
            yield _Phase("barrier")

        for slot in slots:
            slot.result.inferred_matrix = slot.inferred
        return [slot.result for slot in slots]
