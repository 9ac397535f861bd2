"""Server-backed campaigns: the cycle protocol answered by a :class:`DecisionServer`.

:class:`ServedCampaignRunner` runs the one campaign protocol of
:mod:`repro.mcs.campaign` — same rounds, same assessment cadence, same
records — under a second driver, which maps each phase onto a shared
:class:`~repro.serve.server.DecisionServer`:

* select — DR-Cell and served online (:class:`~repro.learner.actor.
  ActorPolicy`) queries become ``select_cell`` requests, one stacked
  Q-network forward per agent; other policies select locally;
* assess / complete — ``assess_quality`` / ``complete_matrix`` requests,
  answered per equivalence class by the direct driver's own resolution;
* learn — each cycle's parked transition batches become ``learn_batch``
  requests, resolved before the next cycle's selections;
* barrier — a :data:`~repro.serve.server.CYCLE_BARRIER` yield.

Requests go out in slot order and the server answers each batch FIFO, so
one runner driven alone reproduces :meth:`BatchedCampaignRunner.run`
bitwise, including the shared assessor's RNG stream.  :meth:`launch`
returns a generator, so any number of runners can be driven against one
server with :func:`repro.serve.server.drive` and share its batches.
Cross-runner pooling feeds *equivalent* but distinct assessors through one
representative, so such neighbours agree only in distribution.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig, _CampaignSlot
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.results import CampaignResult
from repro.serve.batcher import PendingResult
from repro.serve.server import CYCLE_BARRIER, DecisionServer, drive


class ServedCampaignRunner(BatchedCampaignRunner):
    """A lockstep campaign fleet whose batched decisions come from a server.

    Parameters
    ----------
    tasks:
        As for :class:`~repro.mcs.campaign.BatchedCampaignRunner`: one task
        (shared by every policy) or one per policy, all bound to the same
        dataset object.
    config:
        Shared campaign configuration.
    server:
        The :class:`~repro.serve.server.DecisionServer` to submit decision
        requests to.  Several runners may share one server; drive them
        together with :func:`repro.serve.server.drive`.
    """

    def __init__(
        self,
        tasks,
        config: Optional[CampaignConfig] = None,
        *,
        server: DecisionServer,
    ) -> None:
        super().__init__(tasks, config)
        if not isinstance(server, DecisionServer):
            raise TypeError(f"expected a DecisionServer, got {type(server).__name__}")
        self.server = server
        self._results: Optional[List[CampaignResult]] = None
        self._slots: Optional[List[_CampaignSlot]] = None

    # -- running -----------------------------------------------------------------

    def run(
        self,
        policies: Sequence[CellSelectionPolicy],
        *,
        n_cycles: Optional[int] = None,
    ) -> List[CampaignResult]:
        """Drive this runner alone against its server, to completion.

        Single-runner results are bitwise identical to
        :meth:`BatchedCampaignRunner.run` with the same tasks and policies
        (see the module docstring for why).
        """
        drive(self.server, [self.launch(policies, n_cycles=n_cycles)])
        return self.results

    @property
    def results(self) -> List[CampaignResult]:
        """The policy-aligned results of the last completed :meth:`launch` drive."""
        if self._results is None:
            raise RuntimeError(
                "no completed run; drive launch() to completion first"
            )
        return self._results

    def launch(
        self,
        policies: Sequence[CellSelectionPolicy],
        *,
        n_cycles: Optional[int] = None,
        tenants: Optional[Sequence[str]] = None,
        start_cycle: int = 0,
        stop_cycle: Optional[int] = None,
        slot_states: Optional[Sequence[Optional[dict]]] = None,
    ) -> Iterator[None]:
        """A cooperative driver for this fleet's campaigns.

        The returned generator submits one protocol phase of server
        requests at a time and yields whenever they must resolve before it
        can continue.  Advance it with :func:`repro.serve.server.drive`,
        interleaved with any other runners sharing the server.  Arguments
        are validated, and the slots built and restored, before it is
        returned: a bad call raises here, not in the drive.

        Parameters
        ----------
        tenants:
            Per-slot campaign ids the server tags requests with (fairness
            accounting and journal attribution); defaults to
            ``campaign-{i}`` in slot order.
        start_cycle, stop_cycle, slot_states:
            Checkpoint/resume support.  ``stop_cycle`` ends the run early
            (exclusive bound) while the slots' matrices stay sized for the
            full ``n_cycles`` budget, so :meth:`slot_states` captured at the
            stop restores cleanly.  To resume, pass ``start_cycle`` and the
            captured ``slot_states``: cycles before ``start_cycle`` are
            skipped and each slot is restored (observed/inferred matrices,
            cycle records, policy and assessor state) before the first
            resumed cycle runs.
        """
        self._results = None
        slots, protocol = self._open(
            policies,
            n_cycles,
            tenants=tenants,
            start_cycle=start_cycle,
            stop_cycle=stop_cycle,
            slot_states=slot_states,
        )
        for slot in slots:
            slot.result.metadata["served"] = True
        self._slots = slots
        return self._serve(slots, protocol)

    def slot_states(self) -> List[dict]:
        """Per-slot checkpoint payloads (capture at a cycle boundary only).

        Each entry carries the slot's observed/inferred matrices, its cycle
        records so far, and the policy's and assessor's round-trippable
        state (``None`` for stateless components).  Feed the list back to
        :meth:`launch` via ``slot_states`` together with ``start_cycle`` to
        resume bitwise.  Shared components (one agent or assessor across
        slots) are captured once per slot with identical content, so the
        idempotent per-slot restore converges to the same shared state.
        """
        if self._slots is None:
            raise RuntimeError("no launched fleet; call launch() and drive it first")
        return [slot.state_dict() for slot in self._slots]

    # -- the served driver -------------------------------------------------------

    def _serve(self, slots: List[_CampaignSlot], protocol) -> Iterator[None]:
        """Answer the protocol's phases through the server, one yield per phase."""
        # Actor policies defer their end-of-cycle learning to the server's
        # learn_batch endpoint (and adopt its clock for publication stamps).
        for slot in slots:
            bind = getattr(slot.policy, "bind_server", None)
            if bind is not None:
                bind(self.server)
        endpoints = {
            "assess": self.server.assess_quality,
            "complete": self.server.complete_matrix,
            "learn": self.server.learn_batch,
        }
        answer = None
        while True:
            try:
                phase = protocol.send(answer)
            except StopIteration as done:
                self._results = done.value
                return
            if phase.kind == "barrier":
                # Park until every co-driven runner finishes this cycle, so
                # no server batch mixes requests from different cycles and
                # the boundary is a quiescent point a checkpoint can capture.
                answer = yield CYCLE_BARRIER
                continue
            picks = [
                self._select(slot, *query)
                if phase.kind == "select"
                else endpoints[phase.kind](*query, tenant=slot.tenant)
                for slot, query in zip(phase.slots, phase.queries)
            ]
            if any(isinstance(pick, PendingResult) for pick in picks):
                yield  # resolve this phase's requests
            answer = []
            for slot, pick in zip(phase.slots, picks):
                if isinstance(pick, PendingResult):
                    pick = pick.result()
                    if phase.kind == "select" and hasattr(slot.policy, "observe_selection"):
                        # Actor policies record the trajectory policy-side:
                        # report each served action back, in submission order.
                        slot.policy.observe_selection(pick)
                answer.append(pick)

    def _select(self, slot: _CampaignSlot, observed, cycle: int, sensed_mask):
        """Submit the slot's policy query if it is servable, else select locally.

        Plain :class:`~repro.core.drcell.DRCellPolicy` queries are servable,
        and so are :class:`~repro.learner.actor.ActorPolicy` queries — the
        actor's selection is side-effect free (its learning streams through
        ``learn_batch`` at cycle boundaries instead).  Other policies with
        selection-time side effects (e.g. the direct online learner) keep
        their own ``select_cell`` protocol and run locally.
        """
        # Local imports: repro.core.drcell and repro.learner.actor reach back
        # into repro.mcs for the policy interface, so importing them at
        # module scope would cycle.
        from repro.core.drcell import DRCellPolicy
        from repro.learner.actor import ActorPolicy

        policy = slot.policy
        if isinstance(policy, ActorPolicy):
            state, mask = policy.prepare_query(observed, cycle, sensed_mask)
            return self.server.select_cell(
                policy.actor, state, mask, greedy=False, tenant=slot.tenant
            )
        if type(policy) is not DRCellPolicy:
            return policy.select_cell(observed, cycle, sensed_mask)
        agent = policy.agent
        state = agent.state_model.from_observations(observed, cycle, sensed_mask)
        mask = agent.action_space.mask_from_sensed(sensed_mask)
        return self.server.select_cell(
            agent, state, mask, greedy=policy.greedy, tenant=slot.tenant
        )
