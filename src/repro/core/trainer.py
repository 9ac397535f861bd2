"""Training DR-Cell on a preliminary-study dataset.

The paper's evaluation protocol (§5.3) assumes the organiser runs a 2-day
preliminary study during which every cell's data is collected; that data is
the ground truth the training environment uses to compute exact rewards.
:class:`DRCellTrainer` wraps the environment construction, the deep
Q-learning loop, and a :class:`TrainingReport` of what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.config import DRCellConfig
from repro.core.drcell import DRCellAgent
from repro.datasets.base import SensingDataset
from repro.inference.base import InferenceAlgorithm
from repro.mcs.environment import RewardModel, SparseMCSEnvironment
from repro.mcs.vector import BatchedSparseMCSVectorEnv
from repro.obs.profile import phase
from repro.quality.epsilon_p import QualityRequirement
from repro.rl.vector_env import VectorEnv
from repro.utils.seeding import derive_rng
from repro.utils.timing import monotonic
from repro.utils.validation import check_positive_int


@dataclass
class TrainingReport:
    """Summary of one DR-Cell training run."""

    episodes: int
    total_steps: int
    wall_clock_seconds: float
    episode_rewards: List[float] = field(default_factory=list)
    episode_selections: List[float] = field(default_factory=list)

    @property
    def mean_episode_reward(self) -> float:
        """Average undiscounted return per episode."""
        return float(np.mean(self.episode_rewards)) if self.episode_rewards else float("nan")

    @property
    def final_episode_reward(self) -> float:
        """Return of the last training episode."""
        return self.episode_rewards[-1] if self.episode_rewards else float("nan")

    @property
    def mean_selections_per_cycle_last_episode(self) -> float:
        """Average submissions per cycle in the final episode (training-time proxy
        of the paper's headline metric)."""
        return self.episode_selections[-1] if self.episode_selections else float("nan")

    def write_to(self, registry, *, run: str = "train") -> None:
        """Write this run into ``registry`` as ``repro_train_*`` metrics labelled ``run``."""
        registry.counter(
            "repro_train_episodes_total", "Training episodes completed"
        ).set_total(self.episodes, run=run)
        registry.counter(
            "repro_train_steps_total", "Environment steps taken during training"
        ).set_total(self.total_steps, run=run)
        registry.gauge(
            "repro_train_wall_clock_seconds", "Training wall-clock seconds"
        ).set(self.wall_clock_seconds, run=run)
        if self.wall_clock_seconds > 0:
            registry.gauge(
                "repro_train_steps_per_second", "Training throughput (steps/s)"
            ).set(self.total_steps / self.wall_clock_seconds, run=run)
        if self.episode_rewards:
            # sum / len, not np.mean (mean_episode_reward): the two can
            # differ in the last bit, and the exported value is pinned.
            registry.gauge(
                "repro_train_mean_episode_reward", "Mean episode reward"
            ).set(sum(self.episode_rewards) / len(self.episode_rewards), run=run)


class DRCellTrainer:
    """Builds the training environment and runs the deep Q-learning loop.

    Parameters
    ----------
    config:
        DR-Cell hyper-parameters.
    inference:
        Inference algorithm used inside the training environment's reward
        computation; defaults to compressive sensing.
    """

    def __init__(
        self,
        config: Optional[DRCellConfig] = None,
        *,
        inference: Optional[InferenceAlgorithm] = None,
    ) -> None:
        self.config = config or DRCellConfig()
        self.inference = inference

    def build_environment(
        self,
        dataset: SensingDataset,
        requirement: QualityRequirement,
        *,
        variant: int = 0,
    ) -> SparseMCSEnvironment:
        """The training-stage environment for ``dataset`` under ``requirement``.

        ``variant`` derives a distinct episode-offset seed per environment so
        that the K lockstep environments of the vectorized engine explore
        different episode windows; variant 0 is the (unchanged) sequential
        environment.
        """
        return SparseMCSEnvironment(
            dataset,
            requirement,
            window=self.config.window,
            inference=self.inference,
            reward_model=RewardModel(
                bonus=self.config.resolve_bonus(dataset.n_cells),
                cost=self.config.cost,
            ),
            min_cells_before_check=self.config.min_cells_before_check,
            history_window=self.config.history_window,
            max_episode_cycles=self.config.max_episode_cycles,
            seed=derive_rng(self.config.seed, 11 + variant),
        )

    def train(
        self,
        dataset: SensingDataset,
        requirement: QualityRequirement,
        *,
        agent: Optional[DRCellAgent] = None,
        episodes: Optional[int] = None,
    ) -> tuple[DRCellAgent, TrainingReport]:
        """Train (or continue training) a DR-Cell agent on ``dataset``.

        ``config.vector_envs`` environments are stepped in lockstep.  With
        one environment and fused learning off — the paper's protocol — the
        environment steps itself, so each reward check runs the Gauss–Seidel
        :meth:`~repro.inference.base.InferenceAlgorithm.complete`.  Every
        other fleet batches its reward checks through
        :class:`~repro.mcs.vector.BatchedSparseMCSVectorEnv`.

        Parameters
        ----------
        dataset:
            Preliminary-study data with every cell observed (ground truth).
        requirement:
            The (ε, p)-quality requirement of the task.
        agent:
            An existing agent to continue training (used by transfer
            learning); a fresh agent is built when omitted.
        episodes:
            Override the number of training episodes from the config.

        Returns
        -------
        tuple
            ``(trained_agent, report)``.
        """
        episodes = self._resolve_episodes(episodes)
        agent = self._resolve_agent(agent, dataset.n_cells)
        environments = [
            self.build_environment(dataset, requirement, variant=index)
            for index in range(min(self.config.vector_envs, episodes))
        ]
        paper_protocol = self.config.vector_envs == 1 and not self.config.fused_learning
        fleet = (
            VectorEnv(environments)
            if paper_protocol
            else BatchedSparseMCSVectorEnv(environments)
        )
        return self._train_fleet(
            agent,
            fleet,
            episodes,
            datasets=[dataset],
            requirements=[requirement],
            # The paper's protocol learns per transition, whatever the
            # agent's own DQN config says.
            fused=False if paper_protocol else None,
        )

    def train_lockstep(
        self,
        datasets: Sequence[SensingDataset],
        requirements: Union[QualityRequirement, Sequence[QualityRequirement]],
        *,
        agent: Optional[DRCellAgent] = None,
        episodes: Optional[int] = None,
    ) -> tuple[DRCellAgent, TrainingReport]:
        """Train one agent across heterogeneous (dataset, requirement) pairs.

        This is the mixed-dataset / mixed-requirement counterpart of
        :meth:`train`: one environment is built per pair and all of them are
        stepped in lockstep by the vectorized engine
        (:class:`~repro.mcs.vector.BatchedSparseMCSVectorEnv` driving
        :meth:`~repro.rl.dqn.DQNAgent.train_episodes_vectorized`), batching
        action selection and the quality-check inference across the fleet,
        even when there is only one pair.  The datasets may differ in values,
        cycle counts and requirements but must agree on the number of cells
        (the action space).

        ``config.vector_envs`` is ignored here — the fleet size is simply the
        number of pairs.

        Parameters
        ----------
        datasets:
            One preliminary-study dataset per training slot.
        requirements:
            One (ε, p)-requirement per dataset, or a single requirement
            shared by all.
        agent:
            An existing agent to continue training; built fresh when omitted.
        episodes:
            Total episodes across the fleet (defaults to the config's).

        Returns
        -------
        tuple
            ``(trained_agent, report)``.
        """
        datasets = list(datasets)
        if not datasets:
            raise ValueError("at least one dataset is required")
        if isinstance(requirements, QualityRequirement):
            requirements = [requirements] * len(datasets)
        requirements = list(requirements)
        if len(requirements) != len(datasets):
            raise ValueError(
                f"{len(requirements)} requirements for {len(datasets)} datasets; "
                "provide one per dataset or a single shared requirement"
            )
        n_cells = datasets[0].n_cells
        for index, candidate in enumerate(datasets):
            if candidate.n_cells != n_cells:
                raise ValueError(
                    f"dataset {index} has {candidate.n_cells} cells, expected {n_cells}; "
                    "lockstep training requires a shared action space"
                )
        episodes = self._resolve_episodes(episodes)
        agent = self._resolve_agent(agent, n_cells)
        environments = [
            self.build_environment(dataset, requirement, variant=index)
            for index, (dataset, requirement) in enumerate(zip(datasets, requirements))
        ]
        return self._train_fleet(
            agent,
            BatchedSparseMCSVectorEnv(environments),
            episodes,
            datasets=datasets,
            requirements=requirements,
        )

    def _resolve_episodes(self, episodes: Optional[int]) -> int:
        return check_positive_int(
            episodes if episodes is not None else self.config.episodes, "episodes"
        )

    def _resolve_agent(self, agent: Optional[DRCellAgent], n_cells: int) -> DRCellAgent:
        if agent is None:
            return DRCellAgent.build(n_cells, self.config)
        if agent.n_cells != n_cells:
            raise ValueError(
                f"agent was built for {agent.n_cells} cells but the training data has {n_cells}"
            )
        return agent

    def _train_fleet(
        self,
        agent: DRCellAgent,
        fleet: VectorEnv,
        episodes: int,
        *,
        datasets: Sequence[SensingDataset],
        requirements: Sequence[QualityRequirement],
        fused: Optional[bool] = None,
    ) -> tuple[DRCellAgent, TrainingReport]:
        """Run the lockstep training loop over ``fleet`` and report on it.

        ``config.fused_learning`` forces the fused global-step schedule even
        for agents whose own DQN config predates the knob (e.g. transferred
        agents); otherwise ``fused`` decides, and ``None`` defers to the
        agent's config.
        """
        start = monotonic()
        with phase("train.lockstep"):
            history = agent.agent.train_episodes_vectorized(
                fleet,
                episodes,
                log_every=1,
                fused=True if self.config.fused_learning else fused,
            )
        episode_selections = [
            stats.steps / max(1, int(stats.extra.get("episode_cycles", 1))) for stats in history
        ]
        elapsed = monotonic() - start

        report = TrainingReport(
            episodes=episodes,
            total_steps=agent.agent.total_steps,
            wall_clock_seconds=elapsed,
            episode_rewards=[stats.total_reward for stats in history],
            episode_selections=episode_selections,
        )
        agent.training_info.update(
            {
                "dataset": " + ".join(sorted({dataset.name for dataset in datasets})),
                "episodes_trained": agent.training_info.get("episodes_trained", 0) + episodes,
                "last_training_seconds": elapsed,
                "requirement": " + ".join(
                    sorted({requirement.describe() for requirement in requirements})
                ),
            }
        )
        return agent, report
