"""Training-time measurement (paper §5.4, last paragraph).

The paper reports that training DR-Cell takes around 2–4 hours on a Xeon
E2630 v4 with TensorFlow (CPU) and argues this is acceptable because
training is an offline process.  This experiment measures the analogous
quantity for this reproduction: the wall-clock time of the NumPy DRQN
training loop at a given experiment scale, together with throughput numbers
that make it easy to extrapolate to larger scales.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.trainer import DRCellTrainer
from repro.experiments.config import ExperimentScale, SMALL_SCALE
from repro.quality.epsilon_p import QualityRequirement


@dataclass(frozen=True)
class TimingResult:
    """Wall-clock statistics of one DR-Cell training run."""

    scale: str
    n_cells: int
    training_cycles: int
    episodes: int
    total_steps: int
    wall_clock_seconds: float
    vector_envs: int = 1
    fused: bool = False

    @property
    def seconds_per_episode(self) -> float:
        """Average wall-clock seconds per training episode."""
        return self.wall_clock_seconds / max(1, self.episodes)

    @property
    def steps_per_second(self) -> float:
        """Environment steps (cell selections) processed per second."""
        if self.wall_clock_seconds <= 0:
            return float("inf")
        return self.total_steps / self.wall_clock_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "scale": self.scale,
            "n_cells": self.n_cells,
            "training_cycles": self.training_cycles,
            "episodes": self.episodes,
            "total_steps": self.total_steps,
            "vector_envs": self.vector_envs,
            "fused": self.fused,
            "wall_clock_seconds": round(self.wall_clock_seconds, 2),
            "seconds_per_episode": round(self.seconds_per_episode, 2),
            "steps_per_second": round(self.steps_per_second, 1),
        }


def run_timing(
    scale: Optional[ExperimentScale] = None,
    *,
    epsilon: float = 0.5,
    p: float = 0.9,
    seed: int = 0,
    vector_envs: int = 1,
    fused: bool = False,
    episodes: Optional[int] = None,
) -> TimingResult:
    """Measure DR-Cell training wall-clock time on the temperature task.

    Parameters
    ----------
    vector_envs:
        Number of lockstep training environments (see
        ``DRCellConfig.vector_envs``).  The default 1 measures the paper's
        sequential protocol.
    fused:
        Learn with the fused global-step schedule (one minibatch per
        lockstep step spanning all K fresh transitions) instead of the
        per-transition loop; see ``DRCellConfig.fused_learning``.
    episodes:
        Training-episode override.  Defaults to the scale's episode budget,
        raised to ``vector_envs`` when vectorized so every environment has
        at least one episode of work.
    """
    scale = scale or SMALL_SCALE
    dataset = scale.sensorscope_dataset("temperature", seed=seed)
    train_set, _ = dataset.train_test_split(scale.training_days)
    requirement = QualityRequirement(epsilon=epsilon, p=p, metric="mae")
    config = scale.drcell_config(seed=seed)
    if episodes is None:
        episodes = max(scale.episodes, vector_envs) if vector_envs > 1 else scale.episodes
    if vector_envs != 1 or fused or episodes != config.episodes:
        config = replace(
            config, vector_envs=vector_envs, fused_learning=fused, episodes=episodes
        )
    trainer = DRCellTrainer(config, inference=scale.inference(seed=seed))
    _, report = trainer.train(train_set, requirement)
    return TimingResult(
        scale=scale.name,
        n_cells=train_set.n_cells,
        training_cycles=train_set.n_cycles,
        episodes=report.episodes,
        total_steps=report.total_steps,
        wall_clock_seconds=report.wall_clock_seconds,
        vector_envs=vector_envs,
        fused=fused,
    )

