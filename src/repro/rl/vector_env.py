"""Lockstep execution of K independent environments.

:class:`VectorEnv` is the rollout-side half of the vectorized training
engine: it owns K :class:`~repro.rl.environment.Environment` instances and
steps them together, so the agent can amortise one batched network forward
over K action selections.  The environments are independent — they may carry
different seeds, datasets or quality requirements — they only need to agree
on the action space.

The base class steps each environment with its ordinary ``step`` method,
which keeps per-environment semantics (and numerics) exactly those of the
sequential loop; a one-environment ``VectorEnv`` is how the paper's
sequential protocol is trained.  Domain-specific subclasses (see
:class:`~repro.mcs.vector.BatchedSparseMCSVectorEnv`) override
:meth:`VectorEnv.step_many` to batch expensive per-step work such as the
quality-check inference across environments.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.rl.environment import Environment

StepResult = Tuple[np.ndarray, float, bool, Dict[str, Any]]


class VectorEnv:
    """K independent environments stepped in lockstep.

    Parameters
    ----------
    envs:
        The environments to drive.  All must share ``n_actions``.
    """

    def __init__(self, envs: Sequence[Environment]) -> None:
        envs = list(envs)
        if not envs:
            raise ValueError("VectorEnv requires at least one environment")
        n_actions = envs[0].n_actions
        for index, env in enumerate(envs):
            if env.n_actions != n_actions:
                raise ValueError(
                    f"environment {index} has {env.n_actions} actions, expected {n_actions}"
                )
        self.envs: List[Environment] = envs

    @property
    def n_envs(self) -> int:
        return len(self.envs)

    @property
    def n_actions(self) -> int:
        return self.envs[0].n_actions

    def reset_one(self, index: int) -> np.ndarray:
        """Start a new episode in environment ``index``; return its initial state."""
        return self.envs[index].reset()

    def reset_all(self) -> List[np.ndarray]:
        """Reset every environment and return the initial states."""
        return [env.reset() for env in self.envs]

    def valid_action_mask(self, index: int) -> np.ndarray:
        """Valid-action mask of environment ``index``."""
        return self.envs[index].valid_action_mask()

    def valid_action_masks(self, indices: Sequence[int]) -> np.ndarray:
        """Valid-action masks of the given environments as one ``(len(indices),
        n_actions)`` boolean array.

        The stacked form is what the vectorized training loop consumes: one
        row per active environment, shape-checked here once instead of per
        row in the agent.
        """
        masks = np.empty((len(indices), self.n_actions), dtype=bool)
        for row, index in enumerate(indices):
            mask = np.asarray(self.envs[index].valid_action_mask(), dtype=bool)
            if mask.shape != (self.n_actions,):
                raise ValueError(
                    f"environment {index} returned a mask of shape {mask.shape}, "
                    f"expected ({self.n_actions},)"
                )
            masks[row] = mask
        return masks

    def step_many(self, indexed_actions: Sequence[Tuple[int, int]]) -> List[StepResult]:
        """Step the given ``(env_index, action)`` pairs; return results in order.

        The base implementation simply loops; subclasses may batch shared
        work across the stepped environments.
        """
        return [self.envs[index].step(action) for index, action in indexed_actions]
