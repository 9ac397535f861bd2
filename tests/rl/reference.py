"""The sequential deep Q-learning loop, kept as the K=1 reference.

:meth:`~repro.rl.dqn.DQNAgent.train_episodes_vectorized` is the agent's one
training loop.  With a single environment and per-transition learning it
must reproduce this loop bit for bit: the same exploration and replay
draws in the same order, hence the same rewards and the same weights.  The
parity tests train one agent here and one through the lockstep loop and
compare them with ``==``.
"""

from typing import List

import numpy as np

from repro.rl.dqn import DQNAgent, EpisodeStats
from repro.rl.environment import Environment
from repro.utils.validation import check_positive_int


def train_episode(agent: DQNAgent, env: Environment, max_steps: int = 10_000) -> EpisodeStats:
    """Interact with ``env`` for one episode, learning as transitions arrive."""
    state = env.reset()
    total_reward = 0.0
    losses: List[float] = []
    episode_index = getattr(agent, "_episode_counter", 0)
    steps_taken = 0
    for _ in range(check_positive_int(max_steps, "max_steps")):
        mask = env.valid_action_mask()
        action = agent.select_action(state, mask=mask)
        next_state, reward, done, info = env.step(action)
        loss = agent.observe_step(state, action, reward, next_state, done, info=info)
        if loss is not None:
            losses.append(loss)
        total_reward += reward
        state = next_state
        steps_taken += 1
        if done:
            break
    agent._episode_counter = episode_index + 1
    return EpisodeStats(
        episode=episode_index,
        total_reward=total_reward,
        steps=steps_taken,
        mean_loss=float(np.mean(losses)) if losses else float("nan"),
        final_delta=agent.exploration(agent.total_steps),
    )


def train_sequential(
    agent: DQNAgent,
    env: Environment,
    episodes: int,
    *,
    max_steps_per_episode: int = 10_000,
) -> List[EpisodeStats]:
    """Train for a fixed number of episodes and return per-episode stats."""
    episodes = check_positive_int(episodes, "episodes")
    return [
        train_episode(agent, env, max_steps=max_steps_per_episode) for _ in range(episodes)
    ]


def assert_same_weights(left, right) -> None:
    """Assert two agents (or networks) hold bitwise-equal weights."""
    for layer_left, layer_right in zip(left.get_weights(), right.get_weights()):
        assert layer_left.keys() == layer_right.keys()
        for name in layer_left:
            assert np.array_equal(layer_left[name], layer_right[name]), name
