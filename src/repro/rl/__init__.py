"""Reinforcement-learning substrate.

Implements the general-purpose machinery DR-Cell builds on:

* :class:`~repro.rl.replay.ArrayReplayBuffer` — array-backed experience
  replay (paper §4.3).
* :class:`~repro.rl.vector_env.VectorEnv` — K independent environments
  stepped in lockstep for the vectorized training engine.
* :mod:`~repro.rl.schedules` — δ-greedy exploration schedules (the paper's
  "δ-greedy algorithm" with a decaying δ).
* :class:`~repro.rl.qlearning.TabularQLearner` — Algorithm 1's Q-table
  learner for small state spaces.
* :class:`~repro.rl.dqn.DQNAgent` — Algorithm 2's deep Q-learning loop with
  experience replay and fixed Q-targets, parameterised by any
  :class:`~repro.nn.network.QNetworkBase` (feed-forward DQN or recurrent
  DRQN).
* :class:`~repro.rl.environment.Environment` — the minimal episodic
  environment protocol shared by the agents and the Sparse-MCS wrapper.
"""

from repro.rl.environment import Environment, Transition
from repro.rl.replay import ArrayReplayBuffer
from repro.rl.vector_env import VectorEnv
from repro.rl.schedules import ConstantSchedule, ExponentialDecaySchedule, LinearDecaySchedule, Schedule
from repro.rl.qlearning import TabularQLearner, TabularQLearningConfig
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.drqn import build_drqn_agent, build_dqn_agent

__all__ = [
    "Environment",
    "Transition",
    "ArrayReplayBuffer",
    "VectorEnv",
    "Schedule",
    "ConstantSchedule",
    "LinearDecaySchedule",
    "ExponentialDecaySchedule",
    "TabularQLearner",
    "TabularQLearningConfig",
    "DQNAgent",
    "DQNConfig",
    "build_drqn_agent",
    "build_dqn_agent",
]
