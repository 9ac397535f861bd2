"""Tests for the fused global-step learning mode of the vectorized trainer.

Three contracts:

* ``fused=False`` (the default) at K=1 stays bit-exact with the sequential
  reference loop (``tests/rl/reference.py``) — the fused code path must not
  perturb the per-transition protocol.
* ``fused=True`` learns at global-step granularity: exactly one minibatch
  update per lockstep step, spanning all K fresh transitions.
* Fused training is statistically equivalent to the per-transition path:
  on the same seeded task the K=8 fused run must reach rewards in the same
  band as the K=8 per-transition run (both runs are deterministic, so the
  tolerance guards real behaviour, not flakiness).
"""

import numpy as np
import pytest

from repro.nn.network import FeedForwardQNetwork
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.environment import Environment
from repro.rl.schedules import LinearDecaySchedule
from repro.rl.vector_env import VectorEnv

from tests.rl.reference import train_sequential


class BanditChain(Environment):
    """A tiny deterministic chain where the last action is always best."""

    def __init__(self, window=2, cells=3, episode_length=24, seed=0):
        self.window = window
        self.cells = cells
        self.episode_length = episode_length
        self._rng = np.random.default_rng(seed)
        self.steps = 0

    @property
    def n_actions(self):
        return self.cells

    def reset(self):
        self.steps = 0
        return np.zeros((self.window, self.cells))

    def step(self, action):
        self.steps += 1
        reward = 1.0 if action == self.cells - 1 else -0.25
        done = self.steps >= self.episode_length
        state = np.zeros((self.window, self.cells))
        state[-1, action] = 1.0
        return state, reward, done, {}


def _config(**overrides):
    defaults = dict(
        discount=0.9,
        batch_size=8,
        replay_capacity=512,
        min_replay_size=16,
        target_update_interval=20,
        learn_every=1,
    )
    defaults.update(overrides)
    return DQNConfig(**defaults)


def _agent(config, seed=0):
    network = FeedForwardQNetwork(3, 2, hidden_dims=(16,), seed=seed)
    return DQNAgent(
        network,
        config,
        exploration=LinearDecaySchedule(1.0, 0.1, 200),
        seed=seed,
    )


def _weights_equal(left, right):
    for layer_left, layer_right in zip(left.get_weights(), right.get_weights()):
        for name in layer_left:
            if not np.array_equal(layer_left[name], layer_right[name]):
                return False
    return True


class TestFusedOffParity:
    def test_k1_fused_off_bitwise_identical_to_sequential(self):
        """The fused branch must leave the default path untouched."""
        sequential = _agent(_config())
        history_seq = train_sequential(sequential, BanditChain(), 4)

        vectorized = _agent(_config())
        history_vec = vectorized.train_episodes_vectorized(
            VectorEnv([BanditChain()]), 4, log_every=0, fused=False
        )

        assert [s.total_reward for s in history_seq] == [
            s.total_reward for s in history_vec
        ]
        assert [s.steps for s in history_seq] == [s.steps for s in history_vec]
        assert _weights_equal(sequential.online, vectorized.online)

    def test_config_default_is_fused_off(self):
        assert DQNConfig().fused_learning is False


class TestFusedSchedule:
    def test_one_learn_step_per_global_step(self):
        """Fused K=4: learn steps count global steps, not transitions."""
        agent = _agent(_config(min_replay_size=16, batch_size=8, learn_every=1))
        envs = VectorEnv([BanditChain(seed=i) for i in range(4)])
        agent.train_episodes_vectorized(envs, 4, log_every=0, fused=True)
        # Every global step past warm-up learns exactly once; with K=4 the
        # per-transition schedule would have learned ~4x as often.
        assert agent.global_steps > 0
        warmup_steps = int(np.ceil(16 / 4))
        assert agent.learn_steps <= agent.global_steps
        assert agent.learn_steps >= agent.global_steps - warmup_steps
        assert agent.total_steps >= 4 * agent.global_steps - 3 * 24  # finishing envs shrink K

    def test_learn_every_counts_global_steps(self):
        agent = _agent(_config(learn_every=3, min_replay_size=16))
        envs = VectorEnv([BanditChain(seed=i) for i in range(4)])
        agent.train_episodes_vectorized(envs, 4, log_every=0, fused=True)
        # At most one learn per learn_every global steps.
        assert agent.learn_steps <= agent.global_steps // 3 + 1

    def test_fused_flag_defaults_from_config(self):
        agent = _agent(_config(fused_learning=True))
        envs = VectorEnv([BanditChain(seed=i) for i in range(2)])
        agent.train_episodes_vectorized(envs, 2, log_every=0)
        assert agent.global_steps > 0  # only the fused branch advances this

    def test_minibatch_spans_fresh_transitions(self, monkeypatch):
        """learn_fused always includes the K transitions just inserted."""
        agent = _agent(_config(min_replay_size=16, batch_size=8))
        envs = VectorEnv([BanditChain(seed=i) for i in range(4)])
        seen_fresh = []
        original = agent.replay.recent_indices

        def spy(count):
            seen_fresh.append(count)
            return original(count)

        monkeypatch.setattr(agent.replay, "recent_indices", spy)
        agent.train_episodes_vectorized(envs, 4, log_every=0, fused=True)
        assert seen_fresh  # the fused learn ran
        assert all(1 <= fresh <= 4 for fresh in seen_fresh)
        assert max(seen_fresh) == 4  # full-fleet steps span all K

    def test_action_space_mismatch_raises(self):
        agent = _agent(_config())

        class FiveArm(BanditChain):
            def __init__(self):
                super().__init__(cells=5)

        with pytest.raises(ValueError, match="actions"):
            agent.train_episodes_vectorized(VectorEnv([FiveArm()]), 1, fused=True)


class TestFusedStatisticalParity:
    def test_k8_fused_rewards_match_per_transition_within_tolerance(self):
        """Same seeded task, K=8: fused and per-transition learning must land
        in the same reward band (deterministic runs; generous tolerance)."""
        episodes = 16

        def run(fused):
            agent = _agent(_config(), seed=0)
            envs = VectorEnv([BanditChain(seed=100 + i) for i in range(8)])
            history = agent.train_episodes_vectorized(
                envs, episodes, log_every=0, fused=fused
            )
            return agent, history

        _, fused_history = run(True)
        _, unfused_history = run(False)

        assert len(fused_history) == len(unfused_history) == episodes
        fused_rewards = np.array([s.total_reward for s in fused_history])
        unfused_rewards = np.array([s.total_reward for s in unfused_history])
        assert np.all(np.isfinite(fused_rewards))
        # The optimal per-episode return is 24; both learners must clearly
        # outperform uniform play (expected ~ -1.0 per episode at delta=1)
        # by the back half of training and land within 25% of each other.
        assert fused_rewards[episodes // 2 :].mean() > 5.0
        assert unfused_rewards[episodes // 2 :].mean() > 5.0
        gap = abs(fused_rewards.mean() - unfused_rewards.mean())
        assert gap <= 0.25 * 24.0

    def test_fused_losses_are_finite_and_recorded(self):
        agent = _agent(_config())
        envs = VectorEnv([BanditChain(seed=i) for i in range(4)])
        history = agent.train_episodes_vectorized(envs, 8, log_every=0, fused=True)
        losses = [s.mean_loss for s in history if not np.isnan(s.mean_loss)]
        assert losses
        assert np.all(np.isfinite(losses))
