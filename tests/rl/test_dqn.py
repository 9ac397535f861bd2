"""Tests for repro.rl.dqn and repro.rl.drqn."""

import numpy as np
import pytest

from repro.nn.network import FeedForwardQNetwork
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.drqn import build_dqn_agent, build_drqn_agent
from repro.rl.environment import Environment, Transition
from repro.rl.schedules import ConstantSchedule

from tests.rl.reference import assert_same_weights, train_sequential


class TwoArmBandit(Environment):
    """A contextual two-step environment where action 1 is always better."""

    def __init__(self, window=1, cells=2, episode_length=20):
        self.window = window
        self.cells = cells
        self.episode_length = episode_length
        self.steps = 0

    @property
    def n_actions(self):
        return self.cells

    def reset(self):
        self.steps = 0
        return np.zeros((self.window, self.cells))

    def step(self, action):
        self.steps += 1
        reward = 1.0 if action == 1 else -1.0
        done = self.steps >= self.episode_length
        state = np.zeros((self.window, self.cells))
        return state, reward, done, {}


def tiny_config(**overrides):
    defaults = dict(
        discount=0.9,
        batch_size=4,
        replay_capacity=200,
        min_replay_size=8,
        target_update_interval=10,
        learn_every=1,
    )
    defaults.update(overrides)
    return DQNConfig(**defaults)


class TestDQNConfig:
    def test_min_replay_below_batch_raises(self):
        with pytest.raises(ValueError):
            DQNConfig(batch_size=32, min_replay_size=8)

    def test_capacity_below_min_replay_raises(self):
        with pytest.raises(ValueError):
            DQNConfig(replay_capacity=10, min_replay_size=100, batch_size=4)

    def test_invalid_discount_raises(self):
        with pytest.raises(ValueError):
            DQNConfig(discount=1.5)


class TestActionSelection:
    def _agent(self, delta=0.0):
        network = FeedForwardQNetwork(3, 1, hidden_dims=(8,), seed=0)
        return DQNAgent(network, tiny_config(), exploration=ConstantSchedule(delta), seed=0)

    def test_greedy_respects_mask(self):
        agent = self._agent()
        state = np.zeros((1, 3))
        q = agent.q_values(state)
        best = int(np.argmax(q))
        mask = np.ones(3, dtype=bool)
        mask[best] = False
        assert agent.select_action(state, mask=mask) != best

    def test_all_masked_raises(self):
        agent = self._agent()
        with pytest.raises(ValueError):
            agent.select_action(np.zeros((1, 3)), mask=np.zeros(3, dtype=bool))

    def test_full_exploration_is_uniform_over_valid(self):
        agent = self._agent(delta=1.0)
        mask = np.array([True, False, True])
        chosen = {agent.select_action(np.zeros((1, 3)), mask=mask) for _ in range(50)}
        assert chosen <= {0, 2}
        assert len(chosen) == 2

    def test_greedy_flag_overrides_exploration(self):
        agent = self._agent(delta=1.0)
        # A non-zero state so that the Q-values are not all tied.
        state = np.random.default_rng(0).random((1, 3))
        best = int(np.argmax(agent.q_values(state)))
        assert agent.select_action(state, greedy=True) == best

    def test_wrong_mask_shape_raises(self):
        agent = self._agent()
        with pytest.raises(ValueError):
            agent.select_action(np.zeros((1, 3)), mask=np.ones(2, dtype=bool))


class TestBatchedSelection:
    """select_actions: the decision server's stacked-forward selection path."""

    def _agent(self, delta=0.0, seed=0):
        network = FeedForwardQNetwork(3, 1, hidden_dims=(8,), seed=0)
        return DQNAgent(
            network, tiny_config(), exploration=ConstantSchedule(delta), seed=seed
        )

    def _states(self, count):
        rng = np.random.default_rng(3)
        return [rng.random((1, 3)) for _ in range(count)]

    def test_matches_sequential_calls_including_rng_order(self):
        states = self._states(5)
        masks = [np.array([True, True, False])] * 5
        sequential_agent = self._agent(delta=0.5, seed=11)
        sequential = [
            sequential_agent.select_action(state, mask=mask)
            for state, mask in zip(states, masks)
        ]
        batched_agent = self._agent(delta=0.5, seed=11)
        batched = batched_agent.select_actions(states, masks=masks)
        assert batched == sequential

    def test_scalar_and_per_request_greedy_flags(self):
        states = self._states(3)
        agent = self._agent(delta=1.0)
        greedy_all = agent.select_actions(self._states(3), greedy=True)
        best = [int(np.argmax(agent.q_values(state))) for state in states]
        assert greedy_all == best
        mixed = agent.select_actions(states, greedy=[True, False, True])
        assert mixed[0] == best[0] and mixed[2] == best[2]

    def test_empty_batch(self):
        assert self._agent().select_actions([]) == []

    def test_length_mismatches_raise(self):
        agent = self._agent()
        with pytest.raises(ValueError):
            agent.select_actions(self._states(2), masks=[None])
        with pytest.raises(ValueError):
            agent.select_actions(self._states(2), greedy=[True])

    def test_all_masked_raises(self):
        agent = self._agent()
        with pytest.raises(ValueError):
            agent.select_actions(self._states(1), masks=[np.zeros(3, dtype=bool)])


class TestLearning:
    def test_observe_returns_none_before_min_replay(self):
        network = FeedForwardQNetwork(2, 1, hidden_dims=(8,), seed=0)
        agent = DQNAgent(network, tiny_config(min_replay_size=8, batch_size=4), seed=0)
        state = np.zeros((1, 2))
        for i in range(7):
            loss = agent.observe(Transition(state, 0, 0.0, state, False))
            assert loss is None
        loss = agent.observe(Transition(state, 0, 0.0, state, False))
        assert loss is not None

    def test_target_network_updates_on_interval(self):
        network = FeedForwardQNetwork(2, 1, hidden_dims=(8,), seed=0)
        agent = DQNAgent(
            network,
            tiny_config(target_update_interval=3, min_replay_size=4, batch_size=4),
            seed=0,
        )
        state = np.random.default_rng(0).random((1, 2))
        for i in range(20):
            agent.observe(Transition(state, i % 2, 1.0, state, False))
        online_q = agent.online.predict(state[None, ...])
        target_q = agent.target.predict(state[None, ...])
        # After several target syncs the two cannot be arbitrarily far apart;
        # verify a sync actually happened by forcing one more and comparing.
        agent.sync_target()
        assert np.allclose(
            agent.online.predict(state[None, ...]), agent.target.predict(state[None, ...])
        )
        del online_q, target_q

    def test_learn_requires_filled_buffer(self):
        network = FeedForwardQNetwork(2, 1, hidden_dims=(8,), seed=0)
        agent = DQNAgent(network, tiny_config(), seed=0)
        with pytest.raises(ValueError):
            agent.learn()

    def test_agent_learns_bandit(self):
        agent = build_dqn_agent(
            2,
            1,
            hidden_dims=(16,),
            learning_rate=0.02,
            config=tiny_config(),
            exploration=ConstantSchedule(0.3),
            seed=0,
        )
        env = TwoArmBandit(window=1, cells=2)
        agent.train_episodes_vectorized([env], episodes=15, log_every=0)
        q = agent.q_values(np.zeros((1, 2)))
        assert q[1] > q[0]

    def test_train_returns_one_stats_per_episode(self):
        agent = build_dqn_agent(2, 1, hidden_dims=(8,), config=tiny_config(), seed=0)
        env = TwoArmBandit(window=1, cells=2, episode_length=5)
        history = agent.train_episodes_vectorized([env], episodes=3, log_every=0)
        assert len(history) == 3
        assert all(stats.steps == 5 for stats in history)


class TestVectorizedTraining:
    def _fresh_agent(self, seed=0):
        return build_dqn_agent(
            2,
            1,
            hidden_dims=(8,),
            config=tiny_config(),
            exploration=ConstantSchedule(0.3),
            seed=seed,
        )

    def test_k1_matches_sequential_bitwise(self):
        sequential = self._fresh_agent()
        history_seq = train_sequential(sequential, TwoArmBandit(episode_length=12), 6)
        vectorized = self._fresh_agent()
        from repro.rl.vector_env import VectorEnv

        history_vec = vectorized.train_episodes_vectorized(
            VectorEnv([TwoArmBandit(episode_length=12)]), episodes=6, log_every=0
        )
        assert [s.total_reward for s in history_seq] == [s.total_reward for s in history_vec]
        assert [s.steps for s in history_seq] == [s.steps for s in history_vec]
        assert_same_weights(sequential, vectorized)

    def test_k3_runs_requested_episode_budget(self):
        agent = self._fresh_agent()
        envs = [TwoArmBandit(episode_length=10) for _ in range(3)]
        history = agent.train_episodes_vectorized(envs, episodes=7, log_every=0)
        assert len(history) == 7
        assert all(stats.steps == 10 for stats in history)
        assert sorted(stats.episode for stats in history) == list(range(7))

    def test_more_envs_than_episodes(self):
        agent = self._fresh_agent()
        envs = [TwoArmBandit(episode_length=5) for _ in range(4)]
        history = agent.train_episodes_vectorized(envs, episodes=2, log_every=0)
        assert len(history) == 2

    def test_vectorized_agent_learns_bandit(self):
        agent = build_dqn_agent(
            2,
            1,
            hidden_dims=(16,),
            learning_rate=0.02,
            config=tiny_config(),
            exploration=ConstantSchedule(0.3),
            seed=0,
        )
        envs = [TwoArmBandit(window=1, cells=2) for _ in range(4)]
        agent.train_episodes_vectorized(envs, episodes=16, log_every=0)
        q = agent.q_values(np.zeros((1, 2)))
        assert q[1] > q[0]


class TestWeights:
    def test_set_weights_syncs_online_and_target(self):
        agent_a = build_drqn_agent(3, 2, lstm_hidden=6, dense_hidden=(6,), seed=0)
        agent_b = build_drqn_agent(3, 2, lstm_hidden=6, dense_hidden=(6,), seed=42)
        agent_b.set_weights(agent_a.get_weights())
        state = np.random.default_rng(0).integers(0, 2, (1, 2, 3)).astype(float)
        assert np.allclose(agent_a.q_values(state[0]), agent_b.q_values(state[0]))
        assert np.allclose(
            agent_b.online.predict(state), agent_b.target.predict(state)
        )


class TestBuilders:
    def test_drqn_builder_shapes(self):
        agent = build_drqn_agent(7, 3, lstm_hidden=8, dense_hidden=(8,), seed=0)
        assert agent.n_actions == 7
        q = agent.q_values(np.zeros((3, 7)))
        assert q.shape == (7,)

    def test_dqn_builder_shapes(self):
        agent = build_dqn_agent(5, 2, hidden_dims=(8,), seed=0)
        assert agent.n_actions == 5
        assert agent.q_values(np.zeros((2, 5))).shape == (5,)
