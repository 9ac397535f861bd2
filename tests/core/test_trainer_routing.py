"""DRCellTrainer routing: one training loop, and which completion each fleet uses.

Both trainer entry points drive ``DQNAgent.train_episodes_vectorized``.
The paper's protocol (``vector_envs=1``, fused learning off) hands it a
plain one-environment ``VectorEnv``, so every reward check runs the
Gauss–Seidel ``complete``; every other fleet batches its reward checks
through ``complete_batch``.
"""

import pytest

from repro.core.config import DRCellConfig
from repro.core.drcell import DRCellAgent
from repro.core.trainer import DRCellTrainer
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.epsilon_p import QualityRequirement
from repro.rl.dqn import DQNConfig

from tests.rl.reference import assert_same_weights, train_sequential

REQUIREMENT = QualityRequirement(epsilon=0.5, p=0.9, metric="mae")


def small_config(**overrides):
    defaults = dict(
        window=2,
        episodes=2,
        lstm_hidden=8,
        dense_hidden=(8,),
        exploration_start=0.8,
        exploration_end=0.1,
        exploration_decay_steps=100,
        min_cells_before_check=2,
        history_window=4,
        max_episode_cycles=6,
        dqn=DQNConfig(
            batch_size=8,
            replay_capacity=500,
            min_replay_size=16,
            target_update_interval=20,
            learn_every=2,
        ),
        seed=0,
    )
    defaults.update(overrides)
    return DRCellConfig(**defaults)


def als():
    return CompressiveSensingInference(iterations=4, seed=0)


class TestPaperProtocol:
    def test_vector_envs_1_matches_sequential_reference(self, tiny_temperature_dataset):
        """train() at K=1 equals the sequential loop on a real environment."""
        config = small_config()
        agent, report = DRCellTrainer(config, inference=als()).train(
            tiny_temperature_dataset, REQUIREMENT
        )

        reference = DRCellAgent.build(tiny_temperature_dataset.n_cells, config)
        env = DRCellTrainer(config, inference=als()).build_environment(
            tiny_temperature_dataset, REQUIREMENT
        )
        history = train_sequential(reference.agent, env, config.episodes)

        assert report.episode_rewards == [stats.total_reward for stats in history]
        assert report.total_steps == reference.agent.total_steps
        assert_same_weights(agent, reference)


class TestCompletionPath:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"complete": 0, "complete_batch": 0}
        for name in counts:
            original = getattr(CompressiveSensingInference, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(CompressiveSensingInference, name, spy)
        return counts

    def test_paper_protocol_makes_only_complete_calls(self, calls, tiny_temperature_dataset):
        DRCellTrainer(small_config(), inference=als()).train(
            tiny_temperature_dataset, REQUIREMENT
        )
        assert calls["complete"] > 0
        assert calls["complete_batch"] == 0

    def test_fused_k1_makes_only_complete_batch_calls(self, calls, tiny_temperature_dataset):
        DRCellTrainer(small_config(fused_learning=True), inference=als()).train(
            tiny_temperature_dataset, REQUIREMENT
        )
        assert calls["complete"] == 0
        assert calls["complete_batch"] > 0

    def test_lockstep_over_one_dataset_makes_only_complete_batch_calls(
        self, calls, tiny_temperature_dataset
    ):
        DRCellTrainer(small_config(), inference=als()).train_lockstep(
            [tiny_temperature_dataset], REQUIREMENT
        )
        assert calls["complete"] == 0
        assert calls["complete_batch"] > 0
