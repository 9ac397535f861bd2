"""Ablation benchmarks for DR-Cell design choices.

Two ablations of the design choices the paper motivates but does not sweep:

* recurrent (LSTM) DRQN vs the dense-layer DQN the paper argues against
  (§4.3: "the dense layers cannot catch the temporal pattern well");
* the state window length k (how many recent cycles the state keeps).

Both train at a reduced budget and compare the training-time selections per
cycle, which is the quantity the reward directly optimises.
"""

import pytest

from repro.core.trainer import DRCellTrainer
from repro.experiments.config import SMALL_SCALE
from repro.quality.epsilon_p import QualityRequirement

from benchmarks.conftest import write_result


@pytest.fixture(scope="module")
def training_data():
    dataset = SMALL_SCALE.sensorscope_dataset("temperature", seed=0)
    train_set, _ = dataset.train_test_split(SMALL_SCALE.training_days)
    requirement = QualityRequirement(epsilon=0.5, p=0.9, metric="mae")
    return train_set, requirement


def _train(train_set, requirement, *, recurrent=True, window=2, episodes=3, seed=0):
    config = SMALL_SCALE.drcell_config(recurrent=recurrent, window=window, seed=seed)
    config.episodes = episodes
    trainer = DRCellTrainer(config, inference=SMALL_SCALE.inference(seed=seed))
    _, report = trainer.train(train_set, requirement)
    return report


def test_bench_ablation_recurrent_vs_dense(benchmark, training_data):
    train_set, requirement = training_data
    drqn_report = benchmark.pedantic(
        _train,
        args=(train_set, requirement),
        kwargs=dict(recurrent=True),
        rounds=1,
        iterations=1,
    )
    dqn_report = _train(train_set, requirement, recurrent=False)
    rows = [
        {
            "architecture": "DRQN (LSTM)",
            "selections_per_cycle_last_episode": round(
                drqn_report.mean_selections_per_cycle_last_episode, 2
            ),
            "mean_episode_reward": round(drqn_report.mean_episode_reward, 1),
            "train_seconds": round(drqn_report.wall_clock_seconds, 2),
        },
        {
            "architecture": "DQN (dense)",
            "selections_per_cycle_last_episode": round(
                dqn_report.mean_selections_per_cycle_last_episode, 2
            ),
            "mean_episode_reward": round(dqn_report.mean_episode_reward, 1),
            "train_seconds": round(dqn_report.wall_clock_seconds, 2),
        },
    ]
    write_result("ablation_recurrent", rows)
    # Both architectures must at least learn to stop short of sensing
    # everything every cycle.
    assert drqn_report.mean_selections_per_cycle_last_episode < train_set.n_cells
    assert dqn_report.mean_selections_per_cycle_last_episode < train_set.n_cells


def test_bench_ablation_state_window(benchmark, training_data):
    train_set, requirement = training_data
    report_w2 = benchmark.pedantic(
        _train,
        args=(train_set, requirement),
        kwargs=dict(window=2),
        rounds=1,
        iterations=1,
    )
    rows = [
        {
            "window": 2,
            "selections_per_cycle_last_episode": round(
                report_w2.mean_selections_per_cycle_last_episode, 2
            ),
            "train_seconds": round(report_w2.wall_clock_seconds, 2),
        }
    ]
    for window in (1, 4):
        report = _train(train_set, requirement, window=window)
        rows.append(
            {
                "window": window,
                "selections_per_cycle_last_episode": round(
                    report.mean_selections_per_cycle_last_episode, 2
                ),
                "train_seconds": round(report.wall_clock_seconds, 2),
            }
        )
        assert report.mean_selections_per_cycle_last_episode < train_set.n_cells
    write_result("ablation_window", rows)
