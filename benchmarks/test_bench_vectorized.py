"""Regression benchmark for the vectorized training engine.

Three guarantees are checked:

* **Exactness** — with a single environment, the vectorized rollout loop
  must reproduce the sequential reference loop (``tests/rl/reference.py``)
  bit for bit (same seeds → same per-episode rewards and same final
  weights).  This is what makes ``vector_envs=1`` (fused learning off) a
  faithful replica of the paper's protocol.
* **Throughput** — stepping K environments in lockstep (batched action
  selection, batched quality-check inference) must beat the sequential
  loop.
* **Fused learning** — the fused global-step schedule (one minibatch per
  lockstep step instead of K per-transition updates) must beat the
  per-transition path at K=8 by ≥ 1.3×.

Steps/second for the per-transition path at K ∈ {1, 4, 8} and the fused
path at K ∈ {1, 4, 8, 16} is recorded to
``benchmarks/out/vectorized.json``.
"""

from repro.core.drcell import DRCellAgent
from repro.core.trainer import DRCellTrainer
from repro.experiments.config import SMALL_SCALE, TINY_SCALE
from repro.experiments.timing import run_timing
from repro.quality.epsilon_p import QualityRequirement
from repro.rl.vector_env import VectorEnv

from benchmarks.conftest import write_result
from tests.rl.reference import assert_same_weights, train_sequential

REQUIREMENT = QualityRequirement(epsilon=0.5, p=0.9, metric="mae")


def _training_setup(scale, seed=0):
    dataset = scale.sensorscope_dataset("temperature", seed=seed)
    train_set, _ = dataset.train_test_split(scale.training_days)
    trainer = DRCellTrainer(
        scale.drcell_config(seed=seed), inference=scale.inference(seed=seed)
    )
    return train_set, trainer


def test_vectorized_k1_bitwise_identical_to_sequential():
    """K=1 must reproduce the sequential path exactly, reward for reward."""
    train_set, trainer = _training_setup(TINY_SCALE)
    sequential_agent = DRCellAgent.build(train_set.n_cells, trainer.config)
    sequential_env = trainer.build_environment(train_set, REQUIREMENT)
    sequential = train_sequential(
        sequential_agent.agent, sequential_env, trainer.config.episodes
    )

    train_set, trainer = _training_setup(TINY_SCALE)
    vectorized_agent = DRCellAgent.build(train_set.n_cells, trainer.config)
    vectorized_env = VectorEnv([trainer.build_environment(train_set, REQUIREMENT)])
    vectorized = vectorized_agent.agent.train_episodes_vectorized(
        vectorized_env, trainer.config.episodes, log_every=0
    )

    sequential_rewards = [stats.total_reward for stats in sequential]
    vectorized_rewards = [stats.total_reward for stats in vectorized]
    assert sequential_rewards == vectorized_rewards  # bitwise: exact float equality
    assert [s.steps for s in sequential] == [s.steps for s in vectorized]
    assert_same_weights(sequential_agent, vectorized_agent)


def test_bench_vectorized_throughput(benchmark):
    """Record fused/per-transition steps/second across K on the small scale."""
    results = {}
    for k in (1, 4, 8):
        results[(k, False)] = run_timing(scale=SMALL_SCALE, seed=0, vector_envs=k)
    for k in (1, 4, 8, 16):
        results[(k, True)] = run_timing(
            scale=SMALL_SCALE, seed=0, vector_envs=k, fused=True
        )
    benchmark.pedantic(
        run_timing,
        kwargs=dict(scale=SMALL_SCALE, seed=0, vector_envs=8, fused=True),
        rounds=1,
        iterations=1,
    )

    rows = []
    base = results[(1, False)].steps_per_second
    for (k, fused), result in results.items():
        row = result.as_dict()
        row["speedup_vs_k1"] = round(result.steps_per_second / base, 2)
        rows.append(row)
    write_result("vectorized", rows)

    # The lockstep engine must actually pay off; 1.5× at K=8 is far below
    # the measured ~3×, so this stays robust to machine noise.
    assert results[(8, False)].steps_per_second > 1.5 * base
    assert results[(4, False)].steps_per_second > base
    # The fused global-step schedule removes the per-transition NN update
    # loop; the acceptance floor is 1.3× over per-transition K=8.
    assert (
        results[(8, True)].steps_per_second
        > 1.3 * results[(8, False)].steps_per_second
    )
    assert results[(16, True)].steps_per_second > results[(8, False)].steps_per_second
