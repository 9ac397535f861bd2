"""Configuration of the DR-Cell mechanism.

Everything that parameterises DR-Cell — the state window, the reward
constants, the DRQN architecture and the training loop — lives in
:class:`DRCellConfig` so that experiments can be described as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.rl.dqn import DQNConfig
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


@dataclass
class DRCellConfig:
    """Hyper-parameters of DR-Cell.

    Attributes
    ----------
    window:
        Number of recent cycles k in the state ``S = [s_{-k+1}, …, s_0]``.
    cost:
        Per-submission cost c in the reward ``R = q·bonus − c``.
    bonus:
        Quality bonus R.  ``None`` means "use the number of cells", the value
        the paper's tabular example uses.
    recurrent:
        True (default) for the DRQN (LSTM) architecture the paper proposes;
        False for the dense-DQN ablation.
    lstm_hidden:
        LSTM hidden size (recurrent architecture).
    dense_hidden:
        Hidden widths of the dense head (recurrent architecture) or of the
        whole network (feed-forward architecture).
    learning_rate:
        Optimizer learning rate.
    episodes:
        Number of training episodes (one episode = one pass over the
        training cycles).
    exploration_start / exploration_end / exploration_decay_steps:
        δ-greedy schedule: linear decay from start to end over the given
        number of agent steps.
    min_cells_before_check:
        Submissions collected in a cycle before the first quality check
        during training.
    history_window:
        Past cycles included in the inference matrix during training.
    max_episode_cycles:
        Optional cap on cycles per episode (episodes start at random
        offsets), which shortens episodes for large training sets.
    vector_envs:
        Number of training environments stepped in lockstep by the
        vectorized engine.  The default 1 preserves the paper's exact
        sequential protocol (and its seeded behaviour bit for bit); values
        above 1 batch action selection and the quality-check inference
        across K environments for throughput, at the cost of bit-exactness
        of the inference (see ``CompressiveSensingInference.complete_batch``).
    fused_learning:
        When True, the vectorized engine learns at global-step granularity:
        one minibatch TD update per lockstep step across the K environments
        (spanning all K fresh transitions, gathered from the replay ring in
        one strided read) instead of K per-transition updates in environment
        order.  This removes the NN update loop as the large-K bottleneck.
        The default False preserves the per-transition protocol; combined
        with ``vector_envs = 1`` that is the paper's exact sequential
        behaviour bit for bit.  Setting ``fused_learning = True`` with
        ``vector_envs = 1`` also batches that single environment's quality
        checks (see :meth:`~repro.core.trainer.DRCellTrainer.train`).
    dqn:
        Inner deep-Q-learning loop configuration (replay, batch size, target
        update interval, discount).
    seed:
        Master seed for the agent, network initialisation, and exploration.
    """

    window: int = 2
    cost: float = 1.0
    bonus: Optional[float] = None
    recurrent: bool = True
    lstm_hidden: int = 64
    dense_hidden: Tuple[int, ...] = (64,)
    learning_rate: float = 1e-3
    episodes: int = 20
    exploration_start: float = 1.0
    exploration_end: float = 0.05
    exploration_decay_steps: int = 2_000
    min_cells_before_check: int = 2
    history_window: int = 12
    max_episode_cycles: Optional[int] = None
    vector_envs: int = 1
    fused_learning: bool = False
    dqn: DQNConfig = field(default_factory=DQNConfig)
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        check_positive_int(self.window, "window")
        check_non_negative(self.cost, "cost")
        if self.bonus is not None:
            check_non_negative(self.bonus, "bonus")
        check_positive_int(self.lstm_hidden, "lstm_hidden")
        self.dense_hidden = tuple(
            check_positive_int(width, "dense_hidden entry") for width in self.dense_hidden
        )
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.episodes, "episodes")
        check_positive_int(self.exploration_decay_steps, "exploration_decay_steps")
        check_positive_int(self.min_cells_before_check, "min_cells_before_check")
        check_positive_int(self.history_window, "history_window")
        if self.max_episode_cycles is not None:
            check_positive_int(self.max_episode_cycles, "max_episode_cycles")
        check_positive_int(self.vector_envs, "vector_envs")
        self.fused_learning = bool(self.fused_learning)
        if not 0.0 <= self.exploration_end <= self.exploration_start <= 1.0:
            raise ValueError(
                "exploration schedule must satisfy 0 <= end <= start <= 1, got "
                f"start={self.exploration_start}, end={self.exploration_end}"
            )

    def resolve_bonus(self, n_cells: int) -> float:
        """The reward bonus actually used for an area with ``n_cells`` cells."""
        return float(n_cells) if self.bonus is None else float(self.bonus)

    def scaled_for_quick_run(self) -> "DRCellConfig":
        """A copy with drastically reduced training effort (tests, smoke runs)."""
        return replace(
            self,
            episodes=2,
            exploration_decay_steps=200,
            lstm_hidden=16,
            dense_hidden=(16,),
            dqn=DQNConfig(
                discount=self.dqn.discount,
                batch_size=8,
                replay_capacity=500,
                min_replay_size=16,
                target_update_interval=25,
                learn_every=2,
            ),
        )
