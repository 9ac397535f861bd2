"""DR-Cell: Cell Selection with Deep Reinforcement Learning in Sparse Mobile Crowdsensing.

A from-scratch reproduction of Wang et al., ICDCS 2018.  The package is
organised bottom-up:

* :mod:`repro.nn` — NumPy neural-network substrate (dense + LSTM layers,
  optimizers, losses) used by the DRQN.
* :mod:`repro.rl` — reinforcement-learning substrate (replay, schedules,
  tabular Q-learning, DQN/DRQN agents).
* :mod:`repro.inference` — compressive-sensing matrix completion and the
  other inference algorithms Sparse MCS relies on.
* :mod:`repro.quality` — the (ε, p)-quality requirement and the
  leave-one-out Bayesian quality assessor.
* :mod:`repro.datasets` — synthetic Sensor-Scope-scale and U-Air-scale
  sensing datasets.
* :mod:`repro.mcs` — the Sparse MCS framework: tasks, campaigns, the RANDOM
  and QBC baselines, and the RL training environment.
* :mod:`repro.core` — DR-Cell itself: state/action/reward model, the DRQN
  agent, the tabular variant, the trainer and transfer learning.
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.
* :mod:`repro.api` — the public declarative layer: component registries,
  JSON-round-trippable :class:`~repro.api.specs.ScenarioSpec` scenarios, and
  the :class:`~repro.api.session.Session` facade
  (``python -m repro.api.cli run scenario.json``).

Quickstart
----------
>>> from repro import quick_campaign
>>> result = quick_campaign(n_cells=12, seed=0)
>>> result.mean_selected_per_cycle > 0
True
"""

from repro.core import (
    DRCellAgent,
    DRCellConfig,
    DRCellPolicy,
    DRCellTrainer,
    TabularDRCell,
    transfer_train,
)
from repro.datasets import SensingDataset, generate_sensorscope, generate_uair
from repro.mcs import (
    BatchedCampaignRunner,
    CampaignConfig,
    QBCSelectionPolicy,
    RandomSelectionPolicy,
    SensingTask,
    SparseMCSEnvironment,
)
from repro.quality import QualityRequirement

# Imported last: the api layer's session facade builds on every subpackage
# above (the registries themselves are import-cycle-free).
from repro.api import ScenarioSpec, Session, run_scenario

__version__ = "1.0.0"

__all__ = [
    "DRCellAgent",
    "DRCellConfig",
    "DRCellPolicy",
    "DRCellTrainer",
    "TabularDRCell",
    "transfer_train",
    "SensingDataset",
    "generate_sensorscope",
    "generate_uair",
    "BatchedCampaignRunner",
    "CampaignConfig",
    "QBCSelectionPolicy",
    "RandomSelectionPolicy",
    "SensingTask",
    "SparseMCSEnvironment",
    "QualityRequirement",
    "ScenarioSpec",
    "Session",
    "run_scenario",
    "quick_campaign",
    "__version__",
]


def quick_campaign(n_cells: int = 12, *, seed: int = 0):
    """Run a tiny end-to-end Sparse MCS campaign with a random policy.

    Intended as a smoke test and documentation example: generates a small
    synthetic temperature dataset, wraps it in a task with a loose quality
    requirement, and runs a short campaign with the RANDOM baseline.
    Returns the :class:`~repro.mcs.results.CampaignResult`.
    """
    dataset = generate_sensorscope(
        "temperature", n_cells=n_cells, duration_days=1.0, cycle_length_hours=2.0, seed=seed
    )
    task = SensingTask.default_temperature_task(dataset, epsilon=1.0, p=0.8, seed=seed)
    runner = BatchedCampaignRunner(task, CampaignConfig(min_cells_per_cycle=2, assess_every=2))
    return runner.run([RandomSelectionPolicy(seed=seed)], n_cycles=min(6, dataset.n_cycles))[0]
