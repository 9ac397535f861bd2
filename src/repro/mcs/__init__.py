"""Sparse Mobile CrowdSensing framework.

This subpackage ties the substrates together into the system the paper
evaluates DR-Cell inside:

* :class:`~repro.mcs.task.SensingTask` — a dataset plus its (ε, p)-quality
  requirement, inference algorithm and quality assessor.
* :class:`~repro.mcs.policies.CellSelectionPolicy` — the policy interface;
  :class:`~repro.mcs.random_policy.RandomSelectionPolicy` and
  :class:`~repro.mcs.qbc.QBCSelectionPolicy` are the paper's baselines.
* :class:`~repro.mcs.campaign.BatchedCampaignRunner` — the cycle loop:
  select cells one by one until the quality assessor is satisfied, then
  infer the rest.  It runs P policies / requirement settings in lockstep,
  with the per-submission assessments and end-of-cycle completions batched;
  one campaign is the P=1 case, ``runner.run([policy])[0]``.  The loop is
  written once, as a protocol of typed phases that ``run`` answers inline.
* :class:`~repro.mcs.served.ServedCampaignRunner` — the same protocol
  answered by a shared :class:`~repro.serve.server.DecisionServer`, so
  independent fleets fuse work across campaigns.
* :class:`~repro.mcs.environment.SparseMCSEnvironment` — the reinforcement-
  learning view of the same loop, used to train DR-Cell.
* :class:`~repro.mcs.results.CampaignResult` — per-cycle records and
  aggregate statistics (average selected cells, (ε, p) compliance).
"""

from repro.mcs.task import SensingTask
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.random_policy import RandomSelectionPolicy
from repro.mcs.qbc import QBCSelectionPolicy
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig
from repro.mcs.environment import SparseMCSEnvironment, StateEncoder
from repro.mcs.results import CampaignResult, CycleRecord
from repro.mcs.served import ServedCampaignRunner

__all__ = [
    "SensingTask",
    "CellSelectionPolicy",
    "RandomSelectionPolicy",
    "QBCSelectionPolicy",
    "BatchedCampaignRunner",
    "CampaignConfig",
    "ServedCampaignRunner",
    "SparseMCSEnvironment",
    "StateEncoder",
    "CampaignResult",
    "CycleRecord",
]
