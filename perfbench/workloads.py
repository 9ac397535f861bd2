"""The three benchmark workloads, built through the public ``repro.api`` facade.

Each workload is a pair of functions: ``setup(seed)`` returns a ready
:class:`~repro.api.Session` (scenario resolved, datasets generated, agents
trained where the workload needs them), and ``run(session)`` executes the
measured call and returns a :class:`Outcome`.  A run mutates the session's
random streams, so the harness hands every run a deep copy of the set-up
session: repeated runs at one seed are then identical, which is what lets
the harness check exact counts and bitwise non-perturbation.

All load comes from one process and every workload is closed-loop: a
campaign submits its next request only after the previous one resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.api import Session
from repro.api.specs import DatasetSpec, PolicySpec, RequirementSpec, SlotSpec, TrainingSpec
from repro.experiments.config import SMALL_SCALE
from repro.experiments.figure6 import figure6_scenario
from repro.serve import RequestJournal

SCALE = SMALL_SCALE
P = 0.9
#: Both datasets of the two-dataset workloads run at this many cells.
N_CELLS = 20
#: (ε, metric) per dataset of the two-dataset workloads.
REQUIREMENTS = {"temperature": (0.5, "mae"), "pm25": (0.3, "classification")}
#: Concurrent copies of every served slot (so 6 slots give 12 campaigns).
SERVE_REPLICAS = 2


@dataclass
class Outcome:
    """What one measured run produced, in the form the checks and metrics need."""

    #: Operations the run attempted and the ones that failed its output checks.
    attempted: int
    failed: int
    problems: List[str]
    #: Exact results, compared bit for bit between runs at one seed.
    fingerprint: Any
    #: Work units of the workload's own rate metric (env steps or campaign-cycles).
    work: int
    #: Cell selections made: env steps in training, cells sensed in campaigns.
    selections: int
    #: Quality figures (episode reward, cells per cycle, ...), by metric name.
    quality: Dict[str, float] = field(default_factory=dict)
    #: The program's own exact counters, by metric name.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Extra objects the traced run reads (server stats, journal).
    extras: Dict[str, Any] = field(default_factory=dict)


# -- scenarios --------------------------------------------------------------------


def train_seq_spec(seed: int):
    """The paper's sequential training protocol: Figure 6 temperature at p=0.9."""
    return figure6_scenario(SCALE, "temperature", P, seed=seed)


def _dataset(task: str, seed: int) -> DatasetSpec:
    if task == "temperature":
        return DatasetSpec(
            "sensorscope",
            {
                "kind": "temperature",
                "n_cells": N_CELLS,
                "duration_days": SCALE.sensorscope_days,
                "cycle_length_hours": SCALE.sensorscope_cycle_hours,
                "seed": seed,
            },
        )
    return DatasetSpec(
        "uair",
        {
            "n_cells": N_CELLS,
            "duration_days": SCALE.uair_days,
            "cycle_length_hours": SCALE.uair_cycle_hours,
            "seed": seed,
        },
    )


def two_dataset_spec(seed: int, policies: Dict[str, PolicySpec], name: str):
    """One scenario over both datasets, one slot per (dataset, policy).

    The shared campaign parameters are Figure 6's at the SMALL scale; the
    agent trains once across both datasets in ``shared`` lockstep mode.
    """
    template = train_seq_spec(seed)
    slots = []
    for task, (epsilon, metric) in REQUIREMENTS.items():
        requirement = RequirementSpec(epsilon=epsilon, p=P, metric=metric)
        for label, policy in policies.items():
            slots.append(
                SlotSpec(
                    name=f"{task}/{label}",
                    dataset=_dataset(task, seed),
                    requirement=requirement,
                    policy=policy,
                )
            )
    return template.replace(
        name=name,
        slots=tuple(slots),
        training=TrainingSpec(mode="shared", drcell=dict(template.training.drcell)),
    )


def evaluate_spec(seed: int):
    return two_dataset_spec(
        seed,
        {"DR-Cell": PolicySpec("drcell"), "QBC": PolicySpec("qbc"), "RANDOM": PolicySpec("random")},
        "bench-evaluate",
    )


def serve_spec(seed: int):
    online = PolicySpec(
        "served_online",
        {
            "steps_per_publish": SCALE.learner_publish_every,
            "replay_capacity": SCALE.learner_replay_capacity,
            "minibatch": SCALE.learner_minibatch,
        },
    )
    return two_dataset_spec(
        seed,
        {"DR-Cell": PolicySpec("drcell"), "RANDOM": PolicySpec("random"), "served_online": online},
        "bench-serve",
    )


# -- set-up -----------------------------------------------------------------------


def setup_train_seq(seed: int) -> Session:
    return Session.from_spec(train_seq_spec(seed))


def setup_evaluate(seed: int) -> Session:
    session = Session.from_spec(evaluate_spec(seed))
    session.train()
    return session


def setup_serve(seed: int) -> Session:
    session = Session.from_spec(serve_spec(seed))
    session.train()
    return session


# -- runs and their output checks -----------------------------------------------------


def run_train_seq(session: Session) -> Outcome:
    report = session.train()
    drcell = session.drcell_config()
    problems: List[str] = []
    rewards: List[float] = []
    attempted = failed = 0
    steps = 0
    for key, training in report.reports.items():
        attempted += drcell.episodes
        bad = 0
        if len(training.episode_rewards) != drcell.episodes:
            problems.append(f"{key}: {len(training.episode_rewards)} episodes, want {drcell.episodes}")
            bad = drcell.episodes
        bad = max(bad, sum(1 for reward in training.episode_rewards if not math.isfinite(reward)))
        agent = session.agent(key.split(",")[0]).agent
        if training.total_steps != agent.total_steps or training.total_steps <= 0:
            problems.append(f"{key}: total_steps {training.total_steps} != agent {agent.total_steps}")
            bad = drcell.episodes
        failed += bad
        steps += training.total_steps
        rewards.extend(training.episode_rewards)
    if not report.reports:
        problems.append("no training run")
        attempted, failed = 1, 1
    return Outcome(
        attempted=attempted,
        failed=failed,
        problems=problems,
        fingerprint=tuple(rewards),
        work=steps,
        selections=steps,
        quality={"train.episode_reward": sum(rewards) / max(1, len(rewards))},
        counts={"train.total_steps": steps},
    )


def _check_rows(report, labels: List[str], budget: int) -> Tuple[int, List[str]]:
    """One row per label with ``n_cycles == budget`` and fractions in [0, 1]."""
    problems: List[str] = []
    failed = 0
    rows = {row.slot: row for row in report.rows}
    for label in labels:
        row = rows.get(label)
        if row is None:
            problems.append(f"{label}: no evaluation row")
            failed += 1
            continue
        bad = []
        if row.n_cycles != budget:
            bad.append(f"n_cycles {row.n_cycles} != {budget}")
        if not 0.0 <= row.quality_satisfied_fraction <= 1.0:
            bad.append(f"satisfied fraction {row.quality_satisfied_fraction}")
        if not 0.0 <= row.mean_selected_per_cycle / N_CELLS <= 1.0:
            bad.append(f"selected fraction {row.mean_selected_per_cycle / N_CELLS}")
        if bad:
            problems.append(f"{label}: " + ", ".join(bad))
            failed += 1
    if len(rows) != len(labels):
        problems.append(f"{len(rows)} rows for {len(labels)} campaigns")
        failed += abs(len(rows) - len(labels))
    return failed, problems


def _quality(report) -> Dict[str, float]:
    """Cells per cycle, satisfied share, and DR-Cell's cut against RANDOM."""
    rows = report.rows
    if not rows:
        return {}
    cells = sum(row.mean_selected_per_cycle for row in rows) / len(rows)
    satisfied = sum(row.quality_satisfied_fraction for row in rows) / len(rows)
    cuts = []
    for task in REQUIREMENTS:
        drcell = [r.mean_selected_per_cycle for r in rows if r.slot.split("@")[0] == f"{task}/DR-Cell"]
        random = [r.mean_selected_per_cycle for r in rows if r.slot.split("@")[0] == f"{task}/RANDOM"]
        if drcell and random:
            baseline = sum(random) / len(random)
            cuts.append(1.0 - (sum(drcell) / len(drcell)) / baseline)
    return {
        "cells_per_cycle": cells,
        "satisfied_fraction": satisfied,
        "drcell.cell_reduction": sum(cuts) / len(cuts) if cuts else 0.0,
    }


def _rows_fingerprint(report) -> Tuple:
    return tuple(
        (
            row.slot,
            row.mean_selected_per_cycle,
            row.quality_satisfied_fraction,
            row.total_selected,
            row.n_cycles,
        )
        for row in report.rows
    )


def run_evaluate(session: Session) -> Outcome:
    budget = session.spec.max_test_cycles
    report = session.evaluate()
    labels = [slot.name for slot in session.spec.slots]
    failed, problems = _check_rows(report, labels, budget)
    return Outcome(
        attempted=len(labels),
        failed=failed,
        problems=problems,
        fingerprint=_rows_fingerprint(report),
        work=sum(row.n_cycles for row in report.rows),
        selections=sum(row.total_selected for row in report.rows),
        quality=_quality(report),
    )


def run_serve(session: Session) -> Outcome:
    """Serve every slot ``SERVE_REPLICAS`` times, SMALL serve knobs, journal attached."""
    budget = session.spec.max_test_cycles
    journal = RequestJournal()
    report, stats = session.serve(
        replicas=SERVE_REPLICAS,
        journal=journal,
        max_batch=SCALE.serve_max_batch,
        max_inflight=SCALE.serve_max_inflight,
    )
    labels = [
        slot.name if replica == 0 else f"{slot.name}@{replica}"
        for slot in session.spec.slots
        for replica in range(SERVE_REPLICAS)
    ]
    failed, problems = _check_rows(report, labels, budget)
    requests = sum(stats.endpoint(kind).requests for kind in stats.endpoints)
    submitted = [event["seq"] for event in journal.events if event["type"] == "request"]
    answered: Dict[int, int] = {}
    errors = 0
    for event in journal.events:
        if event["type"] == "response":
            answered[event["seq"]] = answered.get(event["seq"], 0) + 1
            errors += "error" in event
    unanswered = sum(1 for seq in submitted if answered.get(seq) != 1)
    if len(submitted) != requests or unanswered or errors:
        problems.append(
            f"{requests} requests: {len(submitted)} journalled, {unanswered} without "
            f"exactly one response, {errors} failed"
        )
        failed += max(abs(requests - len(submitted)), unanswered) + errors
    return Outcome(
        attempted=len(labels) + requests,
        failed=failed,
        problems=problems,
        fingerprint=(_rows_fingerprint(report), stats.deterministic_dict()),
        work=sum(row.n_cycles for row in report.rows),
        selections=sum(row.total_selected for row in report.rows),
        quality=_quality(report),
        extras={"stats": stats, "journal": journal},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Session]
    run: Callable[[Session], Outcome]
    #: Name and unit of the throughput metric computed from ``Outcome.work``.
    rate_metric: str
    description: str


WORKLOADS: Dict[str, Workload] = {
    "train-seq": Workload(
        "train-seq",
        setup_train_seq,
        run_train_seq,
        "train.steps_per_s",
        "Session.train on Figure 6 temperature, SMALL scale, p=0.9: per_slot, "
        "vector_envs=1, 20 cells, 4 episodes; one ALS completion per env step",
    ),
    "evaluate": Workload(
        "evaluate",
        setup_evaluate,
        run_evaluate,
        "campaign_cycles_per_s",
        "Session.evaluate on temperature (eps=0.5, mae) and PM2.5 (eps=0.3, "
        "classification), 20 cells each, p=0.9; DR-Cell, QBC and RANDOM per "
        "dataset; agent trained in set-up in shared lockstep mode",
    ),
    "serve": Workload(
        "serve",
        setup_serve,
        run_serve,
        "campaign_cycles_per_s",
        "Session.serve on the same two datasets: DR-Cell, RANDOM and "
        "served_online per dataset, replicas=2 (12 campaigns) on one "
        "DecisionServer with SMALL serve knobs and a RequestJournal",
    ),
}
