"""Telemetry sources write their own ``repro_*`` metrics into a registry.

``ServerStats``, ``SolverStats``, ``Learner`` and ``TrainingReport`` each
have a ``write_to(registry)`` method; writing is idempotent (counters mirror
running totals, gauges are overwritten), so periodic snapshots update rather
than double-count.
"""

import numpy as np

from repro.core.drcell import DRCellAgent, DRCellConfig
from repro.core.trainer import TrainingReport
from repro.inference.backends.base import SolverStats
from repro.learner import Learner, LearnerConfig, TransitionBatch
from repro.obs.metrics import MetricsRegistry
from repro.rl.dqn import DQNConfig
from repro.serve.stats import ServerStats
from repro.utils.timing import fake_clock

N_CELLS = 4
WINDOW = 2


def build_learner() -> Learner:
    """A real learner that has ingested 10 + 6 transitions from two campaigns."""
    agent = DRCellAgent.build(
        N_CELLS,
        DRCellConfig(
            window=WINDOW,
            seed=0,
            lstm_hidden=8,
            dense_hidden=(8,),
            dqn=DQNConfig(batch_size=8, min_replay_size=8, replay_capacity=64),
        ),
    )
    learner = Learner(agent, config=LearnerConfig(steps_per_publish=4))
    for campaign, count in (("camp-a", 10), ("camp-b", 6)):
        states = np.zeros((count, WINDOW, N_CELLS))
        learner.ingest(
            [
                TransitionBatch(
                    campaign=campaign,
                    states=states,
                    actions=np.arange(count) % N_CELLS,
                    rewards=np.full(count, 0.5),
                    next_states=states + 1.0,
                    dones=np.zeros(count, dtype=bool),
                )
            ]
        )
    return learner


def build_server_stats() -> ServerStats:
    """Hand-exercise a ServerStats the way the server does, deterministically."""
    stats = ServerStats()
    with fake_clock() as clock:
        stats.record_request("assess", tenant="t0")
        stats.record_request("assess", tenant="t1")
        stats.record_request("select", tenant="t0")
        with stats.record_batch("assess", 2):
            clock.advance(0.5)
        with stats.record_batch("select", 1):
            clock.advance(0.25)
    stats.ticks = 2
    stats.record_fairness(("t0", "t1"), ())
    stats.record_fairness(("t0",), ("t1",))
    stats.record_learner("learner-0", build_learner().telemetry())
    return stats


class TestServerStatsIngestion:
    def test_counters_gauges_and_latency_mirror_the_stats(self):
        stats = build_server_stats()
        registry = MetricsRegistry()
        stats.write_to(registry)

        requests = registry.get("repro_serve_requests_total")
        assert requests.value(endpoint="assess") == 2
        assert requests.value(endpoint="select") == 1
        assert registry.get("repro_serve_batches_total").value(endpoint="assess") == 1
        assert (
            registry.get("repro_serve_handler_seconds_total").value(endpoint="assess")
            == 0.5
        )
        assert registry.get("repro_serve_batch_occupancy").value(endpoint="assess") == 2.0
        assert registry.get("repro_serve_ticks").value() == 2

        # Each request in a flushed batch records the batch's duration.
        latency = registry.get("repro_serve_latency_seconds")
        assert latency.series(endpoint="assess").count == 2
        assert latency.series(endpoint="assess").sum == 1.0
        assert latency.series(endpoint="select").count == 1

        tenants = registry.get("repro_serve_tenant_requests_total")
        assert tenants.value(tenant="t0") == 2
        assert tenants.value(tenant="t1") == 1
        assert (
            registry.get("repro_serve_tenant_starved_flushes_total").value(tenant="t1")
            == 1
        )
        # The pushed learner telemetry rides along, labelled by learner.
        assert (
            registry.get("repro_learner_total_steps").value(learner="learner-0")
            == stats.learners["learner-0"]["total_steps"]
        )
        assert registry.get("repro_learner_replay_size").value(learner="learner-0") == 16

    def test_endpoint_without_latencies_has_no_latency_series(self):
        stats = ServerStats()
        stats.record_request("complete", tenant="t0")  # submitted, not yet flushed
        registry = MetricsRegistry()
        stats.write_to(registry)
        assert registry.get("repro_serve_requests_total").value(endpoint="complete") == 1
        assert registry.get("repro_serve_latency_seconds").series(endpoint="complete") is None

    def test_reingestion_is_idempotent_not_double_counting(self):
        stats = build_server_stats()
        registry = MetricsRegistry()
        stats.write_to(registry)
        stats.write_to(registry)
        assert registry.get("repro_serve_requests_total").value(endpoint="assess") == 2
        assert registry.get("repro_serve_latency_seconds").series(endpoint="assess").count == 2


class TestSolverStatsIngestion:
    def test_solver_counters_land_unlabelled(self):
        solver_stats = SolverStats(solves=7, matrices=3, sweeps_run=12, sweeps_saved=2)
        registry = MetricsRegistry()
        solver_stats.write_to(registry)
        assert registry.get("repro_als_solves_total").value() == 7
        assert registry.get("repro_als_matrices_total").value() == 3
        assert registry.get("repro_als_sweeps_run_total").value() == 12
        assert registry.get("repro_als_sweeps_saved_total").value() == 2


class TestLearnerIngestion:
    def test_full_telemetry_maps_to_gauges_and_occupancy(self):
        learner = build_learner()
        telemetry = learner.telemetry()
        registry = MetricsRegistry()
        learner.write_to(registry, learner="L0")
        assert (
            registry.get("repro_learner_weights_version").value(learner="L0")
            == telemetry["weights"]["version"]
        )
        assert (
            registry.get("repro_learner_weights_stale_pulls_total").value(learner="L0")
            == telemetry["weights"]["stale_pulls"]
        )
        assert registry.get("repro_learner_replay_size").value(learner="L0") == 16
        assert (
            registry.get("repro_learner_replay_occupancy").value(learner="L0") == 0.25
        )
        per_campaign = registry.get("repro_learner_replay_campaign_transitions")
        assert per_campaign.value(learner="L0", campaign="camp-a") == 10
        assert per_campaign.value(learner="L0", campaign="camp-b") == 6

    def test_rewrite_after_more_transitions_overwrites_the_gauges(self):
        learner = build_learner()
        registry = MetricsRegistry()
        learner.write_to(registry, learner="L0")
        states = np.zeros((4, WINDOW, N_CELLS))
        learner.ingest(
            [
                TransitionBatch(
                    campaign="camp-a",
                    states=states,
                    actions=np.arange(4) % N_CELLS,
                    rewards=np.full(4, 0.5),
                    next_states=states + 1.0,
                    dones=np.zeros(4, dtype=bool),
                )
            ]
        )
        learner.write_to(registry, learner="L0")
        # Gauges take the latest telemetry; nothing is summed across writes.
        assert registry.get("repro_learner_replay_size").value(learner="L0") == 20
        per_campaign = registry.get("repro_learner_replay_campaign_transitions")
        assert per_campaign.value(learner="L0", campaign="camp-a") == 14
        assert per_campaign.value(learner="L0", campaign="camp-b") == 6
        assert (
            registry.get("repro_learner_total_steps").value(learner="L0")
            == learner.telemetry()["total_steps"]
        )


def training_report(wall_clock_seconds: float = 2.0) -> TrainingReport:
    return TrainingReport(
        episodes=8,
        total_steps=400,
        wall_clock_seconds=wall_clock_seconds,
        episode_rewards=[1.0, 3.0],
    )


class TestTrainingReportIngestion:
    def test_report_maps_to_totals_and_throughput(self):
        registry = MetricsRegistry()
        training_report().write_to(registry, run="temperature")
        assert (
            registry.get("repro_train_episodes_total").value(run="temperature") == 8
        )
        assert registry.get("repro_train_steps_total").value(run="temperature") == 400
        assert (
            registry.get("repro_train_steps_per_second").value(run="temperature")
            == 200.0
        )
        assert (
            registry.get("repro_train_mean_episode_reward").value(run="temperature")
            == 2.0
        )

    def test_zero_wall_clock_skips_throughput(self):
        registry = MetricsRegistry()
        training_report(wall_clock_seconds=0.0).write_to(registry, run="r")
        assert "repro_train_steps_per_second" not in registry
        assert registry.get("repro_train_episodes_total").value(run="r") == 8
