"""Tests for repro.api.session: the Session facade over training + campaigns.

The centrepiece is the equivalence test: the checked-in TINY heterogeneous
two-slot scenario (different dataset *and* different requirement per slot,
shared lockstep training) must produce, through ``Session``, exactly the
campaigns a hand-wired construction of the same components produces.
"""

import numpy as np
import pytest

from repro.api.registry import UnknownComponentError
from repro.api.session import Session
from repro.api.specs import (
    DatasetSpec,
    InferenceSpec,
    PolicySpec,
    RequirementSpec,
    ScenarioSpec,
    SlotSpec,
    TrainingSpec,
)
from repro.core.config import DRCellConfig
from repro.core.drcell import DRCellPolicy
from repro.core.trainer import DRCellTrainer
from repro.datasets import generate_sensorscope, generate_uair
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.rl.dqn import DQNConfig
from repro.utils.seeding import derive_rng


@pytest.fixture(scope="module")
def tiny_spec(repo_root) -> ScenarioSpec:
    return ScenarioSpec.from_json(
        (repo_root / "examples" / "scenarios" / "tiny.json").read_text()
    )


@pytest.fixture(scope="module")
def session_outcome(tiny_spec):
    """Train + evaluate the tiny heterogeneous scenario once, through Session."""
    session = Session.from_spec(tiny_spec)
    training = session.train()
    evaluation = session.evaluate()
    return session, training, evaluation


def hand_wired_outcome(spec: ScenarioSpec):
    """The tiny scenario assembled by hand, mirroring the session's wiring."""
    temperature = generate_sensorscope(
        "temperature", n_cells=8, duration_days=1.5, cycle_length_hours=2.0, seed=0
    )
    pm25 = generate_uair(n_cells=8, duration_days=1.5, cycle_length_hours=2.0, seed=0)
    temperature_train, temperature_test = temperature.train_test_split(1.0)
    pm25_train, pm25_test = pm25.train_test_split(1.0)
    requirement_temperature = QualityRequirement(epsilon=1.0, p=0.8, metric="mae")
    requirement_pm25 = QualityRequirement(epsilon=0.3, p=0.8, metric="classification")

    config = DRCellConfig(
        window=2,
        episodes=2,
        lstm_hidden=12,
        dense_hidden=(12,),
        exploration_decay_steps=300,
        min_cells_before_check=2,
        history_window=6,
        dqn=DQNConfig(
            batch_size=16,
            replay_capacity=5000,
            min_replay_size=32,
            target_update_interval=50,
            learn_every=2,
        ),
        seed=0,
    )
    # Heterogeneous lockstep training: one agent over both (dataset,
    # requirement) pairs, exactly Session's "shared" mode.
    trainer = DRCellTrainer(
        config,
        inference=CompressiveSensingInference(rank=3, iterations=5, seed=derive_rng(0, 5)),
    )
    agent, training = trainer.train_lockstep(
        [temperature_train, pm25_train],
        [requirement_temperature, requirement_pm25],
        episodes=2,
    )

    # Evaluation: shared inference + assessor instances (the scenario-level
    # defaults), one lockstep campaign group per dataset, temperature first.
    inference = CompressiveSensingInference(rank=3, iterations=5, seed=derive_rng(0, 5))
    assessor = LeaveOneOutBayesianAssessor(
        min_observations=2, max_loo_cells=4, history_window=6
    )
    campaign_config = CampaignConfig(
        min_cells_per_cycle=2, assess_every=2, history_window=6
    )
    results = {}
    for name, test_set, requirement in (
        ("temperature", temperature_test, requirement_temperature),
        ("pm25", pm25_test, requirement_pm25),
    ):
        task = SensingTask(
            dataset=test_set,
            requirement=requirement,
            inference=inference,
            assessor=assessor,
        )
        runner = BatchedCampaignRunner(task, campaign_config)
        results[name] = runner.run([DRCellPolicy(agent)], n_cycles=4)[0]
    return agent, training, results


class TestHeterogeneousScenarioEquivalence:
    def test_training_matches_hand_wired_lockstep(self, tiny_spec, session_outcome):
        _, session_training, _ = session_outcome
        _, manual_training, _ = hand_wired_outcome(tiny_spec)
        assert session_training.mode == "shared"
        (row,) = session_training.rows
        assert row.slots == ("temperature", "pm25")
        assert row.episodes == manual_training.episodes
        assert row.total_steps == manual_training.total_steps
        assert session_training.reports[
            "temperature, pm25"
        ].episode_rewards == pytest.approx(manual_training.episode_rewards)

    def test_evaluation_matches_hand_wired_campaigns(self, tiny_spec, session_outcome):
        _, _, session_evaluation = session_outcome
        _, _, manual_results = hand_wired_outcome(tiny_spec)
        for slot_name in ("temperature", "pm25"):
            session_result = session_evaluation.results[slot_name]
            manual_result = manual_results[slot_name]
            assert len(session_result.records) == len(manual_result.records)
            for record_a, record_b in zip(session_result.records, manual_result.records):
                assert record_a.selected_cells == record_b.selected_cells
                assert record_a.assessed_satisfied == record_b.assessed_satisfied
                assert record_a.true_error == pytest.approx(record_b.true_error)

    def test_rows_are_structured_and_heterogeneous(self, session_outcome):
        _, _, evaluation = session_outcome
        assert [row.slot for row in evaluation.rows] == ["temperature", "pm25"]
        temperature_row = evaluation.row("temperature")
        pm25_row = evaluation.row("pm25")
        assert "mae" in temperature_row.requirement
        assert "classification" in pm25_row.requirement
        assert temperature_row.dataset != pm25_row.dataset
        for row in evaluation.rows:
            payload = row.as_dict()
            assert 1.0 <= payload["mean_selected_per_cycle"] <= 8
            assert 0.0 <= payload["quality_satisfied_fraction"] <= 1.0


class TestSessionMechanics:
    def test_shared_default_components_are_shared_instances(self, tiny_spec):
        session = Session.from_spec(tiny_spec)
        first, second = session.slots
        # The ALS/LOO defaults take no dataset context, so both slots share
        # one instance each — identity pooling, like a hand-wired shared task.
        assert first.inference is second.inference
        assert first.assessor is second.assessor
        # One shared history window, resolved from the scenario.
        assert first.assessor.history_window == tiny_spec.history_window

    def test_equal_dataset_specs_share_one_dataset_object(self):
        dataset = DatasetSpec(
            "sensorscope",
            {"kind": "temperature", "n_cells": 6, "duration_days": 1.0,
             "cycle_length_hours": 2.0, "seed": 1},
        )
        requirement = RequirementSpec(epsilon=1.0, p=0.8)
        spec = ScenarioSpec(
            name="shared-dataset",
            slots=(
                SlotSpec(name="a", dataset=dataset, requirement=requirement,
                         policy=PolicySpec("random", {"seed": 1})),
                SlotSpec(name="b", dataset=dataset, requirement=requirement,
                         policy=PolicySpec("random", {"seed": 2})),
            ),
            history_window=4,
            training_days=0.5,
            min_cells_per_cycle=2,
            assess_every=2,
            max_test_cycles=2,
        )
        session = Session.from_spec(spec)
        assert session.slots[0].test_set is session.slots[1].test_set
        evaluation = session.run()[1]
        assert {row.slot for row in evaluation.rows} == {"a", "b"}

    def test_unknown_component_key_fails_at_construction(self):
        spec = ScenarioSpec(
            name="broken",
            slots=(
                SlotSpec(
                    name="only",
                    dataset=DatasetSpec("no-such-dataset"),
                    requirement=RequirementSpec(epsilon=1.0),
                    policy=PolicySpec("random"),
                ),
            ),
        )
        with pytest.raises(UnknownComponentError):
            Session.from_spec(spec)

    @pytest.mark.parametrize(
        "key,value", [("backend", "numpy_grouped"), ("shard_rows", 4)]
    )
    def test_removed_als_params_fail_at_construction(self, tiny_spec, key, value):
        # The ALS kernel has no backend choice and no row sharding; a spec
        # still carrying either knob must fail loudly, naming the key.
        params = {**tiny_spec.inference.params, key: value}
        spec = tiny_spec.replace(inference=InferenceSpec("als", params))
        with pytest.raises(TypeError, match=key):
            Session.from_spec(spec)

    def test_untrained_drcell_slot_fails_evaluation_with_hint(self, tiny_spec):
        session = Session.from_spec(tiny_spec)
        with pytest.raises(ValueError, match="train\\(\\) or set_agent\\(\\)"):
            session.evaluate()

    def test_set_agent_validates_slot_kind_and_cells(self, tiny_spec):
        from repro.core.drcell import DRCellAgent

        session = Session.from_spec(tiny_spec)
        wrong_size = DRCellAgent.build(5, session.drcell_config().scaled_for_quick_run())
        with pytest.raises(ValueError, match="5 cells"):
            session.set_agent("temperature", wrong_size)

    def test_save_and_load_round_trip(self, tiny_spec, session_outcome, tmp_path):
        session, _, evaluation = session_outcome
        saved = session.save(tmp_path / "run")
        assert (saved / "scenario.json").exists()
        assert (saved / "agents" / "temperature.npz").exists()

        restored = Session.load(saved)
        assert restored.spec == session.spec
        # Same weights -> a fresh evaluation reproduces the original one.
        restored_evaluation = restored.evaluate()
        for row, restored_row in zip(evaluation.rows, restored_evaluation.rows):
            assert row == restored_row

    def test_load_without_scenario_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Session.load(tmp_path / "nowhere")

    def test_load_restores_shared_agent_identity(self, session_outcome, tmp_path):
        """A mode="shared" scenario must round-trip to ONE shared agent object."""
        session, _, _ = session_outcome
        # The tiny scenario trains in shared mode: both slots hold one agent.
        agents = [slot.agent for slot in session.slots if slot.agent is not None]
        assert len(agents) == 2
        assert agents[0] is agents[1]

        saved = session.save(tmp_path / "shared-run")
        assert (saved / "agents" / "manifest.json").exists()

        restored = Session.load(saved)
        restored_agents = [
            slot.agent for slot in restored.slots if slot.agent is not None
        ]
        assert len(restored_agents) == 2
        assert restored_agents[0] is restored_agents[1]
        for layer_orig, layer_restored in zip(
            agents[0].get_weights(), restored_agents[0].get_weights()
        ):
            for name in layer_orig:
                assert np.array_equal(layer_orig[name], layer_restored[name])

    def test_resave_without_agents_removes_stale_manifest(
        self, tiny_spec, session_outcome, tmp_path
    ):
        """Saving over an old save must not leave the old manifest behind."""
        trained, _, _ = session_outcome
        target = tmp_path / "resaved"
        trained.save(target)
        assert (target / "agents" / "manifest.json").exists()

        untrained = Session.from_spec(tiny_spec)
        untrained.save(target)
        assert not (target / "agents" / "manifest.json").exists()

    def test_load_without_manifest_falls_back_to_per_slot_agents(
        self, session_outcome, tmp_path
    ):
        """Saves that predate the manifest still load (one agent per slot)."""
        session, _, _ = session_outcome
        saved = session.save(tmp_path / "legacy-run")
        (saved / "agents" / "manifest.json").unlink()

        restored = Session.load(saved)
        restored_agents = [
            slot.agent for slot in restored.slots if slot.agent is not None
        ]
        assert len(restored_agents) == 2
        assert restored_agents[0] is not restored_agents[1]


class TestSharedModeValidation:
    def test_heterogeneous_pinned_inference_rejected_in_shared_mode(self):
        from repro.api.specs import InferenceSpec, TrainingSpec

        dataset = DatasetSpec(
            "sensorscope",
            {"kind": "temperature", "n_cells": 6, "duration_days": 1.0,
             "cycle_length_hours": 2.0, "seed": 1},
        )
        requirement = RequirementSpec(epsilon=1.0, p=0.8)
        spec = ScenarioSpec(
            name="mixed-inference",
            slots=(
                SlotSpec(name="a", dataset=dataset, requirement=requirement,
                         policy=PolicySpec("drcell"),
                         inference=InferenceSpec("als", {"iterations": 5})),
                SlotSpec(name="b", dataset=dataset, requirement=requirement,
                         policy=PolicySpec("drcell"),
                         inference=InferenceSpec("knn")),
            ),
            history_window=4,
            training_days=0.5,
            training=TrainingSpec(mode="shared", episodes=1,
                                  drcell={"lstm_hidden": 8, "dense_hidden": (8,)}),
        )
        session = Session.from_spec(spec)
        with pytest.raises(ValueError, match="shared training mode"):
            session.train()
