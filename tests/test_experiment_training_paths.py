"""Coverage for the Next training/selection helpers in ``sim.experiment``.

``pretrained_next_governor`` and ``select_best_next_governor`` encode the
paper's evaluation protocol (train fully, then evaluate greedily; pick the
candidate that saves the most power *without* violating QoS).  These tests
exercise both with tiny budgets and pin the QoS-first selection ordering.
They also pin what training produces, a trained artifact and a federated
fleet on both fleet-round routes, by digest, and that scalar training
episodes, whose streams nobody reads, record nothing.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

import repro.sim.experiment as experiment
from repro.core.artifact import TrainingSpec
from repro.core.federated import FleetSpec
from repro.core.governor import NextGovernor
from repro.experiments.artifacts import train_artifact
from repro.experiments.federated import train_fleet_artifact
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    candidate_sort_key,
    pretrained_next_governor,
    select_best_next_governor,
    train_next_governor,
)
from repro.soc.platform import generic_two_cluster_soc


@pytest.fixture(scope="module")
def platform():
    return generic_two_cluster_soc()


class TestPretrainedNextGovernor:
    def test_trains_each_app_and_disables_exploration(self, platform):
        governor = pretrained_next_governor(
            ("home", "spotify"),
            platform=platform,
            episodes=1,
            episode_duration_s=4.0,
            seed=5,
        )
        assert governor.training is False
        assert governor.agent.qtable_size("home") > 0
        assert governor.agent.qtable_size("spotify") > 0

    def test_pretrained_governor_is_usable_for_evaluation(self, platform):
        governor = pretrained_next_governor(
            ("home",), platform=platform, episodes=1, episode_duration_s=4.0, seed=5
        )
        result = experiment.run_app_session(
            "home", governor, duration_s=4.0, platform=platform, seed=9
        )
        assert result.governor_name == "next"
        assert result.summary.average_power_w > 0.0


class TestTrainNextGovernorSeeding:
    def _captured_seeds(self, monkeypatch, platform, config=None):
        """Run training with a stubbed Simulation and record per-episode seeds."""
        seeds = []

        class FakeSimulation:
            def __init__(self, platform=None, governor=None, config=None, record=True):
                seeds.append(config.seed)

            def run(self, workload, duration_s=None):
                return None

        monkeypatch.setattr(experiment, "Simulation", FakeSimulation)
        governor = NextGovernor(seed=1)
        monkeypatch.setattr(governor.agent, "has_converged", lambda *a, **k: False)
        train_next_governor(
            governor,
            "home",
            platform=platform,
            episodes=3,
            episode_duration_s=4.0,
            seed=40,
            config=config,
        )
        return seeds

    def test_default_config_varies_seed_per_episode(self, monkeypatch, platform):
        seeds = self._captured_seeds(monkeypatch, platform)
        assert seeds == [40, 141, 242]

    def test_explicit_config_still_varies_seed_per_episode(
        self, monkeypatch, platform
    ):
        # Regression: a caller-supplied config used to pin one sensor-noise
        # seed across all "freshly seeded" episodes.
        config = SimulationConfig(refresh_hz=60.0, duration_s=4.0, seed=7)
        seeds = self._captured_seeds(monkeypatch, platform, config=config)
        assert seeds == [40, 141, 242]
        assert config.seed == 7  # the caller's config object is not mutated

    def test_explicit_config_other_knobs_are_kept(self, monkeypatch, platform):
        captured = []

        class FakeSimulation:
            def __init__(self, platform=None, governor=None, config=None, record=True):
                captured.append(config)

            def run(self, workload, duration_s=None):
                return None

        monkeypatch.setattr(experiment, "Simulation", FakeSimulation)
        governor = NextGovernor(seed=1)
        monkeypatch.setattr(governor.agent, "has_converged", lambda *a, **k: False)
        config = SimulationConfig(
            refresh_hz=60.0, duration_s=4.0, seed=7, warm_start_temperature_c=33.0
        )
        train_next_governor(
            governor, "home", platform=platform, episodes=2,
            episode_duration_s=4.0, seed=0, config=config,
        )
        assert all(c.warm_start_temperature_c == 33.0 for c in captured)
        assert [c.seed for c in captured] == [0, 101]


def document_sha256(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode("utf-8")).hexdigest()


#: A small pretrained spec: two apps, two 5 s episodes each.
PINNED_SPEC = TrainingSpec(
    apps=("home", "facebook"), episodes=2, episode_duration_s=5.0, seed=11
)
#: A 2-device, 2-round fleet: round 0 trains scalar, round 1 on the routed path.
PINNED_FLEET = FleetSpec(
    apps=("home", "spotify"),
    devices=2,
    rounds=2,
    platform="generic-two-cluster",
    episodes=1,
    episode_duration_s=4.0,
)
#: ``document_sha256`` of ``train_artifact(PINNED_SPEC).to_dict()`` and of
#: ``train_fleet_artifact(PINNED_FLEET).to_dict()`` (merged agent, device
#: states and round reports), captured while training episodes were still
#: recorded: not recording them must not change one byte.
PINNED_ARTIFACT_SHA256 = "b7d300783f1650e5ac6108e035e770d79161e1c51d011ece69cecabc1ab2aaf0"
PINNED_FLEET_SHA256 = "769e4661fe8138b3dc3dbe6260f6984c419f6a7bed553d9c18f10ac8683fee4d"


class TestTrainedAgentsArePinned:
    def test_trained_artifact_document(self):
        assert document_sha256(train_artifact(PINNED_SPEC).to_dict()) == (
            PINNED_ARTIFACT_SHA256
        )

    def test_fleet_document_on_both_round_routes(self, batch_route):
        assert document_sha256(train_fleet_artifact(PINNED_FLEET).to_dict()) == (
            PINNED_FLEET_SHA256
        )


class TestTrainingRecordsNothing:
    def test_training_episodes_leave_their_recorders_empty(self, monkeypatch):
        simulations = []

        class CollectedSimulation(experiment.Simulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                simulations.append(self)

        monkeypatch.setattr(experiment, "Simulation", CollectedSimulation)
        artifact = train_artifact(PINNED_SPEC)
        assert all(artifact.agent_state["steps_per_app"].values())
        # Two apps, two episodes each.
        assert len(simulations) == 4
        assert [len(simulation.recorder) for simulation in simulations] == [0] * 4


class TestCandidateSortKey:
    def test_qos_ok_candidates_ranked_by_power(self):
        assert candidate_sort_key(2.0, 0.99) < candidate_sort_key(3.0, 0.95)

    def test_qos_preservation_beats_any_power_saving(self):
        # A violator with spectacular savings still loses to a QoS-ok run.
        assert candidate_sort_key(9.0, 0.95) < candidate_sort_key(0.5, 0.80)

    def test_violators_ranked_by_least_bad_delivery(self):
        assert candidate_sort_key(5.0, 0.90) < candidate_sort_key(1.0, 0.70)

    def test_threshold_is_inclusive(self):
        ok_key = candidate_sort_key(1.0, 0.93, min_delivery_ratio=0.93)
        assert ok_key[0] == 0


class TestSelectBestNextGovernor:
    def test_tiny_end_to_end_selection(self, platform):
        governor = select_best_next_governor(
            ("home",),
            platform=platform,
            candidate_seeds=(1, 2),
            episodes=1,
            episode_duration_s=4.0,
            validation_duration_s=4.0,
        )
        assert governor.name == "next"
        assert governor.training is False

    def _fake_selection(self, monkeypatch, platform, powers, deliveries):
        """Run selection with fabricated per-candidate validation outcomes."""
        candidates = []

        def fake_train(governor, app_name, **kwargs):
            if governor not in candidates:
                candidates.append(governor)

        def fake_run_trace(trace, governor, platform=None, config=None):
            index = candidates.index(governor)
            return SimpleNamespace(
                summary=SimpleNamespace(
                    average_power_w=powers[index],
                    frame_delivery_ratio=deliveries[index],
                )
            )

        monkeypatch.setattr(experiment, "train_next_governor", fake_train)
        monkeypatch.setattr(experiment, "run_trace", fake_run_trace)
        winner = select_best_next_governor(
            ("home",),
            platform=platform,
            candidate_seeds=tuple(range(1, len(powers) + 1)),
            validation_duration_s=0.5,
        )
        return candidates.index(winner)

    def test_qos_ok_low_power_candidate_wins(self, monkeypatch, platform):
        # Candidate 0 violates QoS despite the lowest power; candidate 2 is
        # QoS-preserving and cheaper than candidate 1.
        winner = self._fake_selection(
            monkeypatch,
            platform,
            powers=[0.5, 5.0, 3.0],
            deliveries=[0.50, 0.99, 0.97],
        )
        assert winner == 2

    def test_least_bad_violator_wins_when_no_candidate_preserves_qos(
        self, monkeypatch, platform
    ):
        winner = self._fake_selection(
            monkeypatch,
            platform,
            powers=[1.0, 9.0],
            deliveries=[0.70, 0.85],
        )
        assert winner == 1
