"""Trained-agent artifact pipeline: serialisation, store, train-once.

The pipeline's contract has three layers, each pinned here:

* a :class:`NextAgent` round-trips through JSON with *all* mutable state
  (Q-tables, per-app learner epsilons/updates, RNG, frame window, step
  accounting), so a restored agent evaluates bit-identically,
* an :class:`AgentArtifact` freezes a trained agent under a content
  fingerprint derived from its :class:`TrainingSpec` plus agent config, and
* a sweep trains each distinct spec exactly once and its
  :class:`ArtifactStore` serves every later request from the stored
  artifact, whether the sweep runs in-process or across a pool.
"""

import json

import pytest

from repro.core.agent import AgentConfig, NextAgent
from repro.core.artifact import ARTIFACT_SCHEMA_VERSION, AgentArtifact, TrainingSpec
from repro.core.governor import NextGovernor
from repro.core.qlearning import QLearningConfig
from repro.experiments.artifacts import ArtifactStore, train_artifact
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import SweepRunner
from repro.reliability.faults import (
    KIND_TRANSIENT,
    SITE_TRAIN_ARTIFACT,
    FaultPlan,
    FaultRule,
    injected_faults,
)
from repro.reliability.retry import PERMANENT
from repro.sim.experiment import pretrained_next_governor, run_app_session
from repro.soc.platform import generic_two_cluster_soc

APP = "home"

#: Worker counts the runner-level store tests run at: the in-process and the
#: pool executor drive one event loop, so they must agree on every count.
WORKERS = (1, 2)


def _pretrained_matrix(apps=(APP,), seeds=(0,)) -> ScenarioMatrix:
    """Pretrained Next cells; the ``APP`` workload's spec is ``tiny_spec``."""
    return ScenarioMatrix.build(
        name="store",
        governors=("next",),
        apps=apps,
        platforms=("generic-two-cluster",),
        seeds=seeds,
        duration_s=4.0,
        training={
            "mode": "pretrained",
            "episodes": 1,
            "episode_duration_s": 4.0,
            "seed": 5,
        },
    )


@pytest.fixture(scope="module")
def platform():
    return generic_two_cluster_soc()


@pytest.fixture(scope="module")
def trained_agent(platform):
    governor = pretrained_next_governor(
        (APP,), platform=platform, episodes=1, episode_duration_s=4.0, seed=5
    )
    return governor.agent


@pytest.fixture(scope="module")
def tiny_spec():
    return TrainingSpec(
        apps=(APP,),
        platform="generic-two-cluster",
        episodes=1,
        episode_duration_s=4.0,
        seed=5,
    )


# ---------------------------------------------------------------------------
# NextAgent serialisation
# ---------------------------------------------------------------------------

class TestAgentSerialisation:
    def test_round_trip_is_json_stable(self, trained_agent):
        data = json.loads(json.dumps(trained_agent.to_dict()))
        restored = NextAgent.from_dict(data)
        assert restored.to_dict() == data

    def test_learner_state_survives(self, trained_agent):
        restored = NextAgent.from_dict(trained_agent.to_dict())
        original = trained_agent._learners[APP]
        rebuilt = restored._learners[APP]
        assert rebuilt.epsilon == original.epsilon
        assert rebuilt.update_count == original.update_count
        assert rebuilt.exploring == original.exploring
        assert restored.steps_for(APP) == trained_agent.steps_for(APP)
        assert restored.training_time_s(APP) == trained_agent.training_time_s(APP)
        assert restored.cumulative_reward == trained_agent.cumulative_reward
        assert restored.recent_td_error() == trained_agent.recent_td_error()
        assert restored.qtable_size(APP) == trained_agent.qtable_size(APP)
        assert restored.training == trained_agent.training

    def test_greedy_evaluation_is_bit_identical(self, platform, trained_agent):
        # The acceptance criterion: trained -> saved -> loaded evaluates
        # exactly like the original agent, sample for sample.
        original = NextAgent.from_dict(trained_agent.to_dict())
        restored = NextAgent.from_dict(
            json.loads(json.dumps(trained_agent.to_dict()))
        )
        results = [
            run_app_session(
                APP,
                NextGovernor(agent=agent, training=False),
                duration_s=4.0,
                platform=platform,
                seed=9,
            )
            for agent in (original, restored)
        ]
        assert results[0].recorder.samples == results[1].recorder.samples

    def test_config_round_trip(self):
        config = AgentConfig(
            cluster_order=("big", "little"),
            qlearning=QLearningConfig(learning_rate=0.5, epsilon_start=0.3),
            ambient_c=25.0,
        )
        rebuilt = AgentConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.discretiser.cluster_order == ("big", "little")


# ---------------------------------------------------------------------------
# TrainingSpec
# ---------------------------------------------------------------------------

class TestTrainingSpec:
    def test_dict_round_trip(self, tiny_spec):
        assert TrainingSpec.from_dict(tiny_spec.to_dict()) == tiny_spec

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingSpec(apps=())
        with pytest.raises(ValueError):
            TrainingSpec(apps=("a", "a"))
        with pytest.raises(ValueError):
            TrainingSpec(apps=("a",), episodes=0)
        with pytest.raises(ValueError):
            TrainingSpec(apps=("a",), episode_duration_s=0.0)

    def test_fingerprint_sensitivity(self, tiny_spec):
        from dataclasses import replace

        base = tiny_spec.fingerprint()
        assert tiny_spec.fingerprint() == base  # stable
        for change in (
            {"apps": (APP, "facebook")},
            {"platform": "exynos9810"},
            {"episodes": 2},
            {"episode_duration_s": 5.0},
            {"seed": 6},
            {"config_overrides": (("warm_start_temperature_c", 30.0),)},
        ):
            assert replace(tiny_spec, **change).fingerprint() != base
        # the agent configuration is part of the artifact's identity
        assert tiny_spec.fingerprint(AgentConfig(ambient_c=30.0)) != base

    def test_config_overrides_round_trip_and_training(self, tiny_spec):
        from dataclasses import replace

        spec = replace(
            tiny_spec, config_overrides=(("warm_start_temperature_c", 40.0),)
        )
        assert TrainingSpec.from_dict(spec.to_dict()) == spec
        # Training under the override actually changes the learned policy
        # environment: the artifact differs from the override-free one.
        assert train_artifact(spec).agent_state != train_artifact(tiny_spec).agent_state


# ---------------------------------------------------------------------------
# AgentArtifact
# ---------------------------------------------------------------------------

class TestAgentArtifact:
    def test_capture_save_load_round_trip(self, trained_agent, tiny_spec, tmp_path):
        artifact = AgentArtifact.capture(tiny_spec, trained_agent)
        path = artifact.save(str(tmp_path / "agent.json"))
        loaded = AgentArtifact.load(path)
        assert loaded.to_dict() == artifact.to_dict()
        assert loaded.fingerprint == tiny_spec.fingerprint(trained_agent.config)

    def test_load_rejects_tampered_content(self, trained_agent, tiny_spec, tmp_path):
        artifact = AgentArtifact.capture(tiny_spec, trained_agent)
        path = tmp_path / "agent.json"
        data = artifact.to_dict()
        data["spec"]["episodes"] += 1  # content no longer matches fingerprint
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="fingerprint"):
            AgentArtifact.load(str(path))

    def test_load_rejects_wrong_schema_version(self, trained_agent, tiny_spec, tmp_path):
        artifact = AgentArtifact.capture(tiny_spec, trained_agent)
        data = artifact.to_dict()
        data["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema version"):
            AgentArtifact.load(str(path))

    def test_build_governor_is_frozen_greedy(self, trained_agent, tiny_spec):
        artifact = AgentArtifact.capture(tiny_spec, trained_agent)
        governor = artifact.build_governor()
        assert governor.training is False
        assert governor.agent is not trained_agent  # a fresh instance
        assert governor.agent.qtable_size(APP) == trained_agent.qtable_size(APP)

    def test_restored_agent_frame_window_keeps_sampling(self, platform):
        # Regression: the serialised cadence clock points at the end of the
        # last training episode (~10 s here); an evaluation session
        # restarting at t=0 must still record frame samples (live target
        # FPS), not freeze the window at the training-era mode until the new
        # clock catches up with the old one.
        spec = TrainingSpec(
            apps=(APP,),
            platform="generic-two-cluster",
            episodes=1,
            episode_duration_s=10.0,
            seed=5,
        )
        governor = train_artifact(spec).build_governor()
        stale_clock = governor.agent.frame_window.state_dict()["last_sample_time_s"]
        assert stale_clock > 9.0  # the artifact carries the training-era clock
        run_app_session(APP, governor, duration_s=4.0, platform=platform, seed=9)
        fresh_clock = governor.agent.frame_window.state_dict()["last_sample_time_s"]
        assert fresh_clock < 5.0  # sampling resumed on the evaluation clock


# ---------------------------------------------------------------------------
# train_artifact / ArtifactStore
# ---------------------------------------------------------------------------

class TestTrainArtifact:
    def test_training_is_deterministic(self, tiny_spec):
        first = train_artifact(tiny_spec)
        second = train_artifact(tiny_spec)
        assert first.to_dict() == second.to_dict()
        assert first.training_results and first.training_results[0]["app_name"] == APP

    def test_artifact_equals_in_memory_capture(self, tiny_spec):
        # The JSON normalisation in capture() guarantees a freshly trained
        # artifact is byte-for-byte what a store would serve back.
        artifact = train_artifact(tiny_spec)
        assert (
            json.loads(json.dumps(artifact.to_dict())) == artifact.to_dict()
        )


class TestArtifactStore:
    def test_trains_each_spec_exactly_once(self):
        # Two cells share one training spec: the sweep trains it once, and a
        # second sweep on the same runner reuses the in-memory artifact.
        matrix = _pretrained_matrix(seeds=(0, 1))
        for workers in WORKERS:
            runner = SweepRunner(max_workers=workers)
            assert all(result.ok for result in runner.run(matrix).results)
            assert runner.artifacts.trained_count == 1
            assert runner.artifacts.reused_count == 0
            runner.run(matrix)
            assert runner.artifacts.trained_count == 1
            assert runner.artifacts.reused_count == 1

    def test_disk_persistence_across_store_instances(self, tiny_spec, tmp_path):
        first = ArtifactStore(str(tmp_path))
        first.accept(train_artifact(tiny_spec))
        for workers in WORKERS:
            runner = SweepRunner(max_workers=workers, artifact_dir=str(tmp_path))
            assert all(result.ok for result in runner.run(_pretrained_matrix()).results)
            assert runner.artifacts.trained_count == 0
            assert runner.artifacts.reused_count == 1
            assert (
                runner.artifacts.load(tiny_spec).to_dict()
                == first.load(tiny_spec).to_dict()
            )

    def test_corrupt_artifact_file_is_retrained(self, tiny_spec, tmp_path):
        ArtifactStore(str(tmp_path)).accept(train_artifact(tiny_spec))
        path = tmp_path / f"{tiny_spec.fingerprint()}.agent.json"
        for workers in WORKERS:
            path.write_text("{not json")
            runner = SweepRunner(max_workers=workers, artifact_dir=str(tmp_path))
            runner.run(_pretrained_matrix())
            assert runner.artifacts.trained_count == 1  # corrupt entry treated as a miss
            assert AgentArtifact.load(str(path)).fingerprint == tiny_spec.fingerprint()

    def test_memory_only_store_deduplicates(self, tiny_spec):
        store = ArtifactStore(None)
        store.accept(train_artifact(tiny_spec))
        assert store.resolve(tiny_spec) is not None
        assert store.trained_count == 1 and store.reused_count == 1

    def test_training_failure_is_isolated(self):
        # Every attempt to train the facebook spec fails; the home spec
        # still trains and its cell still evaluates.
        matrix = _pretrained_matrix(apps=(APP, "facebook"))
        doomed = next(cell for cell in matrix.cells() if "facebook" in cell.label())
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_TRAIN_ARTIFACT,
                    kind=KIND_TRANSIENT,
                    match=doomed.training_spec().fingerprint(),
                    max_attempt=99,
                ),
            )
        )
        for workers in WORKERS:
            runner = SweepRunner(max_workers=workers)
            with injected_faults(plan):
                sweep = runner.run(matrix)
            failed = sweep.failures
            assert [result.cell for result in failed] == [doomed]
            assert failed[0].error_kind == PERMANENT
            assert failed[0].error.startswith(
                f"training failed for artifact {doomed.training_spec().fingerprint()} ("
            )
            assert failed[0].error_type == "InjectedTransientError"
            assert "injected transient fault" in failed[0].error
            assert runner.artifacts.trained_count == 1

    def test_entries_lists_stored_artifacts(self, tiny_spec, tmp_path):
        ArtifactStore(str(tmp_path)).accept(train_artifact(tiny_spec))
        listed = ArtifactStore(str(tmp_path)).entries()
        assert [entry.fingerprint for entry in listed] == [tiny_spec.fingerprint()]


class TestArtifactStoreSharedDirectory:
    """Two sweep runners sharing one ``--artifact-dir`` must stay consistent.

    The store's crash-safety contract is write-then-rename: a reader either
    sees a complete artifact or none, a torn/truncated file is treated as a
    miss and retrained, and a second runner reuses (never corrupts, never
    double-trains within reach of) what the first one persisted.
    """

    def test_second_runner_reuses_instead_of_retraining(self, tmp_path):
        # Two runners over one directory model two runner processes sharing
        # --artifact-dir one after the other.
        for workers in WORKERS:
            artifact_dir = str(tmp_path / f"workers{workers}")
            first = SweepRunner(max_workers=workers, artifact_dir=artifact_dir)
            second = SweepRunner(max_workers=workers, artifact_dir=artifact_dir)
            a = first.run(_pretrained_matrix())
            b = second.run(_pretrained_matrix())
            assert first.artifacts.trained_count == 1  # trained exactly once
            assert second.artifacts.trained_count == 0
            assert second.artifacts.reused_count == 1
            assert [r.summary for r in a.results] == [r.summary for r in b.results]

    def test_truncated_artifact_json_is_detected_and_retrained(
        self, tiny_spec, tmp_path
    ):
        # A valid JSON *prefix* (torn non-atomic write) must be a miss, not
        # a crash -- and the sweep retrains and heals the file.
        ArtifactStore(str(tmp_path)).accept(train_artifact(tiny_spec))
        path = tmp_path / f"{tiny_spec.fingerprint()}.agent.json"
        published = path.read_text()
        for workers in WORKERS:
            path.write_text(published[:200])
            runner = SweepRunner(max_workers=workers, artifact_dir=str(tmp_path))
            sweep = runner.run(_pretrained_matrix())
            assert all(result.ok for result in sweep.results)
            assert runner.artifacts.trained_count == 1
            assert AgentArtifact.load(str(path)).fingerprint == tiny_spec.fingerprint()

    def test_interrupted_write_leaves_previous_artifact_intact(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        # Crash mid-save: the staging file dies, the published artifact
        # survives byte-for-byte (the write-then-rename guarantee).
        store = ArtifactStore(str(tmp_path))
        store.accept(train_artifact(tiny_spec))
        path = tmp_path / f"{tiny_spec.fingerprint()}.agent.json"
        published = path.read_text()

        import repro.core.persistence as persistence_module

        def crash_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(persistence_module.os, "replace", crash_replace)
        artifact = store.load(tiny_spec)
        with pytest.raises(OSError):
            artifact.save(str(path))
        monkeypatch.undo()
        assert path.read_text() == published
        reader = ArtifactStore(str(tmp_path))
        assert reader.load(tiny_spec).to_dict() == artifact.to_dict()

    def test_interrupted_qtable_save_leaves_previous_files_intact(
        self, trained_agent, tmp_path, monkeypatch
    ):
        # QTableStore.save persists through the same write-then-rename seam
        # (it used to json.dump into a bare open(path, "w"), so a crash
        # mid-write left a truncated table that later loads raised on).
        store = trained_agent.store
        directory = tmp_path / "qtables"
        paths = store.save(str(directory))
        assert paths
        published = {path: open(path, encoding="utf-8").read() for path in paths}

        import repro.core.persistence as persistence_module

        def crash_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(persistence_module.os, "replace", crash_replace)
        with pytest.raises(OSError):
            store.save(str(directory))
        monkeypatch.undo()
        for path, text in published.items():
            assert open(path, encoding="utf-8").read() == text
        from repro.core.qtable import QTableStore

        reloaded = QTableStore.load(
            str(directory), store.action_count, initial_q=store.initial_q
        )
        assert reloaded.to_dict() == store.to_dict()

    def test_leftover_staging_files_are_ignored(self, tiny_spec, tmp_path):
        # A crashed writer's .tmp.<pid> debris must confuse neither load()
        # nor entries().
        store = ArtifactStore(str(tmp_path))
        store.accept(train_artifact(tiny_spec))
        debris = tmp_path / f"{tiny_spec.fingerprint()}.agent.json.tmp.12345"
        debris.write_text("{torn")
        listed = ArtifactStore(str(tmp_path)).entries()
        assert [entry.fingerprint for entry in listed] == [tiny_spec.fingerprint()]
        assert ArtifactStore(str(tmp_path)).load(tiny_spec) is not None

    def test_concurrent_writers_cannot_clobber_each_other(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        # Two processes saving the same fingerprint stage under different
        # PID-suffixed names; whichever rename lands last, the published
        # file is one writer's complete document.
        store = ArtifactStore(str(tmp_path))
        store.accept(train_artifact(tiny_spec))
        artifact = store.load(tiny_spec)
        path = tmp_path / f"{tiny_spec.fingerprint()}.agent.json"

        import repro.core.persistence as persistence_module

        real_replace = persistence_module.os.replace

        def racing_replace(src, dst):
            # The "other runner" publishes between our write and rename.
            # Restore the real rename so its publish completes, and give it
            # its own PID so its staging file cannot collide with ours.
            monkeypatch.setattr(persistence_module.os, "replace", real_replace)
            monkeypatch.setattr(persistence_module.os, "getpid", lambda: 99999)
            other = ArtifactStore(str(tmp_path))
            other.store(artifact)
            return real_replace(src, dst)

        monkeypatch.setattr(persistence_module.os, "replace", racing_replace)
        artifact.save(str(path))
        assert AgentArtifact.load(str(path)).to_dict() == artifact.to_dict()
        assert not any(tmp_path.glob("*.tmp.*"))  # no staging debris left
