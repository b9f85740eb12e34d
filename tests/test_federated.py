"""Federated device-fleet training: pipeline, parity and artifacts.

Four contract layers, each pinned here:

* :class:`FederatedAggregator` visit accounting: the merged table carries
  the pooled visit mass, so multi-round aggregation weights fleet
  experience instead of resetting every state to a fresh-write count,
* fleet training is a pure function of its :class:`FleetSpec`: inline ==
  swept in-process == swept across a pool == resumed, bit for bit,
* :class:`FleetArtifact` round-trips through JSON to an identical greedy
  policy and a sweep trains each spec once through its :class:`FleetStore`
  (resuming same-lineage shallower fleets instead of retraining), and
* the scenario-matrix integration: federated cells evaluate the merged
  agent deterministically next to cold/pretrained cells, with the same
  pool == sequential == cache parity the other variants guarantee.
"""

import dataclasses
import json

import pytest

from repro.core.agent import AgentConfig
from repro.core.federated import (
    FLEET_SCHEMA_VERSION,
    FederatedAggregator,
    FleetArtifact,
    FleetSpec,
    RoundReport,
)
from repro.core.governor import NextGovernor
from repro.core.qtable import QTable
from repro.experiments.aggregate import marginal_savings
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.federated import (
    FleetStore,
    fleet_convergence_table,
    train_fleet_artifact,
)
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import SweepRunner, execute_cell, run_matrix
from repro.reliability.faults import (
    KIND_TRANSIENT,
    SITE_TRAIN_ARTIFACT,
    FaultPlan,
    FaultRule,
    injected_faults,
)
from repro.reliability.retry import PERMANENT
from repro.sim.experiment import run_app_session
from repro.soc.platform import generic_two_cluster_soc

APP = "home"

#: Worker counts the runner-level fleet tests run at: the in-process and the
#: pool executor drive one event loop, so they must agree on every count.
WORKERS = (1, 2)


def tiny_fleet_spec(**overrides) -> FleetSpec:
    defaults = dict(
        apps=(APP,),
        devices=2,
        rounds=2,
        platform="generic-two-cluster",
        episodes=1,
        episode_duration_s=4.0,
        fleet_seed=3,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


@pytest.fixture(scope="module")
def fleet_artifact():
    return train_fleet_artifact(tiny_fleet_spec())


def _federated_matrix(apps=(APP,), seeds=(0,), **variant_overrides) -> ScenarioMatrix:
    """Cold and federated cells; the ``APP`` fleet's spec is ``tiny_fleet_spec()``."""
    variant = dict(
        key="federated",
        mode="federated",
        episodes=1,
        episode_duration_s=4.0,
        seed=3,
        devices=2,
        rounds=2,
    )
    variant.update(variant_overrides)
    return ScenarioMatrix.build(
        name="fed",
        governors=("schedutil", "next"),
        apps=apps,
        platforms=("generic-two-cluster",),
        seeds=seeds,
        duration_s=4.0,
        training=({"key": "cold", "mode": "cold"}, variant),
    )


# ---------------------------------------------------------------------------
# Aggregator visit accounting (regression)
# ---------------------------------------------------------------------------

class TestAggregatorVisitAccounting:
    def test_merged_visits_are_pooled_not_write_counted(self):
        # Regression: aggregate() used to write merged values through
        # QTable.set, which counts one visit per action -- every merged
        # state ended up with visits == action_count regardless of how much
        # fleet experience it represented.
        a = QTable(action_count=3)
        b = QTable(action_count=3)
        for _ in range(5):
            a.set((1,), 0, 1.0)
        b.set((1,), 0, 0.0)
        merged = FederatedAggregator(3).aggregate([a, b])
        assert merged.visits((1,)) == 6  # pooled, not action_count (3)

    def test_two_round_aggregation_weights_fleet_experience(self):
        # Round 1: device A (3 visits, Q=1.0) + device B (1 visit, Q=0.0)
        # -> merged Q = 0.75 carrying 4 visits.  Round 2 merges that with a
        # fresh device C (4 visits, Q=0.0): the correct visit-weighted value
        # is (0.75*4 + 0*4) / 8 = 0.375.  Under the old accounting the
        # merged table re-entered round 2 with visits == action_count == 2,
        # distorting the weight of the fleet's pooled experience.
        aggregator = FederatedAggregator(2)
        a = QTable(action_count=2)
        b = QTable(action_count=2)
        c = QTable(action_count=2)
        for _ in range(3):
            a.set((0,), 0, 1.0)
        b.set((0,), 0, 0.0)
        for _ in range(4):
            c.set((0,), 0, 0.0)
        first_round = aggregator.aggregate([a, b])
        assert first_round.get((0,), 0) == pytest.approx(0.75)
        assert first_round.visits((0,)) == 4
        second_round = aggregator.aggregate([first_round, c])
        assert second_round.get((0,), 0) == pytest.approx(0.375)
        assert second_round.visits((0,)) == 8

    def test_set_row_validates(self):
        table = QTable(action_count=2)
        with pytest.raises(ValueError, match="actions"):
            table.set_row((0,), [1.0], 3)
        with pytest.raises(ValueError, match="non-negative"):
            table.set_row((0,), [1.0, 2.0], -1)


# ---------------------------------------------------------------------------
# FleetSpec
# ---------------------------------------------------------------------------

class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_fleet_spec(apps=())
        with pytest.raises(ValueError):
            tiny_fleet_spec(apps=(APP, APP))
        with pytest.raises(ValueError):
            tiny_fleet_spec(devices=0)
        with pytest.raises(ValueError):
            tiny_fleet_spec(rounds=0)
        with pytest.raises(ValueError):
            tiny_fleet_spec(episodes=0)
        with pytest.raises(ValueError):
            tiny_fleet_spec(episode_duration_s=0.0)

    def test_dict_round_trip(self):
        spec = tiny_fleet_spec(config_overrides=(("warm_start_temperature_c", 40.0),))
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    def test_device_heterogeneity(self):
        spec = tiny_fleet_spec(apps=("facebook", "spotify", "youtube"), devices=3)
        assert spec.device_apps(0) == ("facebook", "spotify", "youtube")
        assert spec.device_apps(1) == ("spotify", "youtube", "facebook")
        assert spec.device_apps(2) == ("youtube", "facebook", "spotify")
        seeds = {
            spec.device_seed(device, round_index)
            for device in range(3)
            for round_index in range(2)
        }
        assert len(seeds) == 6  # every (device, round) phase is decoupled

    def test_round_zero_is_an_ordinary_training_spec(self):
        spec = tiny_fleet_spec()
        device_spec = spec.device_training_spec(1)
        assert device_spec.apps == spec.device_apps(1)
        assert device_spec.seed == spec.device_seed(1, 0)
        assert device_spec.platform == spec.platform

    def test_fingerprint_and_lineage(self):
        spec = tiny_fleet_spec()
        deeper = dataclasses.replace(spec, rounds=4)
        assert deeper.lineage() == spec.lineage()
        assert deeper.fingerprint() != spec.fingerprint()
        for change in (
            {"apps": (APP, "facebook")},
            {"devices": 3},
            {"episodes": 2},
            {"episode_duration_s": 5.0},
            {"fleet_seed": 4},
            {"platform": "exynos9810"},
        ):
            other = dataclasses.replace(spec, **change)
            assert other.lineage() != spec.lineage()
            assert other.fingerprint() != spec.fingerprint()
        assert spec.fingerprint(AgentConfig(ambient_c=30.0)) != spec.fingerprint()


# ---------------------------------------------------------------------------
# Fleet training
# ---------------------------------------------------------------------------

class TestFleetTraining:
    def test_artifact_shape(self, fleet_artifact):
        spec = fleet_artifact.spec
        assert fleet_artifact.rounds_completed == spec.rounds
        assert len(fleet_artifact.device_states) == spec.devices
        assert [r.round_index for r in fleet_artifact.round_reports] == [0, 1]
        agent = fleet_artifact.build_agent()
        assert agent.training is False
        assert agent.qtable_size(APP) > 0

    def test_training_is_deterministic(self, fleet_artifact):
        again = train_fleet_artifact(tiny_fleet_spec())
        assert again.to_dict() == fleet_artifact.to_dict()

    def test_pool_matches_sequential(self, fleet_artifact):
        # The sweep's pooled and in-process routes both train the fleet to
        # exactly what the one-call inline form produces.
        for workers in WORKERS:
            runner = SweepRunner(max_workers=workers)
            assert all(result.ok for result in runner.run(_federated_matrix()).results)
            assert (
                runner.fleets.load(tiny_fleet_spec()).to_dict()
                == fleet_artifact.to_dict()
            )

    def test_resume_matches_from_scratch(self, fleet_artifact):
        shallow = train_fleet_artifact(tiny_fleet_spec(rounds=1))
        resumed = train_fleet_artifact(tiny_fleet_spec(rounds=2), start=shallow)
        assert resumed.to_dict() == fleet_artifact.to_dict()

    def test_resume_rejects_other_lineage_or_depth(self, fleet_artifact):
        other = train_fleet_artifact(tiny_fleet_spec(rounds=1, fleet_seed=9))
        with pytest.raises(ValueError, match="lineage"):
            train_fleet_artifact(tiny_fleet_spec(rounds=2), start=other)
        with pytest.raises(ValueError, match="already completed"):
            train_fleet_artifact(tiny_fleet_spec(rounds=2), start=fleet_artifact)

    def test_round_zero_reuses_the_artifact_store(self, tmp_path):
        artifacts = ArtifactStore(str(tmp_path))
        spec = tiny_fleet_spec()
        train_fleet_artifact(spec, artifacts=artifacts)
        assert artifacts.trained_count == spec.devices
        # A second fleet sharing the lineage serves round 0 from the store.
        again = ArtifactStore(str(tmp_path))
        train_fleet_artifact(spec, artifacts=again)
        assert again.trained_count == 0
        assert again.reused_count == spec.devices

    def test_convergence_table_renders(self, fleet_artifact):
        table = fleet_convergence_table(fleet_artifact)
        assert "per-round convergence" in table
        assert "mean_td_error" in table


# ---------------------------------------------------------------------------
# FleetArtifact + FleetStore
# ---------------------------------------------------------------------------

class TestFleetArtifact:
    def test_save_load_round_trip(self, fleet_artifact, tmp_path):
        path = fleet_artifact.save(str(tmp_path / "fleet.json"))
        loaded = FleetArtifact.load(path)
        assert loaded.to_dict() == fleet_artifact.to_dict()

    def test_loaded_greedy_policy_is_bit_identical(self, fleet_artifact, tmp_path):
        # The satellite acceptance: a shipped fleet evaluates exactly like
        # the fleet that trained in memory, sample for sample.
        path = fleet_artifact.save(str(tmp_path / "fleet.json"))
        loaded = FleetArtifact.load(path)
        platform = generic_two_cluster_soc()
        results = [
            run_app_session(
                APP, artifact.build_governor(), duration_s=4.0,
                platform=platform, seed=11,
            )
            for artifact in (fleet_artifact, loaded)
        ]
        assert results[0].recorder.samples == results[1].recorder.samples

    def test_load_rejects_tampered_content(self, fleet_artifact, tmp_path):
        data = fleet_artifact.to_dict()
        data["spec"]["episodes"] += 1
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="fingerprint"):
            FleetArtifact.load(str(path))

    def test_load_rejects_wrong_schema_version(self, fleet_artifact, tmp_path):
        data = fleet_artifact.to_dict()
        data["schema_version"] = FLEET_SCHEMA_VERSION + 1
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema version"):
            FleetArtifact.load(str(path))

    def test_round_report_round_trip(self, fleet_artifact):
        for report in fleet_artifact.round_reports:
            assert RoundReport.from_dict(report.to_dict()) == report

    def test_evaluation_only_strips_fleet_bulk_but_keeps_the_policy(
        self, fleet_artifact
    ):
        stripped = fleet_artifact.evaluation_only()
        assert stripped.device_states == [] and stripped.round_reports == []
        assert stripped.fingerprint == fleet_artifact.fingerprint
        assert stripped.build_agent().to_dict() == fleet_artifact.build_agent().to_dict()


class TestFleetStore:
    def test_trains_once_then_reuses_across_instances(self, tmp_path):
        spec = tiny_fleet_spec()
        matrix = _federated_matrix(seeds=(0, 1))  # two federated cells, one fleet
        for workers in WORKERS:
            artifact_dir = str(tmp_path / f"workers{workers}")
            first = SweepRunner(max_workers=workers, artifact_dir=artifact_dir)
            first.run(matrix)
            assert first.fleets.trained_count == 1 and first.fleets.reused_count == 0
            second = SweepRunner(max_workers=workers, artifact_dir=artifact_dir)
            second.run(matrix)
            assert second.fleets.trained_count == 0 and second.fleets.reused_count == 1
            assert second.fleets.load(spec).to_dict() == first.fleets.load(spec).to_dict()

    def test_deeper_spec_resumes_the_stored_lineage(self, fleet_artifact, tmp_path):
        shallow = train_fleet_artifact(tiny_fleet_spec(rounds=1))
        for workers in WORKERS:
            artifact_dir = str(tmp_path / f"workers{workers}")
            FleetStore(artifact_dir).accept(shallow)
            runner = SweepRunner(max_workers=workers, artifact_dir=artifact_dir)
            assert all(result.ok for result in runner.run(_federated_matrix()).results)
            assert runner.fleets.resumed_count == 1
            assert (
                runner.fleets.load(tiny_fleet_spec()).to_dict()
                == fleet_artifact.to_dict()
            )

    def test_corrupt_resume_candidate_falls_back_to_the_next_deepest(
        self, fleet_artifact, tmp_path
    ):
        store = FleetStore(str(tmp_path))
        store.accept(train_fleet_artifact(tiny_fleet_spec(rounds=1)))
        store.accept(fleet_artifact)
        # Corrupt the deepest candidate; resumption must fall back to the
        # 1-round artifact instead of crashing or retraining from scratch.
        deep_path = tmp_path / f"{tiny_fleet_spec(rounds=2).fingerprint()}.fleet.json"
        deep_path.write_text(deep_path.read_text()[:-40])
        fresh = FleetStore(str(tmp_path))
        candidate = fresh.resume_candidate(tiny_fleet_spec(rounds=3))
        assert candidate is not None
        assert candidate.rounds_completed == 1

    def test_truncated_fleet_file_is_retrained(self, fleet_artifact, tmp_path):
        spec = tiny_fleet_spec()
        FleetStore(str(tmp_path)).accept(fleet_artifact)
        path = tmp_path / f"{spec.fingerprint()}.fleet.json"
        published = path.read_text()
        for workers in WORKERS:
            path.write_text(published[:100])  # simulate a torn write
            runner = SweepRunner(max_workers=workers, artifact_dir=str(tmp_path))
            assert all(result.ok for result in runner.run(_federated_matrix()).results)
            assert runner.fleets.trained_count == 1  # corrupt entry treated as a miss
            assert FleetArtifact.load(str(path)).fingerprint == spec.fingerprint()

    def test_training_failure_is_isolated(self):
        # Every round-0 training attempt of one device of the facebook fleet
        # fails: that fleet's cell fails, the home fleet still trains.
        doomed = tiny_fleet_spec(apps=("facebook",))
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_TRAIN_ARTIFACT,
                    kind=KIND_TRANSIENT,
                    match=doomed.device_training_spec(0).fingerprint(),
                    max_attempt=99,
                ),
            )
        )
        for workers in WORKERS:
            runner = SweepRunner(max_workers=workers)
            with injected_faults(plan):
                sweep = runner.run(_federated_matrix(apps=(APP, "facebook")))
            assert [result.cell.fleet_spec() for result in sweep.failures] == [doomed]
            failure = sweep.failures[0]
            assert failure.error_kind == PERMANENT
            assert failure.error.startswith(
                f"training failed for fleet {doomed.fingerprint()} ("
            )
            device = doomed.device_training_spec(0).fingerprint()
            assert f"\ntraining failed for artifact {device} (" in failure.error
            assert failure.error_type is None
            assert "injected transient fault" in failure.error
            assert runner.fleets.trained_count == 1


# ---------------------------------------------------------------------------
# Scenario-matrix integration
# ---------------------------------------------------------------------------

class TestFederatedCells:
    def test_only_trainable_governors_expand(self):
        matrix = _federated_matrix()
        cells = matrix.cells()
        assert len(cells) == len(matrix) == 3  # schedutil once, next twice
        federated = [cell for cell in cells if cell.federated]
        assert len(federated) == 1
        assert federated[0].governor == "next"
        assert federated[0].label().endswith("/federated")

    def test_fleet_spec_derivation(self):
        matrix = ScenarioMatrix.build(
            name="fed",
            governors=("next",),
            apps=(APP,),
            platforms=("generic-two-cluster",),
            duration_s=4.0,
            config_overrides={"warm_start_temperature_c": 40.0},
            training={
                "mode": "federated", "episodes": 1, "episode_duration_s": 4.0,
                "devices": 3, "rounds": 2, "seed": 7,
            },
        )
        cell = matrix.cells()[0]
        assert cell.training_spec() is None
        fleet = cell.fleet_spec()
        assert fleet.apps == (APP,)  # derived from the workload
        assert fleet.platform == cell.platform
        assert (fleet.devices, fleet.rounds, fleet.fleet_seed) == (3, 2, 7)
        assert fleet.config_overrides == (("warm_start_temperature_c", 40.0),)

    def test_training_modes_have_distinct_fingerprints(self):
        def cell_for(training):
            return ScenarioMatrix.build(
                name="t", governors=("next",), apps=(APP,),
                platforms=("generic-two-cluster",), duration_s=4.0,
                training=training,
            ).cells()[0]

        cold = cell_for(None)
        pretrained = cell_for(
            {"mode": "pretrained", "episodes": 1, "episode_duration_s": 4.0}
        )
        federated = cell_for(
            {"mode": "federated", "episodes": 1, "episode_duration_s": 4.0}
        )
        fingerprints = {c.fingerprint() for c in (cold, pretrained, federated)}
        assert len(fingerprints) == 3
        # Cosmetic differences still share a fingerprint: pinning exactly
        # the workload's own apps resolves to the same FleetSpec.
        pinned = cell_for(
            {"mode": "federated", "apps": [APP], "episodes": 1,
             "episode_duration_s": 4.0}
        )
        assert pinned.fingerprint() == federated.fingerprint()

    def test_fleet_shape_changes_the_fingerprint(self):
        base = _federated_matrix().cells()
        bigger = _federated_matrix(devices=3).cells()
        deeper = _federated_matrix(rounds=3).cells()
        federated = [c for c in base if c.federated][0]
        assert [c for c in bigger if c.federated][0].fingerprint() != federated.fingerprint()
        assert [c for c in deeper if c.federated][0].fingerprint() != federated.fingerprint()

    def test_pool_sequential_and_cache_parity(self, tmp_path):
        # The tentpole acceptance: pool == sequential == artifact-cached,
        # bit-identical across runs with the same fleet seed.
        matrix = _federated_matrix()
        sequential = run_matrix(matrix, max_workers=1)
        assert all(result.ok for result in sequential.results)
        pooled = run_matrix(matrix, max_workers=2)
        cache_dir = str(tmp_path / "cache")
        cached_cold = run_matrix(matrix, max_workers=1, cache_dir=cache_dir)
        served_runner = SweepRunner(max_workers=1, cache_dir=cache_dir)
        served = served_runner.run(matrix)
        assert served.cached_count == len(matrix)
        assert served_runner.fleets.trained_count == 0
        for sweep in (pooled, cached_cold, served):
            assert [r.summary for r in sweep.results] == [
                r.summary for r in sequential.results
            ]

    def test_rerun_with_same_fleet_seed_is_bit_identical(self):
        matrix = _federated_matrix()
        first = run_matrix(matrix, max_workers=1)
        second = run_matrix(matrix, max_workers=1)
        assert [r.summary for r in first.results] == [
            r.summary for r in second.results
        ]
        assert [r.cell.fingerprint() for r in first.results] == [
            r.cell.fingerprint() for r in second.results
        ]

    def test_standalone_execute_cell_trains_inline(self, tmp_path):
        matrix = _federated_matrix()
        cell = next(c for c in matrix.cells() if c.federated)
        inline = execute_cell(cell)
        assert inline.ok
        # Inline training and the runner's store-resolved fleet agree.
        runner = SweepRunner(max_workers=1, artifact_dir=str(tmp_path))
        sweep = runner.run(matrix)
        assert sweep.result_for(cell).summary == inline.summary

    def test_fleet_training_failure_fails_only_federated_cells(self):
        # A fault plan, unlike a monkeypatch, reaches pool workers under
        # every start method.  Every round-0 training attempt fails.
        plan = FaultPlan(
            rules=(
                FaultRule(site=SITE_TRAIN_ARTIFACT, kind=KIND_TRANSIENT, max_attempt=99),
            )
        )
        for workers in WORKERS:
            with injected_faults(plan):
                sweep = run_matrix(_federated_matrix(), max_workers=workers)
            federated = [r for r in sweep.results if r.cell.federated]
            others = [r for r in sweep.results if not r.cell.federated]
            assert federated and all(not r.ok for r in federated)
            assert all(r.error_kind == PERMANENT for r in federated)
            assert all("injected transient fault" in r.error for r in federated)
            assert all(r.ok for r in others)

    def test_marginal_savings_by_training_mode(self):
        sweep = run_matrix(_federated_matrix(), max_workers=1)
        by_mode = marginal_savings(
            sweep.results, axis="training_mode", metric="average_power_w"
        )
        assert set(by_mode) == {"cold", "federated"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestFederatedCli:
    @staticmethod
    def _spec_file(tmp_path):
        path = tmp_path / "fed.json"
        path.write_text(json.dumps({
            "name": "cli-fed",
            "governors": ["schedutil", "next"],
            "workloads": [APP],
            "platforms": ["generic-two-cluster"],
            "duration_s": 4.0,
            "training": [
                {"key": "cold", "mode": "cold"},
                {
                    "key": "federated", "mode": "federated", "episodes": 1,
                    "episode_duration_s": 4.0, "devices": 2, "rounds": 2,
                    "seed": 3,
                },
            ],
        }))
        return str(path)

    def test_federated_sweep_reports_convergence(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["--spec", self._spec_file(tmp_path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fleets: 1 trained, 0 reused, 0 resumed" in out
        assert "per-round convergence" in out

    def test_fleet_flags_override_the_variant(self, tmp_path):
        from repro.experiments.cli import build_parser, _resolve_matrix

        args = build_parser().parse_args(
            ["--spec", self._spec_file(tmp_path),
             "--devices", "5", "--rounds", "4", "--fleet-seed", "11"]
        )
        matrix = _resolve_matrix(args)
        federated = [v for v in matrix.training if v.federated]
        assert len(federated) == 1
        assert (federated[0].devices, federated[0].rounds, federated[0].seed) == (
            5, 4, 11,
        )
        cold = [v for v in matrix.training if not v.trains]
        assert cold and cold[0].devices == 4  # non-federated variants untouched

    def test_fleet_flags_need_a_federated_variant(self, capsys):
        from repro.experiments.cli import main

        assert main(["smoke", "--devices", "3"]) == 2
        assert "federated training variant" in capsys.readouterr().err

    def test_list_artifacts_shows_fleets(self, fleet_artifact, tmp_path, capsys):
        from repro.experiments.cli import main

        FleetStore(str(tmp_path)).accept(fleet_artifact)
        assert main(["--list-artifacts", "--artifact-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"fleet apps={APP}" in out
        assert "devices=2 rounds=2" in out
