"""Tests for the scenario-matrix harness: matrix, runner, aggregate, CLI."""

import json

import pytest

from repro.experiments.aggregate import (
    MetricStatistics,
    condition_table,
    metric_statistics,
    marginal_savings,
    marginal_table,
    paired_savings,
    replicate_statistics,
)
from repro.experiments.matrix import (
    COLD_TRAINING,
    NAMED_MATRICES,
    ScenarioCell,
    ScenarioMatrix,
    TrainingVariant,
    WorkloadSpec,
    named_matrix,
)
from repro.experiments.runner import CellResult, SweepRunner, execute_cell, run_matrix
from repro.experiments import cli
from repro.workloads.session import FIGURE1_SESSION, session_matrix


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------

class TestWorkloadSpec:
    def test_single_app(self):
        spec = WorkloadSpec.single_app("facebook", 30.0)
        assert spec.key == "facebook"
        assert spec.duration_s == pytest.approx(30.0)

    def test_from_session(self):
        spec = WorkloadSpec.from_session("fig1", FIGURE1_SESSION)
        assert [app for app, _ in spec.segments] == ["home", "facebook", "spotify"]
        assert spec.duration_s == pytest.approx(FIGURE1_SESSION.total_duration_s)

    def test_rejects_unknown_app_and_bad_duration(self):
        with pytest.raises(ValueError):
            WorkloadSpec.single_app("not_an_app", 10.0)
        with pytest.raises(ValueError):
            WorkloadSpec.single_app("facebook", 0.0)

    def test_dict_roundtrip(self):
        spec = WorkloadSpec.from_session("fig1", FIGURE1_SESSION)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec


class TestScenarioMatrix:
    def test_full_factorial_expansion(self):
        matrix = ScenarioMatrix.build(
            name="t",
            governors=("schedutil", "powersave"),
            apps=("facebook", "spotify"),
            platforms=("exynos9810", "generic-two-cluster"),
            seeds=(0, 1, 2),
            duration_s=5.0,
        )
        cells = matrix.cells()
        assert len(cells) == len(matrix) == 2 * 2 * 2 * 3
        assert len({cell.fingerprint() for cell in cells}) == len(cells)
        # pre-registered order: workload-major, governor fastest
        assert [cell.governor for cell in cells[:2]] == ["schedutil", "powersave"]

    def test_validates_axes(self):
        workloads = (WorkloadSpec.single_app("facebook", 5.0),)
        with pytest.raises(ValueError):
            ScenarioMatrix(name="t", governors=(), workloads=workloads)
        with pytest.raises(ValueError):
            ScenarioMatrix(name="t", governors=("nope",), workloads=workloads)
        with pytest.raises(ValueError):
            ScenarioMatrix(
                name="t", governors=("schedutil",), workloads=workloads,
                platforms=("martian-soc",),
            )
        with pytest.raises(ValueError):
            ScenarioMatrix(
                name="t", governors=("schedutil",), workloads=workloads,
                seeds=(0, 0),
            )

    def test_config_overrides_validated_at_construction(self):
        # Typos and reserved keys fail fast with a clear message, not as an
        # opaque per-cell TypeError after the sweep has started.
        with pytest.raises(ValueError, match="unknown config override"):
            ScenarioMatrix.build(
                name="t", governors=("schedutil",), apps=("facebook",),
                config_overrides={"bogus_knob": 1},
            )
        with pytest.raises(ValueError, match="reserved"):
            ScenarioMatrix.build(
                name="t", governors=("schedutil",), apps=("facebook",),
                config_overrides={"duration_s": 30.0},
            )
        matrix = ScenarioMatrix.build(
            name="t", governors=("schedutil",), apps=("facebook",),
            duration_s=3.0, config_overrides={"warm_start_temperature_c": 30.0},
        )
        sweep = run_matrix(matrix, max_workers=1)
        assert all(result.ok for result in sweep.results)

    def test_governor_params_must_match_axis(self):
        with pytest.raises(ValueError):
            ScenarioMatrix.build(
                name="t",
                governors=("schedutil",),
                apps=("facebook",),
                governor_params={"next": {"seed": 1}},
            )

    def test_dict_roundtrip(self):
        matrix = named_matrix("smoke")
        rebuilt = ScenarioMatrix.from_dict(matrix.to_dict())
        assert rebuilt == matrix
        assert [c.fingerprint() for c in rebuilt.cells()] == [
            c.fingerprint() for c in matrix.cells()
        ]

    def test_from_dict_bare_names_and_named_sessions(self):
        matrix = ScenarioMatrix.from_dict(
            {
                "name": "mix",
                "governors": ["schedutil"],
                "workloads": ["facebook", "fig1"],
                "duration_s": 12.0,
            }
        )
        keys = {workload.key: workload for workload in matrix.workloads}
        assert keys["facebook"].duration_s == pytest.approx(12.0)
        assert keys["fig1"].duration_s == pytest.approx(
            FIGURE1_SESSION.total_duration_s
        )

    def test_from_dict_game_duration_and_unknown_keys(self):
        matrix = ScenarioMatrix.from_dict(
            {
                "name": "g",
                "governors": ["schedutil"],
                "workloads": ["facebook", "pubg"],
                "duration_s": 30.0,
                "game_duration_s": 120.0,
            }
        )
        durations = {w.key: w.duration_s for w in matrix.workloads}
        assert durations["facebook"] == pytest.approx(30.0)
        assert durations["pubg"] == pytest.approx(120.0)
        # A typo'd key must not silently run a different experiment.
        with pytest.raises(ValueError, match="unknown matrix key"):
            ScenarioMatrix.from_dict(
                {"name": "g", "governors": ["schedutil"],
                 "workloads": ["facebook"], "governors_params": {}}
            )

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(named_matrix("smoke").to_dict()))
        assert ScenarioMatrix.from_file(str(path)) == named_matrix("smoke")

    def test_from_file_malformed_json_raises_value_error(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            ScenarioMatrix.from_file(str(bad_json))

    def test_from_file_malformed_yaml_raises_value_error(self, tmp_path):
        pytest.importorskip("yaml")  # PyYAML is an optional dependency
        bad_yaml = tmp_path / "bad.yaml"
        bad_yaml.write_text("governors: [schedutil")
        with pytest.raises(ValueError, match="invalid YAML"):
            ScenarioMatrix.from_file(str(bad_yaml))

    def test_named_matrices_all_expand(self):
        for name in NAMED_MATRICES:
            matrix = named_matrix(name)
            assert len(matrix.cells()) == len(matrix) > 0
        with pytest.raises(ValueError):
            named_matrix("nope")


class TestTrainingAxis:
    PRETRAINED = {
        "key": "pretrained",
        "mode": "pretrained",
        "episodes": 1,
        "episode_duration_s": 4.0,
    }

    def test_default_axis_is_cold_only(self):
        matrix = named_matrix("smoke")
        assert matrix.training == (COLD_TRAINING,)
        assert all(cell.training == COLD_TRAINING for cell in matrix.cells())
        assert not any(cell.pretrained for cell in matrix.cells())

    def test_only_trainable_governors_expand_across_the_axis(self):
        matrix = ScenarioMatrix.build(
            name="t",
            governors=("schedutil", "next"),
            apps=("facebook",),
            duration_s=4.0,
            training=({"mode": "cold"}, self.PRETRAINED),
        )
        cells = matrix.cells()
        assert len(cells) == len(matrix) == 3  # schedutil once, next twice
        by_governor = {}
        for cell in cells:
            by_governor.setdefault(cell.governor, []).append(cell.training.key)
        assert by_governor["schedutil"] == ["cold"]
        assert by_governor["next"] == ["cold", "pretrained"]
        assert len({cell.fingerprint() for cell in cells}) == 3

    def test_pretrained_cell_spec_and_label(self):
        matrix = ScenarioMatrix.build(
            name="t",
            governors=("next",),
            apps=("facebook",),
            duration_s=4.0,
            training=self.PRETRAINED,
        )
        cell = matrix.cells()[0]
        assert cell.pretrained
        assert cell.label().endswith("/pretrained")
        spec = cell.training_spec()
        assert spec.apps == ("facebook",)  # derived from the workload
        assert spec.platform == cell.platform
        assert spec.episodes == 1
        rebuilt = ScenarioCell.from_spec(cell.spec())
        assert rebuilt == cell
        assert rebuilt.fingerprint() == cell.fingerprint()

    def test_training_changes_the_fingerprint(self):
        base = ScenarioMatrix.build(
            name="t", governors=("next",), apps=("facebook",), duration_s=4.0
        ).cells()[0]
        trained = ScenarioMatrix.build(
            name="t", governors=("next",), apps=("facebook",), duration_s=4.0,
            training=self.PRETRAINED,
        ).cells()[0]
        assert base.fingerprint() != trained.fingerprint()

    def test_cosmetic_variant_differences_share_fingerprints_and_cache(self, tmp_path):
        # Only execution semantics may enter the fingerprint: a renamed cold
        # variant (or an unused training budget on it) describes the same
        # run, and a pretrained variant pinning exactly the workload's own
        # apps resolves to the same TrainingSpec as one that derives them.
        def cell_with_training(training):
            return ScenarioMatrix.build(
                name="t", governors=("next",), apps=("facebook",),
                duration_s=4.0, training=training,
            ).cells()[0]

        default_cold = cell_with_training(None)
        renamed_cold = cell_with_training(
            {"key": "baseline", "mode": "cold", "episodes": 3}
        )
        assert default_cold.fingerprint() == renamed_cold.fingerprint()
        derived_apps = cell_with_training(self.PRETRAINED)
        pinned_apps = cell_with_training(dict(self.PRETRAINED, apps=["facebook"]))
        assert derived_apps.fingerprint() == pinned_apps.fingerprint()
        # The result cache honours the same equivalence end to end.
        from repro.experiments.runner import ResultCache, execute_cell

        cache = ResultCache(str(tmp_path))
        cache.store(execute_cell(default_cold))
        hit = cache.load(renamed_cold)
        assert hit is not None and hit.from_cache
        assert hit.cell == renamed_cold  # served under the requesting cell

    def test_matrix_config_overrides_reach_the_training_spec(self):
        # The agent must train in the same simulated environment its
        # evaluation cells run in.
        matrix = ScenarioMatrix.build(
            name="t", governors=("next",), apps=("facebook",), duration_s=4.0,
            training=self.PRETRAINED,
            config_overrides={"warm_start_temperature_c": 40.0},
        )
        spec = matrix.cells()[0].training_spec()
        assert spec.config_overrides == (("warm_start_temperature_c", 40.0),)

    def test_explicit_training_apps_override_the_workload(self):
        # Pinning a superset lets many workloads share one artifact; the pin
        # must still cover every workload's own apps.
        variant = dict(self.PRETRAINED, apps=["facebook", "youtube"])
        matrix = ScenarioMatrix.build(
            name="t", governors=("next",), apps=("youtube",), duration_s=4.0,
            training=variant,
        )
        assert matrix.cells()[0].training_spec().apps == ("facebook", "youtube")

    def test_pinned_training_apps_must_cover_the_workload(self):
        with pytest.raises(ValueError, match="must cover"):
            ScenarioMatrix.build(
                name="t", governors=("next",), apps=("youtube",), duration_s=4.0,
                training=dict(self.PRETRAINED, apps=["facebook"]),
            )

    def test_pretrained_axis_requires_a_trainable_governor(self):
        with pytest.raises(ValueError, match="trainable governor"):
            ScenarioMatrix.build(
                name="t", governors=("schedutil",), apps=("facebook",),
                duration_s=4.0, training=self.PRETRAINED,
            )

    def test_pretrained_axis_rejects_trainable_governor_params(self):
        with pytest.raises(ValueError, match="governor_params"):
            ScenarioMatrix.build(
                name="t", governors=("next",), apps=("facebook",),
                duration_s=4.0, training=self.PRETRAINED,
                governor_params={"next": {"seed": 3}},
            )

    def test_variant_validation(self):
        with pytest.raises(ValueError, match="unknown training mode"):
            TrainingVariant(mode="lukewarm")
        with pytest.raises(ValueError, match="unknown app"):
            TrainingVariant(mode="pretrained", apps=("not_an_app",))
        with pytest.raises(ValueError, match="unknown training key"):
            TrainingVariant.from_dict({"mode": "pretrained", "episoeds": 3})
        with pytest.raises(ValueError, match="unique"):
            ScenarioMatrix.build(
                name="t", governors=("next",), apps=("facebook",), duration_s=4.0,
                training=({"mode": "cold"}, {"mode": "cold"}),
            )

    def test_matrix_dict_round_trip_with_training(self):
        matrix = ScenarioMatrix.build(
            name="t", governors=("schedutil", "next"), apps=("facebook",),
            duration_s=4.0, training=self.PRETRAINED,
        )
        rebuilt = ScenarioMatrix.from_dict(matrix.to_dict())
        assert rebuilt == matrix
        assert [c.fingerprint() for c in rebuilt.cells()] == [
            c.fingerprint() for c in matrix.cells()
        ]


class TestSessionMatrixHelper:
    def test_games_get_game_duration(self):
        sessions = session_matrix(
            ("facebook", "pubg"), duration_s=60.0, game_duration_s=120.0
        )
        assert sessions["facebook"].total_duration_s == pytest.approx(60.0)
        assert sessions["pubg"].total_duration_s == pytest.approx(120.0)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            session_matrix(())
        with pytest.raises(ValueError):
            session_matrix(("facebook", "facebook"))


# ---------------------------------------------------------------------------
# Runner behaviour
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep():
    matrix = ScenarioMatrix.build(
        name="small",
        governors=("schedutil", "powersave"),
        apps=("facebook", "spotify"),
        seeds=(0, 1),
        duration_s=4.0,
    )
    return matrix, run_matrix(matrix, max_workers=1)


class TestRunner:
    def test_results_in_cell_order(self, small_sweep):
        matrix, sweep = small_sweep
        assert [result.cell for result in sweep.results] == matrix.cells()
        assert all(result.ok for result in sweep.results)
        assert all(result.metric("average_power_w") > 0 for result in sweep.results)

    def test_failure_isolation(self, monkeypatch):
        matrix = ScenarioMatrix.build(
            name="crashy",
            governors=("schedutil", "powersave"),
            apps=("facebook",),
            duration_s=3.0,
        )
        import repro.experiments.runner as runner_module

        real = runner_module.make_governor

        # Inject the fault where the scalar and batch-kernel cell paths
        # meet: both instantiate the governor through the runner module's
        # make_governor, so a diverging configuration crashes either route
        # (a batch that hits it falls back to per-cell execution, which then
        # isolates the crash to its own cell).
        def crash_on_powersave(name, **kwargs):
            if name == "powersave":
                raise RuntimeError("boom")
            return real(name, **kwargs)

        monkeypatch.setattr(runner_module, "make_governor", crash_on_powersave)
        sweep = runner_module.run_matrix(matrix, max_workers=1)
        assert len(sweep.completed) == 1
        assert len(sweep.failures) == 1
        failure = sweep.failures[0]
        assert failure.cell.governor == "powersave"
        assert "boom" in failure.error
        with pytest.raises(ValueError):
            failure.metric("average_power_w")

    def test_errors_not_cached(self, monkeypatch, tmp_path):
        matrix = ScenarioMatrix.build(
            name="crashy", governors=("powersave",), apps=("facebook",), duration_s=3.0
        )
        import repro.experiments.runner as runner_module

        def crash(cell, artifact=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_module, "run_cell_session", crash)
        runner = SweepRunner(max_workers=1, cache_dir=str(tmp_path))
        assert len(runner.run(matrix).failures) == 1
        assert sorted(tmp_path.glob("*.json")) == []
        # Once "fixed", the cell runs for real and then caches.
        monkeypatch.undo()
        sweep = runner.run(matrix)
        assert sweep.failures == [] and sweep.cached_count == 0
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_progress_callback(self, small_sweep):
        matrix, _ = small_sweep
        seen = []
        run_matrix(
            matrix,
            max_workers=1,
            progress=lambda done, total, result: seen.append((done, total, result.ok)),
        )
        assert [entry[0] for entry in seen] == list(range(1, len(matrix) + 1))
        assert all(total == len(matrix) for _, total, _ in seen)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SweepRunner(max_workers=0)

    def test_result_for_looks_up_by_fingerprint(self, small_sweep):
        matrix, sweep = small_sweep
        cell = matrix.cells()[3]
        assert sweep.result_for(cell) is sweep.results[3]
        foreign = ScenarioMatrix.build(
            name="other", governors=("schedutil",), apps=("youtube",), duration_s=3.0
        ).cells()[0]
        with pytest.raises(KeyError):
            sweep.result_for(foreign)

    def test_unknown_metric_is_a_value_error(self, small_sweep):
        _, sweep = small_sweep
        with pytest.raises(ValueError, match="unknown metric"):
            sweep.results[0].metric("average_pwoer_w")
        # Real-but-non-scalar summary entries are rejected the same way, so
        # programmatic aggregation gets the clear error the CLI gives.
        with pytest.raises(ValueError, match="unknown metric"):
            sweep.results[0].metric("peak_temperature_c")

    def test_result_dict_roundtrip(self, small_sweep):
        _, sweep = small_sweep
        result = sweep.results[0]
        rebuilt = CellResult.from_dict(result.to_dict())
        assert rebuilt.cell == result.cell
        assert rebuilt.summary == result.summary


class TestHeterogeneousBatchedSweep:
    """Mixed-duration/cadence sweeps route through the masked batch kernel.

    Before the masked kernel, cells only grouped when their durations (and
    every override) matched exactly; a sweep mixing browsing and game
    session lengths fell back to scalar execution.  These tests pin that
    such sweeps now batch -- and that the pool, sequential-batched and
    forced-scalar routes all produce bit-identical summaries, so cached
    results from any route stay interchangeable.
    """

    def _mixed_duration_matrix(self):
        # lineage is a game: game_duration_s gives it a longer session than
        # facebook's, so the two cells have heterogeneous trace durations.
        return ScenarioMatrix.build(
            name="hetero",
            governors=("schedutil", "powersave"),
            apps=("facebook", "lineage"),
            duration_s=3.0,
            game_duration_s=5.0,
        )

    def test_mixed_duration_cells_group_into_one_masked_batch(self):
        pytest.importorskip("numpy")
        from repro.experiments.runner import batchable_cell_groups

        matrix = self._mixed_duration_matrix()
        pending = list(enumerate(matrix.cells()))
        groups, rest = batchable_cell_groups(pending)
        assert rest == []
        assert len(groups) == 1 and len(groups[0]) == len(matrix)
        durations = {cell.workload.duration_s for _, cell in groups[0]}
        assert durations == {3.0, 5.0}

    def test_mixed_cadence_cells_group_and_match_scalar(self):
        pytest.importorskip("numpy")
        from dataclasses import replace

        from repro.experiments.runner import (
            batchable_cell_groups,
            execute_cells_batched,
        )

        base = self._mixed_duration_matrix().cells()
        cells = [
            replace(cell, config_overrides=(("record_every_n_ticks", 1 + i % 2),))
            for i, cell in enumerate(base)
        ]
        groups, rest = batchable_cell_groups(list(enumerate(cells)))
        assert rest == [] and len(groups) == 1
        batched = execute_cells_batched(cells)
        scalar = [execute_cell(cell) for cell in cells]
        assert [r.summary for r in batched] == [r.summary for r in scalar]

    def test_pool_sequential_and_scalar_routes_agree(self, monkeypatch, batch_route):
        pytest.importorskip("numpy")
        import repro.experiments.runner as runner_module

        matrix = self._mixed_duration_matrix()
        sequential = run_matrix(matrix, max_workers=1)
        pooled = run_matrix(matrix, max_workers=2)
        monkeypatch.setattr(runner_module, "batch_kernel_available", lambda: False)
        scalar = run_matrix(matrix, max_workers=1)
        summaries = [
            [result.summary for result in sweep.results]
            for sweep in (sequential, pooled, scalar)
        ]
        assert all(sweep.failures == [] for sweep in (sequential, pooled, scalar))
        assert summaries[0] == summaries[1] == summaries[2]

    def test_scalar_fallback_with_numpy_absent(self, monkeypatch, batch_route):
        # Simulate a NumPy-less interpreter: ``sys.modules[name] = None``
        # makes ``import numpy`` raise ImportError, so the runner must take
        # the scalar route end to end -- with identical results.
        pytest.importorskip("numpy")
        import sys

        matrix = self._mixed_duration_matrix()
        with_kernel = run_matrix(matrix, max_workers=1)
        for name in list(sys.modules):
            if name == "numpy" or name.startswith("numpy."):
                monkeypatch.setitem(sys.modules, name, None)
        without_kernel = run_matrix(matrix, max_workers=1)
        assert without_kernel.failures == []
        assert [result.summary for result in without_kernel.results] == [
            result.summary for result in with_kernel.results
        ]


class TestBatchedCellGroup:
    """``execute_cells_batched``: one trace per session, whole-lane timings."""

    def _cells(self):
        # Three governors replay each of four sessions (two apps x two seeds).
        return ScenarioMatrix.build(
            name="shared-traces",
            governors=("schedutil", "powersave", "conservative"),
            apps=("facebook", "spotify"),
            seeds=(0, 1),
            duration_s=1.0,
        ).cells()

    def test_each_session_is_recorded_once_and_hashes_match_scalar(self, monkeypatch):
        pytest.importorskip("numpy")
        import repro.experiments.runner as runner_module

        cells = self._cells()
        keys = [(cell.workload.segments, cell.trace_seed) for cell in cells]
        assert len(set(keys)) == 4 < len(cells)
        recorded = []
        record = runner_module.record_session_trace

        def counting(segments, platform=None, seed=0):
            recorded.append(
                (tuple((s.app_name, s.duration_s) for s in segments), seed)
            )
            return record(segments, platform=platform, seed=seed)

        monkeypatch.setattr(runner_module, "record_session_trace", counting)
        batched = runner_module.execute_cells_batched(cells)
        monkeypatch.undo()
        assert sorted(recorded) == sorted(set(keys))
        assert all(result.ok for result in batched)
        assert [r.summary["sample_stream_hash"] for r in batched] == [
            execute_cell(cell).summary["sample_stream_hash"] for cell in cells
        ]

    def test_elapsed_s_includes_gather_summary_and_hash(self, monkeypatch):
        pytest.importorskip("numpy")
        import time

        import repro.experiments.runner as runner_module
        from repro.sim.recorder import Recorder

        pause_s = 0.2
        content_hash = Recorder.content_hash

        def slow_hash(recorder):
            time.sleep(pause_s)
            return content_hash(recorder)

        def no_fallback(cell, artifact=None, attempt=0):
            raise AssertionError("the batch fell back to the scalar route")

        monkeypatch.setattr(Recorder, "content_hash", slow_hash)
        monkeypatch.setattr(runner_module, "execute_cell", no_fallback)
        results = runner_module.execute_cells_batched(self._cells()[:3])
        assert all(result.ok for result in results)
        assert all(result.elapsed_s >= pause_s for result in results)

    def test_device_ticks_per_s_is_a_histogram_of_batches(self):
        """Per-batch throughput merges across processes (count/sum/min/max)."""
        pytest.importorskip("numpy")
        from repro.experiments.runner import execute_cells_batched
        from repro.obs.metrics import metrics, reset_metrics

        cells = self._cells()
        reset_metrics()
        try:
            for group in (cells[:2], cells[2:4]):
                assert all(result.ok for result in execute_cells_batched(group))
            assert metrics().histograms["batch.device_ticks_per_s"]["count"] == 2
            assert "batch.device_ticks_per_s" not in metrics().gauges
        finally:
            reset_metrics()


class TestSweepTraceSharing:
    """An in-process sweep records each session once, for all of its cells."""

    @staticmethod
    def counting_recorder(monkeypatch):
        import weakref

        import repro.experiments.runner as runner_module

        traces = []
        record = runner_module.record_session_trace

        def counting(segments, platform=None, seed=0):
            trace = record(segments, platform=platform, seed=seed)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(runner_module, "record_session_trace", counting)
        return traces

    def test_each_session_is_recorded_once_and_released(self, monkeypatch):
        import gc

        matrix = ScenarioMatrix.build(
            name="shared-sessions",
            governors=("schedutil", "powersave"),
            apps=("facebook", "spotify"),
            seeds=(0,),
            duration_s=2.0,
        )
        traces = self.counting_recorder(monkeypatch)
        remaining = {}
        for cell in matrix.cells():
            remaining[cell.workload.key] = remaining.get(cell.workload.key, 0) + 1

        def progress(done, total, result):
            # A session's trace is dropped once its last cell is delivered.
            remaining[result.cell.workload.key] -= 1
            live = sum(ref() is not None for ref in traces)
            assert live <= sum(count > 0 for count in remaining.values())

        result = SweepRunner(max_workers=1).run(matrix, progress=progress)
        assert len(result.completed) == 4
        assert len(traces) == 2
        gc.collect()
        assert [ref() for ref in traces] == [None, None]

    def test_a_lone_cell_records_on_every_call(self, monkeypatch):
        cell = ScenarioMatrix.build(
            name="lone", governors=("schedutil",), apps=("facebook",),
            seeds=(0,), duration_s=1.0,
        ).cells()[0]
        traces = self.counting_recorder(monkeypatch)
        assert execute_cell(cell).ok and execute_cell(cell).ok
        assert len(traces) == 2


class TestResultCacheQuarantine:
    """Corrupt cache entries are quarantined as misses, never raised mid-sweep."""

    @staticmethod
    def _single_cell_matrix():
        return ScenarioMatrix.build(
            name="quarantine", governors=("powersave",), apps=("facebook",),
            duration_s=3.0,
        )

    @pytest.mark.parametrize(
        "payload",
        [
            '{"cell": {"governor": "powersa',  # truncated mid-write
            "not json at all",
            '{"status": "ok"}',  # valid JSON, wrong shape
        ],
    )
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path, payload):
        from repro.experiments.runner import ResultCache

        matrix = self._single_cell_matrix()
        cell = matrix.cells()[0]
        path = tmp_path / f"{cell.fingerprint()}.json"
        path.write_text(payload)

        cache = ResultCache(str(tmp_path))
        assert cache.load(cell) is None
        bad = tmp_path / f"{cell.fingerprint()}.json.bad"
        assert bad.exists() and bad.read_text() == payload  # evidence kept
        assert not path.exists()

        # A sweep over the poisoned cache re-runs the cell and re-caches it.
        sweep = SweepRunner(max_workers=1, cache_dir=str(tmp_path)).run(matrix)
        assert sweep.failures == [] and sweep.cached_count == 0
        rerun = SweepRunner(max_workers=1, cache_dir=str(tmp_path)).run(matrix)
        assert rerun.cached_count == 1  # fresh entry landed at the original path

    def test_semantic_mismatch_is_a_miss_but_not_quarantined(self, tmp_path):
        # A different cell stored under this fingerprint name is not file
        # corruption: the entry stays on disk (same behaviour as before).
        from repro.experiments.runner import ResultCache, execute_cell

        cache = ResultCache(str(tmp_path))
        matrix = self._single_cell_matrix()
        cell = matrix.cells()[0]
        other = ScenarioMatrix.build(
            name="other", governors=("schedutil",), apps=("spotify",), duration_s=3.0
        ).cells()[0]
        result = execute_cell(other)
        result.cell = cell  # store the wrong content under this cell's name
        cache.store(result)
        cache_path = tmp_path / f"{cell.fingerprint()}.json"
        assert cache_path.exists()
        # Rewrite with the *other* cell's spec so payload comparison fails.
        data = json.loads(cache_path.read_text())
        data["cell"] = other.spec()
        cache_path.write_text(json.dumps(data))
        assert cache.load(cell) is None
        assert cache_path.exists()
        assert not (tmp_path / f"{cell.fingerprint()}.json.bad").exists()


class TestPretrainedCells:
    @staticmethod
    def _matrix():
        return ScenarioMatrix.build(
            name="pretrained",
            governors=("schedutil", "next"),
            apps=("facebook",),
            duration_s=4.0,
            training={
                "key": "pretrained",
                "mode": "pretrained",
                "episodes": 1,
                "episode_duration_s": 4.0,
            },
        )

    def test_sweep_trains_once_and_rerun_trains_zero_times(self, tmp_path):
        from repro.experiments.runner import SweepRunner

        matrix = self._matrix()
        artifact_dir = str(tmp_path / "artifacts")
        runner = SweepRunner(max_workers=1, artifact_dir=artifact_dir)
        sweep = runner.run(matrix)
        assert all(result.ok for result in sweep.results)
        assert runner.artifacts.trained_count == 1
        # The full matrix again, fresh runner: every artifact comes from the
        # store, zero training happens, summaries are identical.
        rerun_runner = SweepRunner(max_workers=1, artifact_dir=artifact_dir)
        rerun = rerun_runner.run(matrix)
        assert rerun_runner.artifacts.trained_count == 0
        assert rerun_runner.artifacts.reused_count == 1
        assert [r.summary for r in rerun.results] == [r.summary for r in sweep.results]

    def test_training_failure_fails_only_dependent_cells(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def crash(spec, agent_config=None, attempt=0):
            raise RuntimeError("training boom")

        monkeypatch.setattr(runner_module, "train_artifact", crash)
        sweep = runner_module.run_matrix(self._matrix(), max_workers=1)
        by_governor = {result.cell.governor: result for result in sweep.results}
        assert by_governor["schedutil"].ok
        assert not by_governor["next"].ok
        assert "training boom" in by_governor["next"].error

    def test_standalone_execute_cell_trains_inline(self):
        from repro.experiments.runner import execute_cell

        cell = next(c for c in self._matrix().cells() if c.pretrained)
        result = execute_cell(cell)
        assert result.ok
        assert result.metric("average_power_w") > 0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class TestAggregate:
    def test_metric_statistics(self):
        stats = metric_statistics([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)  # sample std (ddof=1)
        assert (stats.minimum, stats.maximum, stats.count) == (1.0, 3.0, 3)
        assert metric_statistics([5.0]).std == 0.0
        with pytest.raises(ValueError):
            metric_statistics([])

    def test_replicate_statistics_collapses_seeds(self, small_sweep):
        matrix, sweep = small_sweep
        stats = replicate_statistics(sweep.results, "average_power_w")
        # 2 governors x 2 workloads x 1 platform conditions, 2 seeds each
        assert len(stats) == 4
        assert all(entry.count == 2 for entry in stats.values())

    def test_paired_savings_pairs_by_row(self, small_sweep):
        _, sweep = small_sweep
        pairs = paired_savings(sweep.results, baseline="schedutil")
        assert len(pairs) == 4  # powersave cells only
        assert all(result.cell.governor == "powersave" for result, _ in pairs)
        assert all(saving > 0 for _, saving in pairs)

    def test_marginal_savings_by_axis(self, small_sweep):
        _, sweep = small_sweep
        by_governor = marginal_savings(sweep.results, axis="governor")
        assert set(by_governor) == {"powersave"}
        assert by_governor["powersave"].count == 4
        by_workload = marginal_savings(sweep.results, axis="workload")
        assert set(by_workload) == {"facebook", "spotify"}
        with pytest.raises(ValueError):
            marginal_savings(sweep.results, axis="colour")

    def test_tables_render(self, small_sweep):
        _, sweep = small_sweep
        table = condition_table(sweep)
        assert "schedutil" in table and "facebook" in table
        marginal = marginal_table(sweep, axis="governor")
        assert "powersave" in marginal

    def test_ambiguous_trainable_baseline_is_rejected(self):
        # A trainable baseline expanding across several training variants has
        # multiple cells per (workload, platform, seed) row; pairing against
        # an arbitrary one would report savings vs an unspecified policy.
        matrix = ScenarioMatrix.build(
            name="t", governors=("schedutil", "next"), apps=("facebook",),
            duration_s=4.0,
            training=(
                {"mode": "cold"},
                {"key": "pretrained", "mode": "pretrained", "episodes": 1,
                 "episode_duration_s": 4.0},
            ),
        )
        from repro.experiments.runner import CellResult

        results = [
            CellResult(cell=cell, status="ok", summary={"average_power_w": 1.0})
            for cell in matrix.cells()
        ]
        with pytest.raises(ValueError, match="ambiguous baseline"):
            paired_savings(results, baseline="next")
        # The stateless baseline still pairs fine.
        assert len(paired_savings(results, baseline="schedutil")) == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_list(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "cells" in out

    def test_spec_file_sweep_with_cache(self, tmp_path, capsys):
        spec = {
            "name": "cli-test",
            "governors": ["schedutil", "powersave"],
            "workloads": ["facebook"],
            "seeds": [0],
            "duration_s": 3.0,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        cache_dir = str(tmp_path / "cache")
        assert cli.main(["--spec", str(path), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2/2 cells ok" in out
        assert "Marginal average_power_w saving" in out
        # Second invocation: everything from cache.
        assert cli.main(["--spec", str(path), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 from cache" in out

    def test_pretrained_flag_and_artifact_listing(self, tmp_path, capsys):
        spec = {
            "name": "cli-pretrained",
            "governors": ["schedutil", "next"],
            "workloads": ["facebook"],
            "seeds": [0],
            "duration_s": 3.0,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        cache_dir = str(tmp_path / "cache")
        argv = [
            "--spec", str(path), "--cache-dir", cache_dir,
            "--pretrained", "--train-episodes", "1", "--train-duration", "3.0",
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "artifacts: 1 trained, 0 reused" in out
        # Re-run: cells come from the result cache, nothing retrains.
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "2 from cache" in out
        assert "artifacts: 0 trained, 0 reused" in out
        assert cli.main(["--list-artifacts", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "apps=facebook" in out

    def test_pretrained_flag_needs_trainable_governor(self, capsys):
        assert cli.main(["smoke", "--pretrained"]) == 2
        assert "trainable governor" in capsys.readouterr().err

    def test_multi_variant_trainable_baseline_rejected_before_sweep(
        self, tmp_path, capsys
    ):
        # An ambiguous baseline must fail before any cell runs, not after
        # the whole sweep has been computed.
        spec = {
            "name": "ambiguous",
            "governors": ["schedutil", "next"],
            "workloads": ["facebook"],
            "duration_s": 3.0,
            "training": [
                {"mode": "cold"},
                {"key": "pretrained", "mode": "pretrained", "episodes": 1,
                 "episode_duration_s": 3.0},
            ],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["--spec", str(path), "--baseline", "next"]) == 2
        err = capsys.readouterr().err
        assert "training variants" in err and "ambiguous" in err

    def test_train_flags_without_pretrained_are_an_error(self, capsys):
        # Silently ignoring a training budget would misreport the experiment.
        assert cli.main(["trained-next", "--train-episodes", "12"]) == 2
        err = capsys.readouterr().err
        assert "--train-episodes" in err and "--pretrained" in err

    def test_list_artifacts_needs_a_directory(self, capsys):
        assert cli.main(["--list-artifacts"]) == 2
        assert "--artifact-dir or --cache-dir" in capsys.readouterr().err

    def test_list_artifacts_does_not_create_the_directory(self, tmp_path, capsys):
        missing = tmp_path / "typo" / "artifacts"
        assert cli.main(["--list-artifacts", "--artifact-dir", str(missing)]) == 0
        assert "no artifacts" in capsys.readouterr().out
        assert not missing.exists()  # read-only query leaves no trace

    def test_requires_matrix_or_spec(self, capsys):
        assert cli.main([]) == 2
        assert "give a matrix name or --spec" in capsys.readouterr().err

    def test_matrix_name_and_spec_conflict(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(named_matrix("smoke").to_dict()))
        assert cli.main(["baselines", "--spec", str(path)]) == 2
        assert "give exactly one" in capsys.readouterr().err

    def test_bad_baseline_rejected_before_sweep_runs(self, capsys):
        assert cli.main(["baselines", "--baseline", "scheduti"]) == 2
        err = capsys.readouterr().err
        assert "baseline governor" in err and "schedutil" in err

    def test_bad_metric_rejected_before_sweep_runs(self, capsys):
        # Must fail fast: a typo'd metric on a 72-cell sweep would otherwise
        # only surface after minutes of compute.
        assert cli.main(["baselines", "--metric", "average_pwoer_w"]) == 2
        err = capsys.readouterr().err
        assert "unknown metric" in err and "average_power_w" in err

    def test_user_errors_exit_2_with_clean_message(self, capsys, tmp_path):
        assert cli.main(["not-a-matrix"]) == 2
        assert "unknown matrix" in capsys.readouterr().err
        assert cli.main(["--spec", "/does/not/exist.json"]) == 2
        assert "repro-sweep: error:" in capsys.readouterr().err
        # Malformed syntax and wrong-typed values both stay clean errors.
        bad_type = tmp_path / "bad_type.json"
        bad_type.write_text(
            '{"name":"x","governors":["schedutil"],"workloads":["facebook"],'
            '"duration_s":[3]}'
        )
        assert cli.main(["--spec", str(bad_type)]) == 2
        assert "repro-sweep: error:" in capsys.readouterr().err
