"""Distributed sweep sharding: planner, worker, merge and CLI semantics.

The load-bearing guarantee is *bit-identity*: planning a matrix into N
shards, running them independently (interrupted and resumed, on disjoint
cache directories) and merging the shard outputs must reconstruct exactly
the sweep a single machine would have produced -- pinned per cell through
``sample_stream_hash``, the canonical SHA-256 of the full recorded sample
stream.  On top of that the suite pins the planner's invariants (determinism,
training co-location, cost balancing), the merge engine's conflict handling
(clean overlaps merge, divergent same-fingerprint entries fail loudly) and
the ``repro-sweep shard`` CLI round trip.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import cli, distributed
from repro.experiments.distributed import (
    MANIFEST_FILENAME,
    CostModel,
    ShardManifest,
    ShardMergeError,
    amortised_cell_costs,
    cell_group_key,
    load_merged_result,
    merge_shard_stores,
    merge_shards,
    plan_shards,
    run_shard,
    shard_cache_dir,
    shard_directory,
    shard_status,
)
from repro.experiments.distributed import RemainingCost
from repro.experiments.matrix import ScenarioMatrix, named_matrix
from repro.experiments.runner import CellResult, SweepRunner
from repro.reliability.clock import wall_now
from repro.reliability.faults import (
    KIND_CRASH,
    KIND_TRANSIENT,
    SITE_ATOMIC_WRITE_STAGED,
    SITE_EXECUTE_BATCH,
    SITE_EXECUTE_CELL,
    FaultPlan,
    FaultRule,
    InjectedCrashError,
    injected_faults,
)
from repro.reliability.retry import RetryPolicy


def small_matrix() -> ScenarioMatrix:
    """2 governors x 2 workloads x 1 seed, ~3 s cells: fast and untrained."""
    return ScenarioMatrix.build(
        name="shard-small",
        governors=("schedutil", "powersave"),
        apps=("facebook", "spotify"),
        seeds=(0,),
        duration_s=3.0,
    )


TRAINED_APPS = ("facebook", "spotify")


def trained_matrix() -> ScenarioMatrix:
    """Cold + pretrained + federated ``next`` cells against schedutil.

    The acceptance shape of the distributed round trip: one trained-Next
    artifact and one federated fleet, each shared by several cells, so the
    planner must co-locate them and the merge must carry the artifacts back.
    """
    return ScenarioMatrix.build(
        name="shard-trained",
        governors=("schedutil", "next"),
        apps=TRAINED_APPS,
        seeds=(0,),
        duration_s=3.0,
        training=(
            {"key": "cold", "mode": "cold"},
            {
                "key": "pretrained",
                "mode": "pretrained",
                "apps": list(TRAINED_APPS),
                "episodes": 1,
                "episode_duration_s": 3.0,
                "seed": 0,
            },
            {
                "key": "federated",
                "mode": "federated",
                "apps": list(TRAINED_APPS),
                "episodes": 1,
                "episode_duration_s": 3.0,
                "seed": 0,
                "devices": 2,
                "rounds": 2,
            },
        ),
    )


def cell_hashes(sweep) -> dict:
    """Per-cell sample-stream hash of a sweep result (the parity currency)."""
    assert not sweep.failures, sweep.failures and sweep.failures[0].error
    return {
        result.cell.fingerprint(): result.summary["sample_stream_hash"]
        for result in sweep.results
    }


@pytest.fixture(scope="module")
def trained_reference():
    """The unsharded pool run every sharded variant must reproduce."""
    matrix = trained_matrix()
    sweep = SweepRunner(max_workers=2).run(matrix)
    return matrix, cell_hashes(sweep)


def run_all_shards(manifest, base_dir, max_workers=1):
    for index in range(manifest.shard_count):
        sweep = run_shard(
            manifest, index, shard_directory(base_dir, index), max_workers=max_workers
        )
        assert not sweep.failures, sweep.failures[0].error


def shard_dirs(manifest, base_dir):
    return [shard_directory(base_dir, i) for i in range(manifest.shard_count)]


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

class TestPlanner:
    def test_plan_is_deterministic_and_partitions_the_matrix(self):
        matrix = named_matrix("smoke")
        first = plan_shards(matrix, 3)
        second = plan_shards(matrix, 3)
        assert first.to_dict() == second.to_dict()
        assigned = [f for shard in first.assignments for f in shard]
        assert sorted(assigned) == sorted(
            {cell.fingerprint() for cell in matrix.cells()}
        )
        assert len(assigned) == len(set(assigned))

    def test_training_groups_are_never_split(self):
        matrix = trained_matrix()
        manifest = plan_shards(matrix, 3)
        cells = {cell.fingerprint(): cell for cell in matrix.cells()}
        shard_of = {}
        for index, shard in enumerate(manifest.assignments):
            for fingerprint in shard:
                key = cell_group_key(cells[fingerprint])
                if key.startswith(("train:", "fleet:")):
                    shard_of.setdefault(key, set()).add(index)
        assert shard_of, "expected trained groups in the matrix"
        for key, indices in shard_of.items():
            assert len(indices) == 1, f"group {key} split across shards {indices}"

    def test_cost_model_weighs_training(self):
        costs = amortised_cell_costs(trained_matrix().cells())
        by_key = {}
        for cell in trained_matrix().cells():
            by_key[(cell.governor, cell.training.key)] = costs[cell.fingerprint()]
        # A federated cell amortises devices x rounds of training; it must
        # dominate a pretrained cell, which must dominate a cold one.
        assert by_key[("next", "federated")] > by_key[("next", "pretrained")]
        assert by_key[("next", "pretrained")] > by_key[("next", "cold")]
        assert by_key[("next", "cold")] == pytest.approx(
            by_key[("schedutil", "cold")]
        )

    def test_balancing_spreads_cost_not_just_counts(self):
        manifest = plan_shards(small_matrix(), 2)
        first, second = (manifest.shard_cost_s(i) for i in range(2))
        assert first == pytest.approx(second, rel=0.5)

    def test_more_shards_than_groups_leaves_empty_shards_runnable(self, tmp_path):
        matrix = small_matrix()
        manifest = plan_shards(matrix, len(matrix.cells()) + 2)
        empties = [shard for shard in manifest.assignments if not shard]
        assert empties  # more shards than work
        index = manifest.assignments.index(empties[0])
        sweep = run_shard(manifest, index, shard_directory(str(tmp_path), index))
        assert len(sweep) == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            plan_shards(small_matrix(), 0)

    def test_default_cost_model_matches_committed_bench_report(self):
        # The defaults are documented as "the committed BENCH_hotloop.json
        # numbers"; regenerating the benchmark must not silently
        # desynchronise them from what the planner actually uses.
        path = os.path.join(
            os.path.dirname(__file__), "..", "BENCH_hotloop.json"
        )
        from_report = CostModel.from_bench_file(path)
        default = CostModel()
        assert default.cell_s_per_sim_s == pytest.approx(
            from_report.cell_s_per_sim_s
        )
        assert default.train_s_per_sim_s == pytest.approx(
            from_report.train_s_per_sim_s
        )

    def test_bench_report_derived_cost_model(self, tmp_path):
        report = {
            "after": {
                "sweep_cell_wall_s": 0.008,
                "cold_train_sim_s_per_wall_s": 250.0,
            }
        }
        path = tmp_path / "BENCH_hotloop.json"
        path.write_text(json.dumps(report))
        model = CostModel.from_bench_file(str(path))
        assert model.cell_s_per_sim_s == pytest.approx(0.002)
        assert model.train_s_per_sim_s == pytest.approx(0.004)

    def test_wrong_shaped_bench_report_is_rejected(self, tmp_path):
        # A silently defaulted cost model would record another machine's
        # numbers in the manifest as if they were calibrated.
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"after": {"sweep_cell_wall_ms": 8}}))
        with pytest.raises(ValueError, match="missing 'after' key"):
            CostModel.from_bench_file(str(path))
        # Structurally wrong documents get the same curated error, not a
        # raw AttributeError the CLI's handler would not catch.
        for payload in ({"after": None}, [1, 2, 3]):
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="missing 'after' key"):
                CostModel.from_bench_file(str(path))

    def test_fast_profile_bench_report_is_rejected(self, tmp_path):
        # The fast profile times a 3 sim-s cell, so dividing its
        # sweep_cell_wall_s by the full profile's 4 sim-s would underprice
        # every cell by a quarter.
        with open(
            os.path.join(os.path.dirname(__file__), "..", "BENCH_hotloop.json")
        ) as handle:
            report = json.load(handle)
        report["profile"] = "fast"
        path = tmp_path / "BENCH_hotloop.json"
        path.write_text(json.dumps(report))
        with pytest.raises(ValueError, match="profile 'fast'.*--only hotloop"):
            CostModel.from_bench_file(str(path))


# ---------------------------------------------------------------------------
# Manifest round trip
# ---------------------------------------------------------------------------

class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        manifest = plan_shards(small_matrix(), 2)
        path = str(tmp_path / MANIFEST_FILENAME)
        manifest.save(path)
        loaded = ShardManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.matrix_fingerprint == manifest.matrix_fingerprint

    def test_edited_matrix_is_rejected(self, tmp_path):
        manifest = plan_shards(small_matrix(), 2)
        data = manifest.to_dict()
        data["matrix"]["seeds"] = [7]
        path = tmp_path / MANIFEST_FILENAME
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="fingerprint"):
            ShardManifest.load(str(path))

    def test_double_assignment_is_rejected(self, tmp_path):
        manifest = plan_shards(small_matrix(), 2)
        data = manifest.to_dict()
        data["assignments"][0]["cells"].append(data["assignments"][1]["cells"][0])
        path = tmp_path / MANIFEST_FILENAME
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="several shards"):
            ShardManifest.load(str(path))

    def test_schema_version_gate(self, tmp_path):
        data = plan_shards(small_matrix(), 2).to_dict()
        data["manifest_schema_version"] = 99
        path = tmp_path / MANIFEST_FILENAME
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema version"):
            ShardManifest.load(str(path))


# ---------------------------------------------------------------------------
# Merge semantics: the bit-identity contract
# ---------------------------------------------------------------------------

class TestMergeParity:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_equals_unsharded_pool_run(
        self, tmp_path, shards, trained_reference
    ):
        matrix, reference = trained_reference
        manifest = plan_shards(matrix, shards)
        base = str(tmp_path)
        run_all_shards(manifest, base)
        merged, counters = merge_shards(
            manifest, shard_dirs(manifest, base), os.path.join(base, "merged")
        )
        assert cell_hashes(merged) == reference
        assert counters["results"] == len(matrix.cells())
        # Exactly one shard trained the agent artifact and one the fleet.
        assert counters["artifacts"] >= 1 and counters["fleets"] == 1
        assert counters["duplicates"] == 0
        # Results come back in the matrix's pre-registered order.
        assert [r.cell.fingerprint() for r in merged.results] == [
            c.fingerprint() for c in matrix.cells()
        ]

    def test_merged_summaries_equal_not_just_hashes(self, tmp_path):
        matrix = small_matrix()
        manifest = plan_shards(matrix, 2)
        base = str(tmp_path)
        run_all_shards(manifest, base)
        merged, _ = merge_shards(
            manifest, shard_dirs(manifest, base), os.path.join(base, "merged")
        )
        reference = SweepRunner(max_workers=1).run(matrix)
        for cell in matrix.cells():
            assert (
                merged.result_for(cell).summary == reference.result_for(cell).summary
            )

    def test_interrupted_shard_resumes_from_its_cache(self, tmp_path):
        matrix = small_matrix()
        manifest = plan_shards(matrix, 2)
        base = str(tmp_path)

        class Interrupt(Exception):
            pass

        def bomb(done, total, result):
            raise Interrupt  # simulate a kill after the first cell completed

        with pytest.raises(Interrupt):
            run_shard(manifest, 0, shard_directory(base, 0), progress=bomb)
        status = shard_status(manifest, 0, shard_directory(base, 0))
        assert status.state == "partial"
        assert 0 < status.completed < status.total
        assert 0 < status.remaining_s < manifest.shard_cost_s(0)

        resumed = run_shard(manifest, 0, shard_directory(base, 0))
        assert resumed.cached_count == status.completed  # restart re-ran nothing
        run_shard(manifest, 1, shard_directory(base, 1))
        merged, _ = merge_shards(
            manifest, shard_dirs(manifest, base), os.path.join(base, "merged")
        )
        assert cell_hashes(merged) == cell_hashes(SweepRunner().run(matrix))

    def test_remaining_cost_tracks_outstanding_and_cached_hits(self):
        """ETA accounting: outstanding cells and cached-hit deduction.

        The CLI's ETA divides ``remaining_s`` by the *effective* parallelism
        ``min(workers, outstanding)``: once fewer cells than workers remain,
        the tail runs at the lower width, and a plain ``remaining / workers``
        would claim a 4-worker pool finishes one long training cell 4x
        faster than physically possible.  Cached hits arrive with
        ``ok=True`` and must deduct like any completed cell.
        """
        cells = small_matrix().cells()
        costs = {cell.fingerprint(): 10.0 for cell in cells[:3]}
        costs[cells[3].fingerprint()] = 70.0
        tracker = RemainingCost(costs)
        assert tracker.outstanding == 4
        assert tracker.remaining_s == 100.0

        # A cached hit is a first delivery with ok=True: deducts and counts.
        assert tracker.deliver(
            CellResult(cell=cells[0], status="ok", summary={}, from_cache=True)
        )
        assert tracker.outstanding == 3
        assert tracker.remaining_s == 90.0

        # A failed cell is no longer runnable now, but its work is still
        # owed (errors are never cached, so a re-run retries it).
        assert tracker.deliver(CellResult(cell=cells[1], status="error"))
        assert tracker.outstanding == 2
        assert tracker.remaining_s == 90.0

        # Duplicate-fingerprint expansions deliver twice; priced once.
        assert not tracker.deliver(
            CellResult(cell=cells[0], status="ok", summary={})
        )
        assert tracker.outstanding == 2
        assert tracker.remaining_s == 90.0

        tracker.deliver(CellResult(cell=cells[2], status="ok", summary={}))
        # Only the 70 s cell is left: with 4 workers the effective
        # parallelism is 1, so the ETA is the full 70 s -- not 70 / 4.
        assert tracker.outstanding == 1
        workers = 4
        eta = tracker.remaining_s / max(1, min(workers, tracker.outstanding))
        assert eta == 80.0  # 70 s outstanding + 10 s owed by the failure

    def test_progress_printer_eta_clamps_to_outstanding(self, capsys):
        """The printed ETA uses effective parallelism, not the worker count."""
        cells = small_matrix().cells()
        costs = {cell.fingerprint(): 10.0 for cell in cells[:3]}
        costs[cells[3].fingerprint()] = 70.0
        progress = cli._progress_printer(
            False, cli._progress_tracker(costs, workers=4)
        )
        for done, cell in enumerate(cells[:2], start=1):
            progress(done, 4, CellResult(cell=cell, status="ok", summary={}))
        out = capsys.readouterr().out
        # 2 delivered: 80 s over 2 outstanding cells -> ~40 s, never ~20 s
        # (remaining / workers) and not yet the single-cell tail.
        assert "~40.0s left" in out.strip().splitlines()[-1]
        progress(3, 4, CellResult(cell=cells[2], status="ok", summary={}))
        # Only the 70 s cell is outstanding now: the ETA must be the full
        # 70 s, not 70 / 4.
        assert "~70.0s left" in capsys.readouterr().out.strip().splitlines()[-1]

    def test_keyboard_interrupt_flushes_status_and_resumes(self, tmp_path):
        """Ctrl-C mid-shard leaves an honest status file and a resumable cache.

        A ``KeyboardInterrupt`` raised after the first cell delivers must (a)
        propagate -- the worker exits nonzero rather than swallowing the
        signal -- (b) flush ``shard-status.json`` atomically with
        ``state == "interrupted"`` and the true progress counters, and (c)
        cost nothing on resume: re-running the same shard serves the
        completed cells from its cache.
        """
        matrix = small_matrix()
        manifest = plan_shards(matrix, 2)
        shard_dir = shard_directory(str(tmp_path), 0)

        def bomb(done, total, result):
            raise KeyboardInterrupt  # Ctrl-C lands after the first cell

        with pytest.raises(KeyboardInterrupt):
            run_shard(manifest, 0, shard_dir, progress=bomb)
        with open(
            os.path.join(shard_dir, "shard-status.json"), encoding="utf-8"
        ) as handle:
            status = json.load(handle)
        assert status["state"] == "interrupted"
        assert status["completed"] == 1
        assert status["failed"] == 0
        assert 0 < status["estimated_remaining_s"] < manifest.shard_cost_s(0)

        resumed = run_shard(manifest, 0, shard_dir)
        assert not resumed.failures
        assert resumed.cached_count == status["completed"]

    def test_cli_maps_keyboard_interrupt_to_exit_130(self, monkeypatch, capsys):
        """``main`` turns Ctrl-C into exit 130 plus a how-to-resume hint."""

        def interrupted(argv):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run", interrupted)
        assert cli.main(["run", "--matrix", "smoke"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "re-running the same command" in err

    def test_missing_shard_fails_unless_allowed(self, tmp_path):
        matrix = small_matrix()
        manifest = plan_shards(matrix, 2)
        base = str(tmp_path)
        run_shard(manifest, 0, shard_directory(base, 0))
        with pytest.raises(ShardMergeError, match="missing"):
            merge_shards(
                manifest, shard_dirs(manifest, base), os.path.join(base, "m1")
            )
        partial, _ = merge_shards(
            manifest,
            shard_dirs(manifest, base),
            os.path.join(base, "m2"),
            require_complete=False,
        )
        assert 0 < len(partial) < len(matrix.cells())


class TestMergeConflicts:
    def _two_run_shards(self, tmp_path):
        matrix = small_matrix()
        manifest = plan_shards(matrix, 2)
        base = str(tmp_path)
        run_all_shards(manifest, base)
        return manifest, base

    def test_byte_identical_overlap_merges_cleanly(self, tmp_path):
        manifest, base = self._two_run_shards(tmp_path)
        # Ship shard 0's whole cache into shard 1 as well: a full overlap.
        source = shard_cache_dir(shard_directory(base, 0))
        target = shard_cache_dir(shard_directory(base, 1))
        for name in sorted(os.listdir(source)):
            path = os.path.join(source, name)
            if os.path.isfile(path):
                with open(path, "rb") as handle:
                    payload = handle.read()
                with open(os.path.join(target, name), "wb") as handle:
                    handle.write(payload)
        merged, counters = merge_shards(
            manifest, shard_dirs(manifest, base), os.path.join(base, "merged")
        )
        assert counters["duplicates"] == len(manifest.assignments[0])
        assert cell_hashes(merged) == cell_hashes(
            SweepRunner().run(manifest.matrix)
        )

    def test_wall_clock_only_divergence_merges_cleanly(self, tmp_path):
        manifest, base = self._two_run_shards(tmp_path)
        source = shard_cache_dir(shard_directory(base, 0))
        target = shard_cache_dir(shard_directory(base, 1))
        name = sorted(
            n for n in os.listdir(source)
            if n.endswith(".json") and os.path.isfile(os.path.join(source, n))
        )[0]
        data = json.loads(open(os.path.join(source, name)).read())
        data["elapsed_s"] = data.get("elapsed_s", 0.0) + 123.0  # other machine
        with open(os.path.join(target, name), "w") as handle:
            json.dump(data, handle)
        _, counters = merge_shards(
            manifest, shard_dirs(manifest, base), os.path.join(base, "merged")
        )
        assert counters["duplicates"] == 1

    def test_divergent_entry_fails_with_a_clear_error(self, tmp_path):
        manifest, base = self._two_run_shards(tmp_path)
        source = shard_cache_dir(shard_directory(base, 0))
        target = shard_cache_dir(shard_directory(base, 1))
        name = sorted(
            n for n in os.listdir(source)
            if n.endswith(".json") and os.path.isfile(os.path.join(source, n))
        )[0]
        data = json.loads(open(os.path.join(source, name)).read())
        data["summary"]["average_power_w"] += 1.0  # actual content divergence
        with open(os.path.join(target, name), "w") as handle:
            json.dump(data, handle)
        with pytest.raises(ShardMergeError, match="diverges between"):
            merge_shards(
                manifest, shard_dirs(manifest, base), os.path.join(base, "merged")
            )

    def test_divergent_artifact_fails(self, tmp_path):
        matrix = trained_matrix()
        manifest = plan_shards(matrix, 2)
        base = str(tmp_path)
        run_all_shards(manifest, base)
        # Find the shard holding the agent artifact and plant a divergent
        # copy of it in the other shard's store.
        stores = [
            os.path.join(shard_cache_dir(shard_directory(base, i)), "artifacts")
            for i in range(2)
        ]
        agents = [
            sorted(
                n for n in (os.listdir(s) if os.path.isdir(s) else [])
                if n.endswith(".agent.json")
            )
            for s in stores
        ]
        holder = 0 if agents[0] else 1
        other = 1 - holder
        name = agents[holder][0]
        data = json.loads(open(os.path.join(stores[holder], name)).read())
        data["agent_state"]["seed"] = 999  # diverging trained state
        os.makedirs(stores[other], exist_ok=True)
        with open(os.path.join(stores[other], name), "w") as handle:
            json.dump(data, handle)
        with pytest.raises(ShardMergeError, match="artifact"):
            merge_shard_stores(
                [shard_cache_dir(shard_directory(base, i)) for i in range(2)],
                os.path.join(base, "merged"),
            )

    def test_merge_is_idempotent(self, tmp_path):
        manifest, base = self._two_run_shards(tmp_path)
        dest = os.path.join(base, "merged")
        first, counters1 = merge_shards(manifest, shard_dirs(manifest, base), dest)
        second, counters2 = merge_shards(manifest, shard_dirs(manifest, base), dest)
        assert counters1["results"] == len(manifest.matrix.cells())
        assert counters2["results"] == 0
        assert counters2["duplicates"] == len(manifest.matrix.cells())
        assert cell_hashes(first) == cell_hashes(second)

    def test_torn_source_entry_is_quarantined_not_fatal(self, tmp_path):
        # A truncated shard entry (worker killed mid-copy) must not abort
        # the merge: it is quarantined as .bad and surfaces as a *missing*
        # cell, which re-running that shard repairs.
        manifest, base = self._two_run_shards(tmp_path)
        victim_fp = manifest.assignments[0][0]
        victim = os.path.join(
            shard_cache_dir(shard_directory(base, 0)), f"{victim_fp}.json"
        )
        with open(victim, "w") as handle:
            handle.write('{"cell": {"gov')
        dest = os.path.join(base, "merged")
        counters = merge_shard_stores(
            [shard_cache_dir(shard_directory(base, i)) for i in range(2)], dest
        )
        assert counters["quarantined"] == 1
        assert os.path.exists(f"{victim}.bad") and not os.path.exists(victim)
        with pytest.raises(ShardMergeError, match="missing"):
            load_merged_result(manifest, dest)
        # Resume the damaged shard: only the quarantined cell recomputes,
        # and the repeated merge completes with full parity.
        rerun = run_shard(manifest, 0, shard_directory(base, 0))
        assert [r.cell.fingerprint() for r in rerun.results if not r.from_cache] == [
            victim_fp
        ]
        merged, _ = merge_shards(manifest, shard_dirs(manifest, base), dest)
        assert cell_hashes(merged) == cell_hashes(SweepRunner().run(manifest.matrix))

    def test_interrupted_merge_resumes_and_repairs_torn_destination(
        self, tmp_path
    ):
        # Model a merge interrupted partway: only shard 0 landed, and one
        # already-merged entry was torn (non-atomic destination filesystem).
        # Re-running the full merge must quarantine the torn copy, recopy
        # the parseable source and reconstruct the complete sweep.
        manifest, base = self._two_run_shards(tmp_path)
        dest = os.path.join(base, "merged")
        caches = [shard_cache_dir(shard_directory(base, i)) for i in range(2)]
        merge_shard_stores(caches[:1], dest)  # partial: interrupted after shard 0
        torn = os.path.join(dest, f"{manifest.assignments[0][0]}.json")
        with open(torn, "w") as handle:
            handle.write('{"cell": {"gov')
        merged, counters = merge_shards(manifest, shard_dirs(manifest, base), dest)
        # The torn *destination* is quarantined as evidence and replaced by
        # the parseable source, so it tallies as a copy, not a loss.
        assert os.path.exists(f"{torn}.bad") and os.path.exists(torn)
        assert counters["quarantined"] == 0
        assert counters["results"] == 1 + len(manifest.assignments[1])
        assert counters["duplicates"] == len(manifest.assignments[0]) - 1
        assert cell_hashes(merged) == cell_hashes(SweepRunner().run(manifest.matrix))


# ---------------------------------------------------------------------------
# Status
# ---------------------------------------------------------------------------

class TestShardStatus:
    def test_status_lifecycle(self, tmp_path):
        manifest = plan_shards(small_matrix(), 2)
        base = str(tmp_path)
        before = shard_status(manifest, 0, shard_directory(base, 0))
        assert before.state == "pending"
        assert before.completed == 0
        assert before.remaining_s == pytest.approx(manifest.shard_cost_s(0))
        run_shard(manifest, 0, shard_directory(base, 0))
        after = shard_status(manifest, 0, shard_directory(base, 0))
        assert after.state == "complete"
        assert after.completed == after.total
        assert after.remaining_s == 0.0

    def test_failed_cells_leave_the_shard_marked_failed_with_work_left(
        self, tmp_path, monkeypatch
    ):
        # Error results are never cached, so a shard with failures must not
        # report itself complete with nothing left to do.
        import repro.experiments.runner as runner_module

        matrix = small_matrix()
        manifest = plan_shards(matrix, 1)
        real = runner_module.make_governor

        # Injected where scalar and batch-kernel cell paths meet, so the
        # crash fires whichever route executes the cells.
        def crash_on_powersave(name, **kwargs):
            if name == "powersave":
                raise RuntimeError("boom")
            return real(name, **kwargs)

        monkeypatch.setattr(runner_module, "make_governor", crash_on_powersave)
        shard_dir = shard_directory(str(tmp_path), 0)
        sweep = run_shard(manifest, 0, shard_dir)
        assert len(sweep.failures) == 2
        data = json.loads(open(os.path.join(shard_dir, "shard-status.json")).read())
        assert data["state"] == "failed"
        assert data["failed"] == 2
        assert data["estimated_remaining_s"] > 0.0  # failed cells still owed
        status = shard_status(manifest, 0, shard_dir)
        assert status.state == "failed"
        assert status.completed == 2 and status.failed == 2
        assert status.remaining_s > 0.0
        # Once "fixed", re-running the shard retries exactly the failures
        # and the shard flips to complete.
        monkeypatch.undo()
        rerun = run_shard(manifest, 0, shard_dir)
        assert not rerun.failures and rerun.cached_count == 2
        assert shard_status(manifest, 0, shard_dir).state == "complete"

    def test_duplicate_fingerprint_cells_count_once_in_the_status_file(
        self, tmp_path
    ):
        # Two cold variants differing only in display key expand to cells
        # sharing one fingerprint; the status file accounts distinct cells.
        matrix = ScenarioMatrix.build(
            name="dupes",
            governors=("schedutil", "next"),
            apps=("facebook",),
            seeds=(0,),
            duration_s=3.0,
            training=({"key": "a", "mode": "cold"}, {"key": "b", "mode": "cold"}),
        )
        assert len(matrix.cells()) == 3  # next delivers twice, schedutil once
        manifest = plan_shards(matrix, 1)
        assert len(manifest.assignments[0]) == 2  # distinct fingerprints
        shard_dir = shard_directory(str(tmp_path), 0)
        sweep = run_shard(manifest, 0, shard_dir)
        assert len(sweep) == 3 and not sweep.failures
        data = json.loads(open(os.path.join(shard_dir, "shard-status.json")).read())
        assert data["completed"] == data["total"] == 2
        assert shard_status(manifest, 0, shard_dir).state == "complete"

    def test_stale_format_entries_keep_status_and_merge_in_agreement(
        self, tmp_path
    ):
        # Entries a merge would reject (pre-upgrade summaries without
        # sample_stream_hash) must not let status call the shard complete.
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        run_shard(manifest, 0, shard_dir)
        cache_dir = shard_cache_dir(shard_dir)
        victim = os.path.join(cache_dir, f"{manifest.assignments[0][0]}.json")
        data = json.loads(open(victim).read())
        del data["summary"]["sample_stream_hash"]
        with open(victim, "w") as handle:
            json.dump(data, handle)
        status = shard_status(manifest, 0, shard_dir)
        assert status.state == "partial"
        assert status.completed == status.total - 1

    def test_status_of_an_unstarted_shard_creates_nothing(self, tmp_path):
        manifest = plan_shards(small_matrix(), 2)
        shard_dir = shard_directory(str(tmp_path), 0)
        status = shard_status(manifest, 0, shard_dir)
        assert status.state == "pending" and status.completed == 0
        assert not os.path.exists(shard_dir)  # read-only query leaves no trace

    def test_torn_cache_entry_does_not_count_as_done(self, tmp_path):
        # A truncated entry (scp mid-write) must not let status report a
        # cell done that the merge would then quarantine as missing.
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        run_shard(manifest, 0, shard_dir)
        victim = os.path.join(
            shard_cache_dir(shard_dir), f"{manifest.assignments[0][0]}.json"
        )
        with open(victim, "w") as handle:
            handle.write('{"cell": {"gov')
        status = shard_status(manifest, 0, shard_dir)
        assert status.completed == status.total - 1
        assert status.state == "partial"
        assert status.remaining_s > 0.0
        # Status is strictly read-only: the torn file might still be
        # mid-copy, so it is not quarantined (the runner/merge will).
        assert os.path.exists(victim)
        assert not os.path.exists(f"{victim}.bad")

    def test_status_file_written_atomically_and_versioned(self, tmp_path):
        manifest = plan_shards(small_matrix(), 2)
        shard_dir = shard_directory(str(tmp_path), 1)
        run_shard(manifest, 1, shard_dir)
        data = json.loads(open(os.path.join(shard_dir, "shard-status.json")).read())
        assert data["state"] == "complete"
        assert data["matrix_fingerprint"] == manifest.matrix_fingerprint
        assert data["completed"] == data["total"] == len(manifest.assignments[1])


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------

class TestShardLiveness:
    def _running_status(self, manifest, shard_dir, **overrides):
        """Hand-write a worker status file claiming the shard is running."""
        payload = {
            "status_schema_version": 1,
            "matrix_fingerprint": manifest.matrix_fingerprint,
            "shard": 0,
            "state": "running",
            "total": len(manifest.assignments[0]),
            "completed": 0,
            "cached": 0,
            "failed": 0,
            "attempts": 0,
            "heartbeat_unix_s": wall_now(),
            "estimated_remaining_s": manifest.shard_cost_s(0),
            "estimated_total_s": manifest.shard_cost_s(0),
        }
        payload.update(overrides)
        payload = {k: v for k, v in payload.items() if v is not None}
        os.makedirs(shard_dir, exist_ok=True)
        with open(os.path.join(shard_dir, "shard-status.json"), "w") as handle:
            json.dump(payload, handle)

    def test_watchdog_prices_jobs_from_the_manifest_cost_model(
        self, tmp_path, monkeypatch
    ):
        # A plan made with a bench report must budget its shard's jobs from
        # that report, not from the committed default numbers.
        default = CostModel()
        slow = CostModel(
            cell_s_per_sim_s=10 * default.cell_s_per_sim_s,
            train_s_per_sim_s=10 * default.train_s_per_sim_s,
        )
        manifest = plan_shards(named_matrix("smoke"), 1, cost_model=slow)
        watchdogs = []

        class RecordingRunner(SweepRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                watchdogs.append(self.watchdog)

        monkeypatch.setattr(distributed, "SweepRunner", RecordingRunner)
        run_shard(manifest, 0, shard_directory(str(tmp_path), 0))
        assert [watchdog.cost_model for watchdog in watchdogs] == [slow]
        assert watchdogs[0].cell_timeout_s is None

    def test_status_file_carries_heartbeat_and_attempt_count(self, tmp_path):
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        run_shard(manifest, 0, shard_dir)
        data = json.loads(open(os.path.join(shard_dir, "shard-status.json")).read())
        assert isinstance(data["heartbeat_unix_s"], float)
        assert data["attempts"] == 0  # fault-free run: no retries spent
        status = shard_status(manifest, 0, shard_dir, stale_after_s=3600.0)
        assert status.heartbeat_age_s is not None
        assert 0.0 <= status.heartbeat_age_s < 3600.0
        assert status.attempts == 0 and not status.stale

    def test_retries_surface_in_the_status_attempt_counter(self, tmp_path):
        # Every cell's first attempt fails transiently (the batch rule
        # forces the scalar path so the per-cell rule reaches each cell);
        # the shard still completes and the retries it spent are visible to
        # the planning host through the status file.
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        plan = FaultPlan(
            seed=21,
            rules=(
                FaultRule(
                    site=SITE_EXECUTE_BATCH, kind=KIND_TRANSIENT, max_attempt=99
                ),
                FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_TRANSIENT),
            ),
        )
        with injected_faults(plan):
            sweep = run_shard(
                manifest,
                0,
                shard_dir,
                retry_policy=RetryPolicy(max_retries=2),
            )
        assert not sweep.failures
        status = shard_status(manifest, 0, shard_dir)
        assert status.state == "complete"
        assert status.attempts >= len(manifest.assignments[0])

    def test_stale_running_shard_is_flagged(self, tmp_path):
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        self._running_status(
            manifest, shard_dir, heartbeat_unix_s=wall_now() - 500.0, attempts=3
        )
        status = shard_status(manifest, 0, shard_dir, stale_after_s=60.0)
        assert status.stale
        assert status.heartbeat_age_s == pytest.approx(500.0, abs=30.0)
        assert status.attempts == 3
        # A wide-enough window, or no window at all, keeps it live.
        assert not shard_status(manifest, 0, shard_dir, stale_after_s=3600.0).stale
        assert not shard_status(manifest, 0, shard_dir).stale

    def test_running_status_without_heartbeat_counts_as_stale(self, tmp_path):
        # Pre-liveness status files have no heartbeat: once a window is
        # given, "running" with nothing to prove it counts as dead.
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        self._running_status(manifest, shard_dir, heartbeat_unix_s=None)
        status = shard_status(manifest, 0, shard_dir, stale_after_s=60.0)
        assert status.stale and status.heartbeat_age_s is None
        assert not shard_status(manifest, 0, shard_dir).stale

    def test_complete_cache_is_never_stale(self, tmp_path):
        # The cache outranks the heartbeat: a finished shard is done no
        # matter how old its status file claims to be.
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        run_shard(manifest, 0, shard_dir)
        self._running_status(
            manifest, shard_dir, heartbeat_unix_s=wall_now() - 9999.0
        )
        status = shard_status(manifest, 0, shard_dir, stale_after_s=60.0)
        assert status.state == "complete"
        assert not status.stale

    def test_crash_during_status_write_is_recoverable(self, tmp_path):
        # A worker dying mid-status-write (satellite of the torn-write
        # seam): the atomic write crashes after staging, leaving only
        # ``.tmp`` debris -- no half-written status file -- and a restarted
        # worker resumes from its cache and publishes a clean status.
        manifest = plan_shards(small_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        plan = FaultPlan(
            seed=22,
            rules=(
                FaultRule(
                    site=SITE_ATOMIC_WRITE_STAGED,
                    kind=KIND_CRASH,
                    match="shard-status.json",
                    max_fires=1,
                ),
            ),
        )
        with injected_faults(plan):
            with pytest.raises(InjectedCrashError):
                run_shard(manifest, 0, shard_dir)
            status_path = os.path.join(shard_dir, "shard-status.json")
            assert not os.path.exists(status_path)
            assert any(".tmp." in name for name in os.listdir(shard_dir))
            # Restart under the same (spent) plan: resumes and completes.
            sweep = run_shard(manifest, 0, shard_dir)
        assert not sweep.failures
        data = json.loads(open(status_path).read())
        assert data["state"] == "complete"
        assert shard_status(manifest, 0, shard_dir).state == "complete"
        assert cell_hashes(sweep) == cell_hashes(
            SweepRunner().run(manifest.matrix)
        )


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------

class TestShardCli:
    def _spec_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(small_matrix().to_dict()))
        return str(path)

    def test_plan_run_status_merge_round_trip(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        plan_dir = str(tmp_path / "plan")
        os.makedirs(plan_dir)
        manifest_path = os.path.join(plan_dir, MANIFEST_FILENAME)

        assert cli.main(
            ["shard", "plan", "--spec", spec, "--shards", "2", "--plan-dir", plan_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "Planned 2 shard(s)" in out and "shard-manifest.json" in out
        assert os.path.exists(manifest_path)

        for index in ("0", "1"):
            assert cli.main(
                ["shard", "run", "--manifest", manifest_path, "--shard-index", index]
            ) == 0
            out = capsys.readouterr().out
            assert "0 failed" in out and "left)" in out

        assert cli.main(["shard", "status", "--manifest", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "~0.0s left" in out

        merged_dir = str(tmp_path / "merged")
        assert cli.main(
            [
                "shard", "merge", "--manifest", manifest_path,
                "--cache-dir", merged_dir,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "4/4 cells ok" in out
        assert "identical duplicates skipped" in out
        # The merged cache must serve a plain single-machine re-run fully.
        merged = load_merged_result(ShardManifest.load(manifest_path), merged_dir)
        assert len(merged) == 4

    def test_merge_of_missing_shard_reports_error(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        plan_dir = str(tmp_path)
        manifest_path = os.path.join(plan_dir, MANIFEST_FILENAME)
        assert cli.main(
            ["shard", "plan", "--spec", spec, "--shards", "2", "--plan-dir", plan_dir]
        ) == 0
        assert cli.main(
            ["shard", "run", "--manifest", manifest_path, "--shard-index", "0"]
        ) == 0
        capsys.readouterr()
        assert cli.main(
            [
                "shard", "merge", "--manifest", manifest_path,
                "--cache-dir", str(tmp_path / "merged"),
            ]
        ) == 2
        assert "missing" in capsys.readouterr().err
        # --allow-missing requests exactly this preview: partial is success.
        assert cli.main(
            [
                "shard", "merge", "--manifest", manifest_path,
                "--cache-dir", str(tmp_path / "merged2"), "--allow-missing",
            ]
        ) == 0
        assert "partial merge" in capsys.readouterr().out

    def test_merge_accepts_a_subset_of_custom_shard_dirs(self, tmp_path, capsys):
        # A partial merge must work when only some shard directories have
        # been copied back to non-default locations.
        spec = self._spec_file(tmp_path)
        plan_dir = str(tmp_path)
        manifest_path = os.path.join(plan_dir, MANIFEST_FILENAME)
        assert cli.main(
            ["shard", "plan", "--spec", spec, "--shards", "2", "--plan-dir", plan_dir]
        ) == 0
        custom = str(tmp_path / "landed" / "first-shard")
        manifest = ShardManifest.load(manifest_path)
        sweep = run_shard(manifest, 0, custom)
        assert not sweep.failures
        capsys.readouterr()
        assert cli.main(
            [
                "shard", "merge", "--manifest", manifest_path,
                "--shard-dir", custom, "--allow-missing",
                "--cache-dir", str(tmp_path / "merged"),
            ]
        ) == 0  # the requested preview of the landed shard is a success
        out = capsys.readouterr().out
        assert "partial merge" in out

    def test_stale_cache_entry_without_stream_hash_recomputes(self, tmp_path):
        # A cache entry written before summaries carried sample_stream_hash
        # must be treated as a miss (same fingerprint, stale format), so
        # every served entry carries the merge-parity field.
        matrix = small_matrix()
        cell = matrix.cells()[0]
        runner = SweepRunner(max_workers=1, cache_dir=str(tmp_path))
        sweep = runner.run(matrix, cells=[cell])
        path = tmp_path / f"{cell.fingerprint()}.json"
        data = json.loads(path.read_text())
        del data["summary"]["sample_stream_hash"]  # simulate pre-upgrade entry
        path.write_text(json.dumps(data))
        rerun = SweepRunner(max_workers=1, cache_dir=str(tmp_path)).run(
            matrix, cells=[cell]
        )
        assert rerun.cached_count == 0  # recomputed, not served stale
        assert (
            rerun.results[0].summary["sample_stream_hash"]
            == sweep.results[0].summary["sample_stream_hash"]
        )
        again = SweepRunner(max_workers=1, cache_dir=str(tmp_path)).run(
            matrix, cells=[cell]
        )
        assert again.cached_count == 1  # rewritten entry serves with the hash

    def test_plan_requires_a_matrix(self, capsys):
        assert cli.main(["shard", "plan", "--shards", "2"]) == 2
        assert "matrix name or --spec" in capsys.readouterr().err

    def test_merge_rejects_ambiguous_baseline_before_touching_shards(
        self, tmp_path, capsys
    ):
        # Same preflight as the plain run path: a baseline spanning several
        # training variants must fail with the curated message up front.
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
        plan_dir = str(tmp_path)
        manifest_path = os.path.join(plan_dir, MANIFEST_FILENAME)
        assert cli.main(
            ["shard", "plan", "--spec", str(path), "--shards", "2",
             "--plan-dir", plan_dir]
        ) == 0
        capsys.readouterr()
        assert cli.main(
            ["shard", "merge", "--manifest", manifest_path, "--baseline", "next",
             "--cache-dir", str(tmp_path / "merged")]
        ) == 2
        err = capsys.readouterr().err
        assert "training variants" in err and "ambiguous" in err
        assert not os.path.exists(str(tmp_path / "merged"))

    def test_plain_run_prints_cost_model_eta(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        assert cli.main(["--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "estimated ~" in out  # upfront total from the cost model
        assert "left)" in out  # per-cell remaining-time readout
