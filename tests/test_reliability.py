"""Unit contract of :mod:`repro.reliability`: faults, retry, watchdog, clock.

The subsystem's promises are all determinism promises: a seeded
:class:`FaultPlan` fires the same faults on every run and machine; retry
backoff is a pure function of ``(seed, key, attempt)``; the watchdog's
budgets are pure functions of the cost model; and the instrumented
``atomic_write_json`` seams leave exactly the debris a real crash would.
The end-to-end recovery behaviour (pool rebuilds, parity under chaos)
lives in ``test_chaos_parity.py``; this module pins the primitives, plus
three end-to-end rules: a retried training job ends the same on every route,
an abandoned pool leaves no worker behind, and abandoning it bumps the
attempt of every job that was on a worker and of no job still queued.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.core.artifact import TrainingSpec
from repro.core.federated import FleetSpec
from repro.core.persistence import atomic_write_json, quarantine_entry
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.costs import DEFAULT_COST_MODEL
from repro.experiments.federated import FleetStore
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import SweepRunner, _PoolExecutor
from repro.obs.metrics import metrics, reset_metrics
from repro.reliability.faults import (
    CRASH_EXIT_CODE,
    FAULT_PLAN_ENV,
    KIND_CRASH,
    KIND_HANG,
    KIND_TORN_WRITE,
    KIND_TRANSIENT,
    SITE_ATOMIC_WRITE,
    SITE_ATOMIC_WRITE_STAGED,
    SITE_EXECUTE_BATCH,
    SITE_EXECUTE_CELL,
    SITE_TRAIN_ARTIFACT,
    FaultPlan,
    FaultRule,
    InjectedCrashError,
    InjectedTransientError,
    fault_point,
    fire_counts,
    injected_faults,
)
from repro.reliability.retry import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    RetryState,
    classify_exception,
)
from repro.reliability.watchdog import WatchdogPolicy

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# FaultPlan: scheduling, determinism, serialisation
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_no_active_plan_is_a_noop(self):
        assert fault_point(SITE_EXECUTE_CELL, "any-key") is None

    def test_transient_rule_raises_on_first_attempt_only(self):
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_TRANSIENT),)
        )
        with injected_faults(plan):
            with pytest.raises(InjectedTransientError):
                fault_point(SITE_EXECUTE_CELL, "cell-a", attempt=0)
            # max_attempt=1 (default): the retried attempt escapes.
            assert fault_point(SITE_EXECUTE_CELL, "cell-a", attempt=1) is None

    def test_crash_raises_in_unmarked_process(self):
        # This test process never called mark_worker_process(), so a crash
        # rule must raise instead of killing the test runner.
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_CRASH),)
        )
        with injected_faults(plan):
            with pytest.raises(InjectedCrashError):
                fault_point(SITE_EXECUTE_CELL, "cell-a")

    def test_crash_hard_exits_a_marked_worker_process(self):
        # The structural distinction the pool initializer installs: in a
        # marked process the same rule is a real death, observable only
        # from outside -- exactly how a pool parent sees it.
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_CRASH),)
        )
        code = (
            "from repro.reliability.faults import ("
            "SITE_EXECUTE_CELL, fault_point, mark_worker_process)\n"
            "mark_worker_process()\n"
            "fault_point(SITE_EXECUTE_CELL, 'cell-a')\n"
        )
        # The checkout's src comes first, so the child imports the package
        # without an install.
        pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": pythonpath, FAULT_PLAN_ENV: plan.to_json()},
        )
        assert proc.returncode == CRASH_EXIT_CODE

    def test_match_pattern_selects_keys(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ATOMIC_WRITE,
                    kind=KIND_TORN_WRITE,
                    match="shard-status.json",
                ),
            )
        )
        with injected_faults(plan):
            rule = fault_point(SITE_ATOMIC_WRITE, "shard-status.json")
            assert rule is not None and rule.kind == KIND_TORN_WRITE
            assert fault_point(SITE_ATOMIC_WRITE, "other.json") is None

    def test_max_fires_budget_is_per_process_and_counted(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ATOMIC_WRITE, kind=KIND_TORN_WRITE, max_fires=1
                ),
            )
        )
        with injected_faults(plan):
            assert fault_point(SITE_ATOMIC_WRITE, "f.json") is not None
            assert fault_point(SITE_ATOMIC_WRITE, "f.json") is None
            assert fire_counts() == {(SITE_ATOMIC_WRITE, "f.json"): 1}

    def test_rate_thinning_is_deterministic(self):
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    site=SITE_EXECUTE_CELL, kind=KIND_HANG, rate=0.5, hang_s=0.0
                ),
            ),
        )
        keys = [f"cell-{i}" for i in range(32)]

        def fired():
            with injected_faults(plan):
                return [
                    fault_point(SITE_EXECUTE_CELL, key) is not None
                    for key in keys
                ]

        first = fired()
        assert first == fired()  # same plan, same faults -- always
        assert any(first) and not all(first)  # the rate actually thins

    def test_different_seeds_fire_on_different_cells(self):
        def pattern(seed):
            plan = FaultPlan(
                seed=seed,
                rules=(
                    FaultRule(
                        site=SITE_EXECUTE_CELL,
                        kind=KIND_HANG,
                        rate=0.5,
                        hang_s=0.0,
                    ),
                ),
            )
            with injected_faults(plan):
                return [
                    fault_point(SITE_EXECUTE_CELL, f"cell-{i}") is not None
                    for i in range(32)
                ]

        assert pattern(0) != pattern(1)

    def test_json_and_env_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=9,
            rules=(
                FaultRule(
                    site=SITE_EXECUTE_CELL,
                    kind=KIND_TRANSIENT,
                    match="cell-*",
                    rate=0.25,
                    max_attempt=3,
                    max_fires=2,
                    hang_s=0.5,
                ),
            ),
        )
        assert FaultPlan.parse(plan.to_json()) == plan
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        assert FaultPlan.parse(str(plan_file)) == plan

    def test_unknown_site_and_kind_are_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="nope.site", kind=KIND_CRASH)
        with pytest.raises(ValueError):
            FaultRule(site=SITE_EXECUTE_CELL, kind="meteor")


# ---------------------------------------------------------------------------
# Retry: classification, backoff, deterministic-failure detection
# ---------------------------------------------------------------------------

class TestRetry:
    def test_classification(self):
        assert classify_exception(InjectedTransientError("x")) == TRANSIENT
        assert classify_exception(InjectedCrashError("x")) == TRANSIENT
        assert classify_exception(OSError("disk")) == TRANSIENT
        assert classify_exception(TimeoutError()) == TRANSIENT
        assert classify_exception(ValueError("bug")) == PERMANENT
        assert classify_exception(KeyError("bug")) == PERMANENT

    def test_backoff_is_deterministic_capped_and_grows(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=1.0, seed=4)
        first = [policy.backoff_s("cell-a", n) for n in range(1, 8)]
        again = [policy.backoff_s("cell-a", n) for n in range(1, 8)]
        assert first == again
        assert policy.backoff_s("cell-a", 0) == 0.0
        assert all(delay <= 1.0 for delay in first)
        assert first[-1] == 1.0  # exponential growth reaches the cap
        # Jitter separates keys so co-located runners do not retry in step.
        assert policy.backoff_s("cell-a", 1) != policy.backoff_s("cell-b", 1)

    def test_should_retry_budget_and_kind(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(TRANSIENT, 0)
        assert policy.should_retry(TRANSIENT, 1)
        assert not policy.should_retry(TRANSIENT, 2)
        assert not policy.should_retry(PERMANENT, 0)
        assert not policy.should_retry(None, 0)

    def test_repeated_traceback_marks_deterministic(self):
        state = RetryState()
        assert not state.record_failure(TRANSIENT, "OSError", "trace-A")
        assert not state.record_failure(TRANSIENT, "OSError", "trace-B")
        assert state.record_failure(TRANSIENT, "OSError", "trace-B")
        assert state.attempt == 3
        lineage = state.lineage_dicts()
        assert [record["attempt"] for record in lineage] == [0, 1, 2]
        assert all(record["error_kind"] == TRANSIENT for record in lineage)

    def test_unknown_error_text_never_repeats(self):
        # A pool-restart bump has no traceback; it must not trip the
        # deterministic-failure detector.
        state = RetryState()
        assert not state.record_failure(TRANSIENT, "restart", None)
        assert not state.record_failure(TRANSIENT, "restart", None)


# ---------------------------------------------------------------------------
# Watchdog budgets
# ---------------------------------------------------------------------------

class _FlatCostModel:
    def cell_cost_s(self, cell):
        return 10.0

    def spec_training_cost_s(self, spec):
        return 100.0


class TestWatchdogPolicy:
    def test_no_cost_model_means_no_limit(self):
        policy = WatchdogPolicy()
        assert policy.cell_budget_s("cell") is None
        assert policy.batch_budget_s(["a", "b"]) is None
        assert policy.spec_budget_s("spec") is None

    def test_budgets_scale_the_cost_model_with_a_floor(self):
        policy = WatchdogPolicy(
            cost_model=_FlatCostModel(), multiplier=20.0, floor_s=60.0
        )
        assert policy.cell_budget_s("cell") == 200.0
        assert policy.spec_budget_s("spec") == 2000.0
        assert policy.batch_budget_s(["a", "b", "c"]) == 600.0
        tight = WatchdogPolicy(
            cost_model=_FlatCostModel(), multiplier=1.0, floor_s=60.0
        )
        assert tight.cell_budget_s("cell") == 60.0  # the floor wins

    def test_flat_override_replaces_every_budget(self):
        policy = WatchdogPolicy(
            cost_model=_FlatCostModel(), cell_timeout_s=5.0
        )
        assert policy.cell_budget_s("cell") == 5.0
        assert policy.spec_budget_s("spec") == 5.0
        assert policy.batch_budget_s(["a", "b"]) == 10.0

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            WatchdogPolicy(multiplier=0.0)
        with pytest.raises(ValueError):
            WatchdogPolicy(cell_timeout_s=0.0)


# ---------------------------------------------------------------------------
# atomic_write_json fault seams + quarantine
# ---------------------------------------------------------------------------

class TestWriteSeams:
    def test_fault_free_write_is_atomic_and_clean(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"k": 1})
        assert json.load(open(path)) == {"k": 1}
        assert sorted(os.listdir(tmp_path)) == ["doc.json"]  # no staging debris

    def test_torn_write_publishes_truncated_document(self, tmp_path):
        path = str(tmp_path / "doc.json")
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ATOMIC_WRITE,
                    kind=KIND_TORN_WRITE,
                    match="doc.json",
                    max_fires=1,
                ),
            )
        )
        with injected_faults(plan):
            atomic_write_json(path, {"key": "value", "n": 12345})
            with pytest.raises(ValueError):
                json.load(open(path))
            # The budget is spent: the rewrite repairs the document.
            atomic_write_json(path, {"key": "value", "n": 12345})
        assert json.load(open(path)) == {"key": "value", "n": 12345}

    def test_staged_crash_leaves_debris_and_previous_document(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"version": 1})
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ATOMIC_WRITE_STAGED,
                    kind=KIND_CRASH,
                    match="doc.json",
                    max_fires=1,
                ),
            )
        )
        with injected_faults(plan):
            with pytest.raises(InjectedCrashError):
                atomic_write_json(path, {"version": 2})
            # Previous document intact, staging debris left behind.
            assert json.load(open(path)) == {"version": 1}
            debris = sorted(n for n in os.listdir(tmp_path) if ".tmp." in n)
            assert len(debris) == 1
            # The recovery write (same process, budget spent) publishes.
            atomic_write_json(path, {"version": 2})
        assert json.load(open(path)) == {"version": 2}

    def test_quarantine_entry_moves_aside(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("{torn")
        assert quarantine_entry(str(path)) == str(path) + ".bad"
        assert not path.exists()
        assert (tmp_path / "entry.json.bad").read_text() == "{torn"
        assert quarantine_entry(str(path)) is None  # already gone


# ---------------------------------------------------------------------------
# Store-load quarantine: ArtifactStore and FleetStore
# ---------------------------------------------------------------------------

class TestStoreQuarantine:
    def test_artifact_store_quarantines_corrupt_entry(self, tmp_path):
        spec = TrainingSpec(
            apps=("home",),
            platform="generic-two-cluster",
            episodes=1,
            episode_duration_s=4.0,
            seed=5,
        )
        store = ArtifactStore(str(tmp_path))
        path = tmp_path / f"{spec.fingerprint()}.agent.json"
        path.write_text('{"torn": ')
        assert store.load(spec) is None  # miss, not a raise
        assert not path.exists()
        assert path.with_suffix(".json.bad").exists()
        assert store.entry_paths() == []  # .bad is filtered out

    def test_fleet_store_quarantines_corrupt_entry(self, tmp_path):
        spec = FleetSpec(apps=("home",), devices=2, rounds=1, episodes=1)
        store = FleetStore(str(tmp_path))
        path = tmp_path / f"{spec.fingerprint()}.fleet.json"
        path.write_text('{"torn": ')
        assert store.load(spec) is None
        assert not path.exists()
        assert path.with_suffix(".json.bad").exists()
        assert store.entry_paths() == []


# ---------------------------------------------------------------------------
# Route parity: the worker count never changes a result
# ---------------------------------------------------------------------------

class TestRouteParity:
    @pytest.mark.parametrize("mode", ["pretrained", "federated"])
    def test_first_attempt_training_fault_is_retried_on_every_route(self, mode):
        # One transient fault on every training job's first attempt: the
        # in-process and the pool executor both retry it, so each cell ends
        # ok, with the same hash, whatever the worker count.
        matrix = ScenarioMatrix.build(
            name="route-parity",
            governors=("schedutil", "next"),
            apps=("home",),
            platforms=("generic-two-cluster",),
            duration_s=4.0,
            training={
                "mode": mode,
                "episodes": 1,
                "episode_duration_s": 4.0,
                "devices": 2,
                "rounds": 2,
            },
        )
        assert len(matrix.cells()) == 2
        plan = FaultPlan(rules=(FaultRule(site=SITE_TRAIN_ARTIFACT, kind=KIND_TRANSIENT),))
        outcomes = {}
        for workers in (1, 2):
            with injected_faults(plan):
                sweep = SweepRunner(max_workers=workers).run(matrix)
            assert all(result.ok for result in sweep.results), [
                result.error for result in sweep.failures
            ]
            outcomes[workers] = {
                result.cell.fingerprint(): (
                    result.status,
                    result.error_kind,
                    result.summary["sample_stream_hash"],
                )
                for result in sweep.results
            }
        assert outcomes[1] == outcomes[2]


class TestPoolAbandon:
    def test_watchdog_restart_terminates_the_hung_worker(self):
        # The first attempt of every job hangs far past its budget: the
        # watchdog abandons the pool and the rebuilt pool finishes the
        # sweep.  The hung worker must die with its pool rather than sleep
        # on (and hold the interpreter's exit) until its hang ends.
        matrix = ScenarioMatrix.build(
            name="hang",
            governors=("schedutil", "powersave"),
            apps=("facebook",),
            duration_s=3.0,
        )
        plan = FaultPlan(
            rules=(
                FaultRule(site=SITE_EXECUTE_BATCH, kind=KIND_HANG, hang_s=120.0),
                FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_HANG, hang_s=120.0),
            )
        )
        with injected_faults(plan):
            sweep = SweepRunner(
                max_workers=2, watchdog=WatchdogPolicy(cell_timeout_s=1.0)
            ).run(matrix)
        assert not sweep.failures
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_abandon_waits_for_the_pool_manager_thread(self):
        # While the manager thread tears an abandoned pool down it holds the
        # pool's shutdown lock for a moment.  A rebuilt pool forked in that
        # window gives its workers the lock already held, and a worker that
        # garbage-collects the old executor blocks on it for good, so the
        # watchdog expires on a job that never hung.  abandon() must not
        # return before that thread is done.
        executor = _PoolExecutor(1)
        executor.submit(time.sleep, 30.0)
        manager = executor._executor_manager_thread
        executor.abandon()
        assert not manager.is_alive()

    def test_watchdog_restart_bumps_the_jobs_on_workers_only(self):
        # Two workers, six cells.  The first two cells hang on their first
        # attempt, under budgets of about 1.1 s and 3.4 s, and hold both
        # workers; the other four queue behind them.  The shorter budget
        # expires first and the pool is abandoned.  The sibling on the
        # other worker counts a failed attempt too, so the rebuilt pool runs
        # it past the fault and one restart ends the sweep; bumping only the
        # expired job reruns the sibling at attempt 0, where it hangs again
        # and spends its own budget.  The queued cells never started, so
        # they keep their retry budget: no attempt is recorded against them.
        matrix = ScenarioMatrix.build(
            name="hang-siblings",
            governors=("schedutil",),
            apps=("facebook", "pubg"),
            seeds=(0, 1, 2, 3, 4),
            duration_s=4.0,
            game_duration_s=12.0,
        )
        by_key = {(cell.workload.key, cell.seed): cell for cell in matrix.cells()}
        hung = [by_key["facebook", 0], by_key["pubg", 0]]
        queued = [by_key["pubg", seed] for seed in (1, 2, 3, 4)]
        watchdog = WatchdogPolicy(
            cost_model=DEFAULT_COST_MODEL, floor_s=0.0, multiplier=150.0
        )
        short, long = (watchdog.cell_budget_s(cell) for cell in hung)
        # The queued cells' deadlines, armed at submission, outlast the
        # first hang's, so only that one can trip the watchdog.
        assert short < long == watchdog.cell_budget_s(queued[0])
        plan = FaultPlan(
            rules=tuple(
                FaultRule(
                    site=SITE_EXECUTE_CELL,
                    kind=KIND_HANG,
                    match=cell.fingerprint(),
                    hang_s=30.0,
                )
                for cell in hung
            )
        )
        reset_metrics()
        try:
            with injected_faults(plan):
                sweep = SweepRunner(max_workers=2, watchdog=watchdog).run(
                    matrix, cells=[*hung, *queued]
                )
            assert not sweep.failures
            assert metrics().counters["watchdog.reschedules"] == 1
            assert "pool.rebuilds" not in metrics().counters
        finally:
            reset_metrics()
        attempts = {result.cell: result.attempts for result in sweep.results}
        for cell in hung:
            assert [record["error_type"] for record in attempts[cell]] == [
                "watchdog timeout"
            ]
        assert [attempts[cell] for cell in queued] == [None] * len(queued)
