"""The batch route: one cost rule decides batch vs scalar, on every caller.

:meth:`CostModel.route` prices a group of lanes on the batch kernel (a fixed
per-tick cost over the longest lane plus a per-lane-tick cost) against
running each lane scalar, and the sweep runner's cell chunks, its fleet
rounds and :func:`train_fleet_artifact` all obey it.  These tests pin the
rule, its callers, that an all-scalar sweep never imports NumPy, that the
route never changes a hash, and the two fleet-round reliability fixes that
came with it: a batched round is retried, and every round job is budgeted.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import pytest

from repro.experiments.costs import DEFAULT_COST_MODEL, CostModel
from repro.experiments.federated import round_route, train_fleet_artifact
from repro.experiments.matrix import ScenarioMatrix, named_matrix
from repro.experiments.runner import (
    SweepRunner,
    batchable_cell_groups,
    cell_route,
    execute_cell,
)
from repro.obs.metrics import metrics, reset_metrics
from repro.obs.report import render_text
from repro.obs.trace import read_trace, traced
from repro.reliability.faults import (
    KIND_HANG,
    KIND_TRANSIENT,
    SITE_TRAIN_DEVICE_BATCH,
    SITE_TRAIN_DEVICE_ROUND,
    FaultPlan,
    FaultRule,
    injected_faults,
)
from repro.reliability.watchdog import WatchdogPolicy

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


def crossover_lanes() -> int:
    """The most equal-length lanes that still run scalar."""
    model = CostModel
    return math.floor(
        model.BATCH_FIXED_S_PER_TICK
        / (model.SCALAR_S_PER_TICK - model.BATCH_S_PER_LANE_TICK)
    )


def federated_matrix() -> ScenarioMatrix:
    """One 2-device, 2-round fleet evaluated by one cell, plus a schedutil cell."""
    return ScenarioMatrix.build(
        name="routing-fleet",
        governors=("schedutil", "next"),
        apps=("home",),
        platforms=("generic-two-cluster",),
        duration_s=4.0,
        training={
            "mode": "federated",
            "episodes": 1,
            "episode_duration_s": 4.0,
            "devices": 2,
            "rounds": 2,
        },
    )


def mixed_matrix(seeds) -> ScenarioMatrix:
    """Mixed governors (both kinds) and mixed durations on one platform."""
    return ScenarioMatrix.build(
        name="routing-mixed",
        governors=("schedutil", "conservative"),
        apps=("facebook", "lineage"),
        seeds=tuple(seeds),
        duration_s=2.0,
        game_duration_s=3.0,
    )


def hashes(sweep) -> dict:
    assert not sweep.failures, sweep.failures and sweep.failures[0].error
    return {
        result.cell.fingerprint(): result.summary["sample_stream_hash"]
        for result in sweep.results
    }


class TestCostRule:
    def test_crossover_sits_between_the_named_sweeps_groups(self):
        # smoke's 8 lanes run scalar; platforms' 18 lanes per platform batch.
        assert 8 <= crossover_lanes() < 18

    @pytest.mark.parametrize("platform", ["exynos9810", "generic-two-cluster"])
    def test_just_below_the_crossover_is_scalar_and_above_batches(self, platform):
        lanes = crossover_lanes()
        below = DEFAULT_COST_MODEL.route(platform, [30.0] * lanes)
        above = DEFAULT_COST_MODEL.route(platform, [30.0] * (lanes + 1))
        assert not below.batch and below.batch_s >= below.scalar_s
        assert above.batch and above.batch_s < above.scalar_s
        assert (below.lanes, above.lanes) == (lanes, lanes + 1)
        # A single lane never batches.
        assert not DEFAULT_COST_MODEL.route(platform, [30.0]).batch

    def test_mixed_durations_are_priced_by_the_longest_lane(self):
        model = CostModel
        route = DEFAULT_COST_MODEL.route("exynos9810", [1.0, 2.0, 5.0])
        ticks = [60.0, 120.0, 300.0]
        assert route.batch_s == pytest.approx(
            model.BATCH_FIXED_S_PER_TICK * 300.0
            + model.BATCH_S_PER_LANE_TICK * sum(ticks)
        )
        assert route.scalar_s == pytest.approx(model.SCALAR_S_PER_TICK * sum(ticks))
        # One long lane among short ones costs the batch its whole length.
        lanes = crossover_lanes() + 4
        short = DEFAULT_COST_MODEL.route("exynos9810", [3.0] * lanes)
        skewed = DEFAULT_COST_MODEL.route("exynos9810", [3.0] * (lanes - 1) + [300.0])
        assert short.batch and not skewed.batch

    def test_mixed_governors_are_priced_by_the_longest_lane(self):
        cells = mixed_matrix(range(3)).cells()
        governors = {cell.governor for cell in cells}
        assert governors == {"schedutil", "conservative"}
        route = cell_route(cells)
        assert route == DEFAULT_COST_MODEL.route(
            "exynos9810", [cell.workload.duration_s for cell in cells]
        )
        assert route.batch_s == pytest.approx(
            CostModel.BATCH_FIXED_S_PER_TICK * 3.0 * 60
            + CostModel.BATCH_S_PER_LANE_TICK * route.scalar_s / CostModel.SCALAR_S_PER_TICK
        )

    def test_named_sweeps_route_as_measured(self):
        def chunk_routes(name, workers):
            groups, _ = batchable_cell_groups(
                list(enumerate(named_matrix(name).cells())), workers=workers
            )
            return [cell_route([cell for _, cell in group]).batch for group in groups]

        assert chunk_routes("smoke", 1) == [False]
        assert chunk_routes("trained-next", 1) == [False]
        assert chunk_routes("federated", 1) == [False]
        assert chunk_routes("platforms", 1) == [True, True]
        assert chunk_routes("baselines", 1) == [True]
        assert chunk_routes("baselines", 2) == [True, True]
        (fleet,) = {
            cell.fleet_spec()
            for cell in named_matrix("federated").cells()
            if cell.fleet_spec() is not None
        }
        jobs = [
            (None, fleet.device_apps(d), fleet.platform, fleet.device_episodes(d),
             fleet.episode_duration_s, 0, ())
            for d in range(fleet.devices)
        ]
        assert not round_route(jobs).batch


    def test_pool_chunks_split_by_simulated_seconds(self):
        # baselines mixes 90 s and 120 s sessions: a count split gave one
        # worker 3,960 of the 7,200 lane-seconds.
        cells = named_matrix("baselines").cells()
        groups, rest = batchable_cell_groups(list(enumerate(cells)), workers=2)
        assert rest == [] and len(groups) == 2
        seconds = [sum(cell.workload.duration_s for _, cell in group) for group in groups]
        longest = max(cell.workload.duration_s for cell in cells)
        assert abs(seconds[0] - seconds[1]) <= longest
        # Contiguous chunks that keep every cell once, in order.
        assert [index for group in groups for index, _ in group] == list(range(len(cells)))


class TestRunnerRoutes:
    def test_pool_dispatches_chunks_below_the_crossover_per_cell(self, tmp_path):
        matrix = named_matrix("smoke")
        path = str(tmp_path / "trace.jsonl")
        with traced(path):
            sweep = SweepRunner(max_workers=2).run(matrix)
        assert not sweep.failures
        groups, _ = batchable_cell_groups(
            list(enumerate(matrix.cells())), workers=2
        )
        assert [len(group) for group in groups] == [4, 4]
        events, _ = read_trace(path)
        spans = [event for event in events if event.get("kind") == "span"]
        assert not [span for span in spans if span["name"] == "cell_batch"]
        cells = [span for span in spans if span["name"] == "cell"]
        assert len(cells) == len(matrix.cells())
        assert not any(span["attrs"].get("batched") for span in cells)
        assert metrics().counters["route.cells.scalar_lanes"] == 8
        assert "route.cells.batch_lanes" not in metrics().counters

    def test_runner_and_train_fleet_artifact_route_a_fleet_alike(self, batch_route):
        matrix = federated_matrix()
        SweepRunner(max_workers=1).run(matrix)
        runner_counts = {
            name: value
            for name, value in metrics().counters.items()
            if name.startswith("route.devices.")
        }
        reset_metrics()
        train_fleet_artifact(matrix.cells()[-1].fleet_spec())
        standalone_counts = {
            name: value
            for name, value in metrics().counters.items()
            if name.startswith("route.devices.")
        }
        expected = "batch" if batch_route == "batch-forced" else "scalar"
        try:
            import numpy  # noqa: F401
        except ImportError:
            expected = "scalar"
        assert runner_counts == standalone_counts == {
            f"route.devices.{expected}_lanes": 2.0
        }

    def test_every_route_hashes_like_the_scalar_reference(self, batch_route):
        matrix = mixed_matrix(range(2))
        reference = {
            cell.fingerprint(): execute_cell(cell).summary["sample_stream_hash"]
            for cell in matrix.cells()
        }
        assert hashes(SweepRunner(max_workers=1).run(matrix)) == reference
        assert hashes(SweepRunner(max_workers=2).run(matrix)) == reference
        fleet = federated_matrix()
        fleet_reference = hashes(SweepRunner(max_workers=1).run(fleet))
        assert hashes(SweepRunner(max_workers=2).run(fleet)) == fleet_reference
        assert fleet_reference == {
            cell.fingerprint(): execute_cell(cell).summary["sample_stream_hash"]
            for cell in fleet.cells()
        }

    def test_all_scalar_sweep_never_imports_numpy(self):
        pytest.importorskip("numpy")
        code = (
            "import sys\n"
            "from repro.experiments.matrix import named_matrix\n"
            "from repro.experiments.runner import SweepRunner\n"
            "sweep = SweepRunner(max_workers=1).run(named_matrix('smoke'))\n"
            "assert not sweep.failures\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]"


#: Runs a test on the forced batch route only (see ``batch_route``).
batch_forced = pytest.mark.parametrize("batch_route", ["batch-forced"], indirect=True)


class TestFleetRoundReliability:
    @batch_forced
    def test_batched_round_is_retried(self, batch_route):
        pytest.importorskip("numpy")
        matrix = federated_matrix()
        clean = hashes(SweepRunner(max_workers=1).run(matrix))
        plan = FaultPlan(rules=(FaultRule(site=SITE_TRAIN_DEVICE_BATCH, kind=KIND_TRANSIENT),))
        reset_metrics()
        with injected_faults(plan):
            sweep = SweepRunner(max_workers=1).run(matrix)
        assert hashes(sweep) == clean
        assert metrics().counters["retry.transient"] >= 1
        assert metrics().counters["route.devices.batch_lanes"] == 2

    def test_fleet_round_jobs_get_a_watchdog_budget(self, batch_route):
        # No --cell-timeout: the budget must come from the cost model's
        # training rate, so a hung round job is rescheduled, not waited out.
        # Only device 0's round-1 job hangs: both round routes key their
        # fault site by that seed, and one hung job is exactly one restart.
        matrix = federated_matrix()
        fleet = matrix.cells()[-1].fleet_spec()
        key = str(fleet.device_seed(0, 1))
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_TRAIN_DEVICE_ROUND, kind=KIND_HANG, match=key, hang_s=20.0
                ),
                FaultRule(
                    site=SITE_TRAIN_DEVICE_BATCH, kind=KIND_HANG, match=key, hang_s=20.0
                ),
            )
        )
        watchdog = WatchdogPolicy(
            cost_model=DEFAULT_COST_MODEL, floor_s=1.0, multiplier=1.0
        )
        started = time.monotonic()
        with injected_faults(plan):
            sweep = SweepRunner(max_workers=2, watchdog=watchdog).run(matrix)
        elapsed = time.monotonic() - started
        assert not sweep.failures
        assert metrics().counters["watchdog.reschedules"] >= 1
        assert elapsed < 15.0

    def test_round_and_spec_budgets_are_priced_from_the_training_rate(self):
        spec = federated_matrix().cells()[-1].fleet_spec()
        device_spec = spec.device_training_spec(0)
        job = (None, ("home", "facebook"), spec.platform, 3, 10.0, 0, ())
        watchdog = WatchdogPolicy(cost_model=DEFAULT_COST_MODEL, floor_s=0.0)
        rate = DEFAULT_COST_MODEL.train_s_per_sim_s
        assert watchdog.round_budget_s([job]) == pytest.approx(20.0 * 60.0 * rate)
        assert watchdog.round_budget_s([job, job]) == pytest.approx(2 * 20.0 * 60.0 * rate)
        sim_s = len(device_spec.apps) * device_spec.episodes * device_spec.episode_duration_s
        assert watchdog.spec_budget_s(device_spec) == pytest.approx(20.0 * sim_s * rate)
        flat = WatchdogPolicy(cell_timeout_s=5.0)
        assert flat.round_budget_s([job, job]) == 10.0
        assert flat.spec_budget_s(device_spec) == 5.0
        assert WatchdogPolicy().round_budget_s([job]) is None


class TestRouteReport:
    @batch_forced
    def test_render_text_shows_the_route(self, tmp_path, batch_route):
        pytest.importorskip("numpy")
        path = str(tmp_path / "trace.jsonl")
        matrix = federated_matrix()
        plain = mixed_matrix(range(1))
        with traced(path):
            SweepRunner(max_workers=1).run(plain)
            # Each run's footer is cumulative: start the second one empty.
            reset_metrics()
            SweepRunner(max_workers=1).run(matrix)
        events, _ = read_trace(path)
        text = render_text(events)
        lines = text.splitlines()
        batch_rows = [line for line in lines if line.lstrip().startswith("cell_batch")]
        assert len(batch_rows) == 1
        assert "lanes=4 predicted batch=" in batch_rows[0]
        assert " scalar=" in batch_rows[0]
        device_rows = [line for line in lines if line.lstrip().startswith("device_batch")]
        assert device_rows and all("lanes=2 predicted batch=" in row for row in device_rows)
        lane_rows = [
            line for line in lines if line.lstrip().startswith("cell ") and "amortised=" in line
        ]
        assert len(lane_rows) == len(plain.cells())
        metrics_at = lines.index("metrics:")
        assert "  route.cells.batch_lanes = 4" in lines[metrics_at:]
        assert "  route.devices.batch_lanes = 2" in lines[metrics_at:]
