"""The one fleet schedule: how :class:`FleetBuild` hands out and collects a round.

:class:`FleetBuild` routes every round through the cost model and hands it
out as device chunks: the whole round in one chunk on the batch route, one
chunk per device otherwise.  It collects the chunks' device states until the
round is complete; the sweep runner and :func:`train_fleet_artifact` only
run the chunks.  These tests pin the chunk shapes on both routes, that
chunks delivered in any order complete the round exactly once, and that a
device chunk retries under its own key.
"""

from __future__ import annotations

from repro.core.federated import FleetSpec
from repro.experiments.artifacts import train_artifact
from repro.experiments.federated import (
    FleetBuild,
    batch_kernel_available,
    train_fleet_artifact,
    train_round_chunk,
)
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import SweepRunner
from repro.obs.trace import read_trace, traced
from repro.reliability.faults import (
    KIND_TRANSIENT,
    SITE_TRAIN_DEVICE_ROUND,
    FaultPlan,
    FaultRule,
    injected_faults,
)

SPEC = FleetSpec(
    apps=("home",),
    devices=2,
    rounds=2,
    platform="generic-two-cluster",
    episodes=1,
    episode_duration_s=4.0,
    fleet_seed=3,
)


def started_build() -> FleetBuild:
    """A build of ``SPEC`` with its round-0 device agents trained and provided."""
    build = FleetBuild(SPEC)
    build.provide_round0(
        {fingerprint: train_artifact(spec) for fingerprint, spec in build.round0}
    )
    return build


def hashes(sweep) -> dict:
    assert not sweep.failures, sweep.failures and sweep.failures[0].error
    return {
        result.cell.fingerprint(): result.summary["sample_stream_hash"]
        for result in sweep.results
    }


class TestRoundChunks:
    def test_round_is_one_chunk_per_device_or_one_batch(self, batch_route):
        build = started_build()
        assert build.round_index == 1
        chunks = build.round_chunks()
        jobs = [job for _, chunk in chunks for job in chunk]
        assert [job[1:] for job in jobs] == [
            (
                SPEC.device_apps(device),
                SPEC.platform,
                SPEC.device_episodes(device),
                SPEC.episode_duration_s,
                SPEC.device_seed(device, 1),
                SPEC.config_overrides,
            )
            for device in range(SPEC.devices)
        ]
        if batch_route == "batch-forced" and batch_kernel_available():
            assert build.batched
            assert chunks == [(0, [jobs[0], jobs[1]])]
        else:
            assert not build.batched
            assert chunks == [(0, [jobs[0]]), (1, [jobs[1]])]

    def test_chunks_delivered_out_of_order_finish_the_round_once(self, monkeypatch):
        finished = []
        finish_round = FleetBuild.finish_round

        def counted(build, round_index, device_states):
            finished.append(round_index)
            finish_round(build, round_index, device_states)

        monkeypatch.setattr(FleetBuild, "finish_round", counted)
        build = started_build()
        chunks = build.round_chunks()
        assert [first for first, _ in chunks] == [0, 1]
        states = {
            first: train_round_chunk(jobs, build.route) for first, jobs in chunks
        }
        assert build.deliver(1, states[1]) is False
        assert finished == [] and not build.finished
        assert build.deliver(0, states[0]) is True
        assert finished == [1] and build.finished
        assert build.artifact().to_dict() == train_fleet_artifact(SPEC).to_dict()


class TestChunkRetryKeys:
    def test_a_failed_device_chunk_retries_under_its_device_key(self, tmp_path):
        matrix = ScenarioMatrix.build(
            name="fleet-schedule",
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
        fleet = matrix.cells()[-1].fleet_spec()
        clean = hashes(SweepRunner(max_workers=1).run(matrix))
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_TRAIN_DEVICE_ROUND,
                    kind=KIND_TRANSIENT,
                    match=str(fleet.device_seed(0, 1)),
                ),
            )
        )
        path = str(tmp_path / "trace.jsonl")
        with traced(path), injected_faults(plan):
            sweep = SweepRunner(max_workers=1).run(matrix)
        assert hashes(sweep) == clean
        events, _ = read_trace(path)
        retries = [
            event["attrs"]["key"]
            for event in events
            if event.get("kind") == "event" and event["name"] == "retry"
        ]
        assert retries == [f"{fleet.fingerprint()}:r1:d0"]
