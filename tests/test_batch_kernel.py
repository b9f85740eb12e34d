"""Batched device-population kernel: bit-identity with the scalar engine.

The struct-of-arrays :class:`~repro.sim.batch.BatchSimulation` steps N
independent devices per tick in one process.  Its load-bearing contract is
the same one the compiled hot loop (PR 4) carries: *bit-identity*.  Every
device lane of a batched run must produce exactly the sample stream the
scalar :class:`~repro.sim.engine.Simulation` produces for that device --
pinned through ``sample_stream_hash``, the canonical SHA-256 of the full
recorded stream -- across platforms, governors (including the
observation-free fast path and the stateful slow path), device counts
(including the degenerate N=1), interrupted/resumed stepping and the
federated round scheduling built on top.  Golden hashes for one batched
fleet cell live in ``tests/data/golden_hashes.json`` next to the scalar
pins, so a drift in either kernel (or only one of them) fails loudly.
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from functools import partial

import pytest

pytest.importorskip("numpy")  # the batch kernel is NumPy-backed

from hypothesis import given, settings
from hypothesis import strategies as st
from test_running_summary import cpython_sum

from repro.graphics.pipeline import FrameSpec
from repro.obs.profile import STAGES, profiled
from repro.sim.batch import BatchSimulation
from repro.sim.config import SimulationConfig
from repro.sim.engine import SessionWorkload, Simulation
from repro.sim.experiment import GOVERNOR_FACTORIES, make_governor, record_session_trace
from repro.sim.recorder import (
    _HASH_CHUNK_ROWS,
    BatchRecorder,
    _FoldedLane,
    sample_stream_hash,
)
from repro.soc.platform import make_platform
from repro.workloads.app import TickWorkload
from repro.workloads.apps import make_app
from repro.workloads.session import FIGURE1_SESSION, SessionSegment
from repro.workloads.trace import TracePlayer, TraceRecorder, WorkloadTrace

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hashes.json")

PLATFORMS = ("exynos9810", "generic-two-cluster")


def batch_device_hashes(platform_name, governor_name, n_devices, seed, duration_s):
    """Per-device stream hashes of one batched run."""
    platform = make_platform(platform_name)
    configs = [
        SimulationConfig(
            refresh_hz=platform.display_refresh_hz,
            duration_s=duration_s,
            seed=seed + device,
        )
        for device in range(n_devices)
    ]
    governors = [make_governor(governor_name) for _ in range(n_devices)]
    batch = BatchSimulation(platform, governors, configs)
    batch.run(
        [
            SessionWorkload(FIGURE1_SESSION.segments, seed=seed + device)
            for device in range(n_devices)
        ],
        duration_s=duration_s,
    )
    return [batch.device_recorder(device).content_hash() for device in range(n_devices)]


def scalar_device_hash(platform_name, governor_name, device, seed, duration_s):
    """The scalar reference stream hash of one device of that fleet."""
    platform = make_platform(platform_name)
    config = SimulationConfig(
        refresh_hz=platform.display_refresh_hz,
        duration_s=duration_s,
        seed=seed + device,
    )
    simulation = Simulation(platform, make_governor(governor_name), config)
    simulation.run(SessionWorkload(FIGURE1_SESSION.segments, seed=seed + device))
    return sample_stream_hash(simulation.recorder.samples)


class TestBatchScalarParity:
    """batched == sequential, per device, bit for bit."""

    @given(
        platform_name=st.sampled_from(PLATFORMS),
        governor_name=st.sampled_from(sorted(GOVERNOR_FACTORIES)),
        n_devices=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_device_lane_matches_its_scalar_run(
        self, platform_name, governor_name, n_devices, seed
    ):
        duration_s = 2.0
        batched = batch_device_hashes(
            platform_name, governor_name, n_devices, seed, duration_s
        )
        for device in range(n_devices):
            assert batched[device] == scalar_device_hash(
                platform_name, governor_name, device, seed, duration_s
            ), f"lane {device} diverged ({platform_name}/{governor_name}/seed {seed})"

    def test_single_device_fleet_equals_scalar(self):
        """N=1 is the degenerate fleet: no vector shortcut may change it."""
        batched = batch_device_hashes("exynos9810", "schedutil", 1, 7, 3.0)
        assert batched[0] == scalar_device_hash("exynos9810", "schedutil", 0, 7, 3.0)

    def test_observation_free_and_slow_paths_agree_with_scalar(self):
        """The governor fast path (schedutil et al. skip sensor sampling
        entirely) and the stateful slow path (conservative reads its
        observation) both reduce to the scalar streams."""
        for governor_name in ("schedutil", "conservative"):
            batched = batch_device_hashes("exynos9810", governor_name, 2, 3, 2.0)
            for device in range(2):
                assert batched[device] == scalar_device_hash(
                    "exynos9810", governor_name, device, 3, 2.0
                )


class TestMidRunAggregation:
    """Fleet schedulers pause a batch mid-run (to aggregate) and resume it."""

    def test_split_run_equals_scalar_split_run(self):
        platform = make_platform("exynos9810")
        n_devices = 3
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=4.0, seed=device
            )
            for device in range(n_devices)
        ]
        batch = BatchSimulation(
            platform,
            [make_governor("schedutil") for _ in range(n_devices)],
            configs,
        )
        workloads = [
            SessionWorkload(FIGURE1_SESSION.segments, seed=device)
            for device in range(n_devices)
        ]
        # Two half-duration run() calls: state (thermal, governor, pipeline,
        # recorder) persists across the boundary, as a federated scheduler
        # needs when it aggregates between episodes.
        batch.run(workloads, duration_s=2.0)
        assert batch.tick_count == 120
        batch.run(workloads, duration_s=2.0)
        for device in range(n_devices):
            simulation = Simulation(
                platform, make_governor("schedutil"), configs[device]
            )
            workload = SessionWorkload(FIGURE1_SESSION.segments, seed=device)
            simulation.run(workload, duration_s=2.0)
            simulation.run(workload, duration_s=2.0)
            assert batch.device_recorder(device).content_hash() == sample_stream_hash(
                simulation.recorder.samples
            )


class TestBatchedFederatedRound:
    """The batched round scheduler returns exactly the scalar states."""

    def test_batched_device_round_states_match_scalar(self):
        from repro.core.agent import AgentConfig, NextAgent
        from repro.experiments.federated import (
            round_route,
            train_device_round,
            train_device_rounds_batched,
        )

        jobs = []
        for device in range(3):
            agent = NextAgent(config=AgentConfig(), seed=100 + device)
            jobs.append(
                (
                    json.loads(json.dumps(agent.to_dict())),
                    ("facebook",),
                    "exynos9810",
                    2,
                    2.0,
                    17 + device * 31,
                    (),
                )
            )
        batched = train_device_rounds_batched(jobs, round_route(jobs))
        scalar = [train_device_round(*job) for job in jobs]
        assert batched == scalar

    def test_heterogeneous_jobs_rejected(self):
        from repro.core.agent import AgentConfig, NextAgent
        from repro.experiments.federated import (
            round_route,
            train_device_rounds_batched,
        )

        state = json.loads(
            json.dumps(NextAgent(config=AgentConfig(), seed=0).to_dict())
        )
        jobs = [
            (state, ("facebook",), "exynos9810", 2, 2.0, 0, ()),
            (state, ("facebook",), "generic-two-cluster", 2, 2.0, 1, ()),
        ]
        with pytest.raises(ValueError, match="share platform"):
            train_device_rounds_batched(jobs, round_route(jobs))


#: One training lane: its apps, episode budget, episode duration and seed.
training_lane_strategy = st.tuples(
    st.lists(st.sampled_from(("home", "facebook", "spotify")), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from((2.0, 2.5, 3.0)),
    st.integers(min_value=0, max_value=500),
)


class TestOneTrainingSchedule:
    """``train_lanes`` trains the same agents on either kernel.

    Lanes differ in app lists and episode budgets, and a short TD-error
    window lets drawn thresholds converge some lanes early, so lanes leave
    an app at different episodes on the batch kernel too.
    """

    @given(
        lanes=st.lists(training_lane_strategy, min_size=2, max_size=4),
        threshold=st.sampled_from((0.0, 0.5, 1.0, 2.0, float("inf"))),
    )
    @settings(max_examples=8, deadline=None)
    def test_batched_lanes_equal_one_scalar_run_per_lane(self, lanes, threshold):
        from repro.core.agent import AgentConfig
        from repro.core.governor import NextGovernor
        from repro.sim.experiment import train_lanes, training_config

        platform = make_platform("generic-two-cluster")

        def fresh_lanes():
            agent_config = AgentConfig(td_error_window=10)
            return [
                (
                    NextGovernor(config=agent_config, seed=seed),
                    apps,
                    episodes,
                    duration_s,
                    seed,
                    training_config(platform, duration_s, seed),
                )
                for apps, episodes, duration_s, seed in lanes
            ]

        batched = fresh_lanes()
        batched_results = train_lanes(batched, platform, threshold, batched=True)
        scalar = fresh_lanes()
        scalar_results = [
            train_lanes([lane], platform, threshold)[0] for lane in scalar
        ]
        assert batched_results == scalar_results
        assert [lane[0].agent.to_dict() for lane in batched] == [
            lane[0].agent.to_dict() for lane in scalar
        ]


class TestBatchedFleetGolden:
    """One batched fleet cell pinned against committed golden hashes.

    The hashes were captured from the *scalar* kernel, so this test fails if
    either kernel drifts -- including a batch-only change that silently
    breaks parity on exactly this configuration.
    """

    def test_batched_fleet_cell_streams_are_bit_identical_to_seed(self):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)["batched_fleet"]
        hashes = batch_device_hashes(
            expected["platform"],
            expected["governor"],
            expected["devices"],
            expected["seed"],
            expected["duration_s"],
        )
        assert hashes == expected["hashes"]


class TestBatchConstruction:
    def test_mismatched_config_axes_rejected(self):
        """Axes that change the physics of a shared tick stay homogeneous."""
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=2.0, seed=0
            ),
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=2.0,
                seed=1,
                warm_start_temperature_c=55.0,
            ),
        ]
        with pytest.raises(ValueError, match="warm start"):
            BatchSimulation(
                platform, [make_governor("schedutil") for _ in range(2)], configs
            )

    def test_mixed_recording_cadence_accepted(self):
        """Per-lane ``record_every_n_ticks`` is a lane axis, not a batch axis."""
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=2.0,
                seed=device,
                record_every_n_ticks=device + 1,
            )
            for device in range(2)
        ]
        BatchSimulation(
            platform, [make_governor("schedutil") for _ in range(2)], configs
        )

    def test_governor_count_must_match_config_count(self):
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=2.0, seed=0
            )
        ]
        with pytest.raises(ValueError):
            BatchSimulation(
                platform, [make_governor("schedutil") for _ in range(2)], configs
            )


# -- heterogeneous lanes: the masked multi-config path -------------------------

#: Apps with distinct interaction profiles (bursty scroll / passive audio /
#: continuous game), so mixed-lane fuzzing exercises genuinely different
#: frame-demand streams per lane.
HETERO_APPS = ("facebook", "spotify", "lineage")


def hetero_batch_hashes(platform_name, governor_name, lanes):
    """Per-device stream hashes of one heterogeneous (masked) batched run."""
    batch = hetero_batch(platform_name, governor_name, lanes)
    return [batch.device_recorder(device).content_hash() for device in range(len(lanes))]


def hetero_batch(platform_name, governor_name, lanes):
    """One heterogeneous (masked) batched run, ready to gather."""
    platform = make_platform(platform_name)
    configs = [
        SimulationConfig(
            refresh_hz=platform.display_refresh_hz,
            duration_s=lane["duration_s"],
            seed=lane["seed"],
            record_every_n_ticks=lane["record_every"],
        )
        for lane in lanes
    ]
    governors = [make_governor(governor_name) for _ in lanes]
    batch = BatchSimulation(platform, governors, configs)
    batch.run(
        [
            make_app(lane["app"], seed=lane["seed"], intensity=lane["intensity"])
            for lane in lanes
        ],
        duration_s=[lane["duration_s"] for lane in lanes],
    )
    return batch


def hetero_scalar_hash(platform_name, governor_name, lane):
    """The scalar reference stream hash of one heterogeneous lane."""
    recorder = hetero_scalar_recorder(platform_name, governor_name, lane)
    return sample_stream_hash(recorder.samples)


def hetero_scalar_recorder(platform_name, governor_name, lane):
    """The scalar reference recording of one heterogeneous lane."""
    platform = make_platform(platform_name)
    config = SimulationConfig(
        refresh_hz=platform.display_refresh_hz,
        duration_s=lane["duration_s"],
        seed=lane["seed"],
        record_every_n_ticks=lane["record_every"],
    )
    simulation = Simulation(platform, make_governor(governor_name), config)
    return simulation.run(
        make_app(lane["app"], seed=lane["seed"], intensity=lane["intensity"])
    )


#: One lane of a heterogeneous fleet: every axis a masked batch lets differ.
lane_strategy = st.fixed_dictionaries(
    {
        "app": st.sampled_from(HETERO_APPS),
        "duration_s": st.sampled_from((1.0, 2.0, 3.0)),
        "record_every": st.sampled_from((1, 2, 3)),
        "intensity": st.sampled_from((0.5, 1.0, 2.0)),
        "seed": st.integers(min_value=0, max_value=500),
    }
)


class TestHeterogeneousLanes:
    """Differential fuzz harness: masked batched lanes == scalar runs.

    Lanes differ in duration (so lanes *finish* at different global ticks),
    recording cadence (so lanes *record* at different ticks) and interaction
    intensity (so non-IID fleets feed genuinely different streams through
    the shared loop).  Every lane must still reproduce the scalar kernel's
    sample stream bit for bit -- the mask may only ever *exclude* a dead
    lane, never perturb a live one.
    """

    @given(
        lanes=st.lists(lane_strategy, min_size=1, max_size=4),
        governor_name=st.sampled_from(("schedutil", "conservative")),
    )
    @settings(max_examples=10, deadline=None)
    def test_masked_lanes_match_scalar(self, lanes, governor_name):
        batched = hetero_batch_hashes("exynos9810", governor_name, lanes)
        for device, lane in enumerate(lanes):
            assert batched[device] == hetero_scalar_hash(
                "exynos9810", governor_name, lane
            ), f"lane {device} diverged ({lane!r})"

    def test_all_lanes_finished_but_one(self):
        """The survivor lane runs segments alone; its stream may not move."""
        lanes = [
            {"app": "facebook", "duration_s": 1.0, "record_every": 1,
             "intensity": 1.0, "seed": 11},
            {"app": "spotify", "duration_s": 1.0, "record_every": 1,
             "intensity": 1.0, "seed": 22},
            {"app": "lineage", "duration_s": 4.0, "record_every": 1,
             "intensity": 1.0, "seed": 33},
        ]
        batched = hetero_batch_hashes("exynos9810", "schedutil", lanes)
        for device, lane in enumerate(lanes):
            assert batched[device] == hetero_scalar_hash(
                "exynos9810", "schedutil", lane
            )

    def test_single_lane_through_masked_path_matches_scalar(self):
        """N=1 through the one tick loop: a single segment, one active lane."""
        platform = make_platform("exynos9810")
        config = SimulationConfig(
            refresh_hz=platform.display_refresh_hz, duration_s=2.0, seed=5
        )
        batch = BatchSimulation(platform, [make_governor("schedutil")], [config])
        workload = SessionWorkload(FIGURE1_SESSION.segments, seed=5)
        batch.run([workload], duration_s=2.0)
        assert batch.device_recorder(0).content_hash() == scalar_device_hash(
            "exynos9810", "schedutil", 0, 5, 2.0
        )

    def test_heterogeneous_run_consumes_the_batch(self):
        """Lanes end at different local ticks, so a second run is rejected."""
        lanes = [
            {"app": "facebook", "duration_s": 1.0, "record_every": 1,
             "intensity": 1.0, "seed": 1},
            {"app": "spotify", "duration_s": 2.0, "record_every": 1,
             "intensity": 1.0, "seed": 2},
        ]
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=lane["duration_s"],
                seed=lane["seed"],
            )
            for lane in lanes
        ]
        batch = BatchSimulation(
            platform, [make_governor("schedutil") for _ in lanes], configs
        )
        workloads = [make_app(lane["app"], seed=lane["seed"]) for lane in lanes]
        batch.run(workloads, duration_s=[1.0, 2.0])
        with pytest.raises(ValueError, match="consumes the batch"):
            batch.run(workloads, duration_s=1.0)

    def test_mixed_cadence_run_consumes_the_batch(self):
        """Equal durations but cadences 1 and 2 still consume the batch."""
        lanes = [
            {"app": "facebook", "duration_s": 1.0, "record_every": 1,
             "intensity": 1.0, "seed": 1},
            {"app": "spotify", "duration_s": 1.0, "record_every": 2,
             "intensity": 1.0, "seed": 2},
        ]
        batch = hetero_batch("exynos9810", "schedutil", lanes)
        workloads = [make_app(lane["app"], seed=lane["seed"]) for lane in lanes]
        with pytest.raises(ValueError, match="consumes the batch"):
            batch.run(workloads, duration_s=1.0)

    def test_ended_lanes_keep_no_rows(self):
        """One long lane adds its own rows only, not rows of the ended lanes.

        Eight 1 s lanes, then seven 1 s lanes beside one 8 s lane: the
        second run may keep at most three times the bytes of the first.
        """
        platform = make_platform("exynos9810")
        kept = []
        for durations in ([1.0] * 8, [1.0] * 7 + [8.0]):
            configs = [
                SimulationConfig(
                    refresh_hz=platform.display_refresh_hz,
                    duration_s=duration,
                    seed=device,
                )
                for device, duration in enumerate(durations)
            ]
            batch = BatchSimulation(
                platform, [make_governor("schedutil") for _ in configs], configs
            )
            workloads = [make_app("facebook", seed=device) for device in range(8)]
            tracemalloc.start()
            try:
                batch.run(workloads, duration_s=durations)
                kept.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            for device, config in enumerate(configs):
                simulation = Simulation(
                    platform, make_governor("schedutil"), config
                )
                simulation.run(make_app("facebook", seed=device))
                assert (
                    batch.device_recorder(device).content_hash()
                    == simulation.recorder.content_hash()
                ), f"lane {device} of {durations} diverged"
        assert kept[1] <= 3 * kept[0], kept


#: The pinned non-IID fleet cell: mixed durations, cadences and intensities.
#: Golden hashes were captured from the *scalar* kernel (see
#: ``TestBatchedFleetGolden`` for the rationale).
NIID_LANES = [
    {"app": "facebook", "duration_s": 4.0, "record_every": 1,
     "intensity": 1.0, "seed": 2020},
    {"app": "spotify", "duration_s": 2.0, "record_every": 2,
     "intensity": 2.0, "seed": 2021},
    {"app": "lineage", "duration_s": 3.0, "record_every": 1,
     "intensity": 0.5, "seed": 2022},
]


class TestNonIIDFleetGolden:
    """The heterogeneous fleet cell pinned against committed golden hashes."""

    def test_niid_fleet_cell_streams_are_bit_identical_to_seed(self):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)["niid_fleet"]
        assert expected["lanes"] == NIID_LANES, (
            "golden lane spec drifted; re-pin tests/data/golden_hashes.json"
        )
        hashes = hetero_batch_hashes(
            expected["platform"], expected["governor"], NIID_LANES
        )
        assert hashes == expected["hashes"]


class TestLaneGather:
    """``device_recorder`` hands out each lane's digest and summary."""

    @given(order=st.permutations(range(len(NIID_LANES))))
    @settings(max_examples=4, deadline=None)
    def test_any_gather_order_returns_the_same_streams(self, order):
        """Mixed durations and cadences; every lane read, one twice."""
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)["niid_fleet"]["hashes"]
        scalar = [
            hetero_scalar_recorder("exynos9810", "schedutil", lane)
            for lane in NIID_LANES
        ]
        batch = hetero_batch("exynos9810", "schedutil", NIID_LANES)
        for device in [*order, order[0]]:
            recorder = batch.device_recorder(device)
            assert recorder.content_hash() == expected[device]
            assert recorder.summary() == scalar[device].summary()
            assert len(recorder) == len(scalar[device])

    def test_gather_between_runs_covers_rows_appended_later(self):
        """A homogeneous batch may run on after a read; the read stays put.

        Each run records 1,080 rows, so each folds a full window inside
        ``run()`` and leaves a tail for the read to fold.
        """
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=36.0, seed=device
            )
            for device in range(2)
        ]
        batch = BatchSimulation(
            platform, [make_governor("schedutil") for _ in configs], configs
        )
        workloads = [
            SessionWorkload(FIGURE1_SESSION.segments, seed=device)
            for device in range(2)
        ]
        batch.run(workloads, duration_s=18.0)
        halfway = [batch.device_recorder(device) for device in range(2)]
        batch.run(workloads, duration_s=18.0)
        for device in range(2):
            simulation = Simulation(
                platform, make_governor("schedutil"), configs[device]
            )
            workload = SessionWorkload(FIGURE1_SESSION.segments, seed=device)
            simulation.run(workload, duration_s=18.0)
            assert len(simulation.recorder) == 1080
            assert halfway[device].content_hash() == simulation.recorder.content_hash()
            assert halfway[device].summary() == simulation.recorder.summary()
            simulation.run(workload, duration_s=18.0)
            recorder = batch.device_recorder(device)
            assert recorder.content_hash() == simulation.recorder.content_hash()
            assert recorder.summary() == simulation.recorder.summary()


def summary_state_bytes(lane):
    """Bytes of a folded lane's running sums and maxima, its FPS histogram
    aside.  Every value is a Python float, none a NumPy array."""
    import numpy as np

    for name in _FoldedLane.__slots__:
        assert not isinstance(getattr(lane, name), np.ndarray), name
    values = [value for state in lane.sums for value in state] + lane.peaks
    assert all(type(value) is float for value in [*values, *lane.fps_counts])
    return sum(map(sys.getsizeof, [lane.sums, lane.peaks, *lane.sums, *values]))


def fold_lane_setup(lane, ticks, every, governor_name):
    """The config, governor and duration of one ``TestWindowFold`` lane."""
    platform = make_platform("exynos9810")
    config = SimulationConfig(
        refresh_hz=platform.display_refresh_hz,
        seed=100 + lane,
        record_every_n_ticks=every,
    )
    if governor_name == "next":
        governor = make_governor(governor_name, seed=lane)
    else:
        governor = make_governor(governor_name)
    return config, governor, ticks / platform.display_refresh_hz


class TestWindowFold:
    """A batch lane's rows fold into its digest a window at a time.

    Lanes are ``(ticks, record_every, governor)`` and replay one recording
    from its start, so they form one demand group per segment.
    """

    @staticmethod
    def fold_run(lanes, monkeypatch):
        """Run ``lanes`` on the batch kernel; return the batch and the
        ``(segment, rows)`` of every fold inside ``run()``."""
        platform = make_platform("exynos9810")
        trace = record_session_trace(
            [SessionSegment("facebook", 25.0), SessionSegment("spotify", 25.0)],
            platform=platform,
            seed=7,
        )
        setups = [fold_lane_setup(lane, *spec) for lane, spec in enumerate(lanes)]
        configs, governors, durations = zip(*setups)
        batch = BatchSimulation(platform, governors, configs)
        folds = []
        fold_window = BatchRecorder._fold_window

        def counted(recorder, segment):
            folds.append(
                (recorder._segments.index(segment), segment.filled - segment.folded)
            )
            fold_window(recorder, segment)

        monkeypatch.setattr(BatchRecorder, "_fold_window", counted)
        batch.run([TracePlayer(trace) for _ in lanes], duration_s=durations)
        return batch, trace, list(folds)

    @staticmethod
    def assert_lanes_equal_scalar(batch, trace, lanes):
        platform = make_platform("exynos9810")
        for lane, spec in enumerate(lanes):
            config, governor, duration_s = fold_lane_setup(lane, *spec)
            simulation = Simulation(platform, governor, config)
            simulation.run(TracePlayer(trace), duration_s=duration_s)
            recorder = batch.device_recorder(lane)
            assert recorder.content_hash() == simulation.recorder.content_hash(), lane
            assert recorder.summary() == simulation.recorder.summary(), lane
            assert len(recorder) == len(simulation.recorder), lane

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    def test_window_edges_on_every_cadence_and_an_agent_lane(self, rows, monkeypatch):
        """One segment of ``rows`` rows: cadences 2 and 3 cross the window
        edge, and the agent lane records its target FPS."""
        lanes = [
            (rows, 1, "schedutil"),
            (rows, 2, "conservative"),
            (rows, 3, "schedutil"),
            (rows, 1, "next"),
        ]
        batch, trace, in_run = self.fold_run(lanes, monkeypatch)
        # A full window folds before its next row is written; the last
        # window waits for the first read.
        assert in_run == [(0, _HASH_CHUNK_ROWS)] * ((rows - 1) // _HASH_CHUNK_ROWS)
        self.assert_lanes_equal_scalar(batch, trace, lanes)

    def test_lanes_across_segments_fold_in_row_order(self, monkeypatch):
        """Segment 0 has 1,500 rows, segment 1 has 1,100.

        The 1,500-tick lanes end mid-window.  The 2,600-tick lanes' last 476
        rows of segment 0 are still pending when segment 1's window fills,
        and fold before it.
        """
        lanes = [
            (2600, 1, "schedutil"),
            (1500, 1, "conservative"),
            (2600, 3, "next"),
            (1500, 2, "next"),
        ]
        batch, trace, in_run = self.fold_run(lanes, monkeypatch)
        assert in_run == [(0, 1024), (0, 476), (1, 1024)]
        self.assert_lanes_equal_scalar(batch, trace, lanes)

    def test_a_run_keeps_one_window_per_pending_segment_and_summary_state(
        self, monkeypatch
    ):
        """No per-row storage: after the run, segment 0 is folded and holds no
        block, segment 1 holds one 1,024-row window with 76 rows pending, and
        each lane keeps a running summary of one size, agent lane or not,
        which folding the last 76 rows leaves as it is: 0 B per folded row."""
        lanes = [
            (2600, 1, "schedutil"),
            (1500, 1, "conservative"),
            (2600, 1, "next"),
            (1500, 1, "schedutil"),
        ]
        batch, _, _ = self.fold_run(lanes, monkeypatch)
        recorder = batch.recorder
        first, second = recorder._segments
        assert first.floats is None and first.times is None
        blocks = (
            second.times,
            second.floats,
            second.ints,
            second.group_ints,
            second.interaction,
            second.targets,
        )
        # Per row: two lanes at 112 B, one agent lane's target, one demand
        # group at 14 B and the row time.
        assert sum(block.nbytes for block in blocks) == 1024 * (2 * 112 + 8 + 14 + 8)
        assert second.filled - second.folded == 76
        lanes = [recorder._lanes[device] for device in range(4)]
        assert [lane.rows for lane in lanes] == [2524, 1500, 2524, 1500]
        kept = [summary_state_bytes(lane) for lane in lanes]
        assert len(set(kept)) == 1
        batch.device_recorder(0)
        assert second.floats is None
        assert [lane.rows for lane in lanes] == [2600, 1500, 2600, 1500]
        assert [summary_state_bytes(lane) for lane in lanes] == kept

    def test_summary_state_does_not_grow_with_rows(self, monkeypatch):
        """1,025 rows and 8,193 rows keep running summaries of one size; only
        the FPS histogram gains entries, at most one per FPS value a
        one-second window can show."""
        batch, _, _ = self.fold_run(
            [(1025, 1, "schedutil"), (8193, 1, "schedutil")], monkeypatch
        )
        batch.device_recorder(0)
        short, long = (batch.recorder._lanes[device] for device in range(2))
        assert (short.rows, long.rows) == (1025, 8193)
        assert summary_state_bytes(short) == summary_state_bytes(long)
        refresh = int(batch.platform.display_refresh_hz)
        assert set(long.fps_counts) <= {float(k) for k in range(refresh + 1)}

    def test_summary_bytes_equal_scalar_at_window_edges(self, monkeypatch):
        """Lanes of 1, 1,023, 1,024, 1,025 and 2,049 rows on cadences 1, 2 and
        3, two of them agent lanes, ending in different windows: each
        summary's ``repr`` equals the scalar run's, so every float matches
        bit for bit, ``-0.0`` included."""
        lanes = [
            (1, 1, "schedutil"),
            (2046, 2, "conservative"),
            (3072, 3, "schedutil"),
            (1025, 1, "next"),
            (4098, 2, "next"),
        ]
        batch, trace, _ = self.fold_run(lanes, monkeypatch)
        platform = make_platform("exynos9810")
        rows = []
        for lane, spec in enumerate(lanes):
            config, governor, duration_s = fold_lane_setup(lane, *spec)
            simulation = Simulation(platform, governor, config)
            simulation.run(TracePlayer(trace), duration_s=duration_s)
            recorder = batch.device_recorder(lane)
            assert repr(recorder.summary()) == repr(simulation.recorder.summary())
            rows.append(len(recorder))
        assert rows == [1, 1023, 1024, 1025, 2049]

    def test_summary_equals_scalar_under_the_other_sum_family(self, monkeypatch):
        """The recorder's ``sum`` becomes the CPython loop of the family this
        interpreter lacks, and the fold takes that family's branch: averages
        and energy move, and each lane still equals its scalar run."""
        import repro.sim.recorder as recorder

        other = not recorder._SUM_COMPENSATES
        lanes = [
            (1, 1, "schedutil"),
            (2046, 2, "conservative"),
            (1025, 1, "next"),
            (2049, 1, "schedutil"),
        ]
        platform = make_platform("exynos9810")
        monkeypatch.setattr(recorder, "_SUM_COMPENSATES", other)
        monkeypatch.setattr(
            recorder, "sum", partial(cpython_sum, compensated=other), raising=False
        )
        batch, trace, _ = self.fold_run(lanes, monkeypatch)
        moved = 0
        for lane, spec in enumerate(lanes):
            config, governor, duration_s = fold_lane_setup(lane, *spec)
            simulation = Simulation(platform, governor, config)
            simulation.run(TracePlayer(trace), duration_s=duration_s)
            expected = repr(simulation.recorder.summary())
            assert repr(batch.device_recorder(lane).summary()) == expected
            with monkeypatch.context() as running:
                running.delattr(recorder, "sum")
                moved += repr(simulation.recorder.summary()) != expected
        assert moved > 0

    def test_a_read_between_runs_keeps_its_summary(self):
        """A homogeneous batch with an agent lane runs 1,025 ticks, is read,
        and runs 1,024 more: the first read keeps the 1,025-row summary, and
        a second read gives the 2,049-row one, both as the scalar split run's
        byte for byte."""
        platform = make_platform("exynos9810")
        trace = record_session_trace(
            [SessionSegment("facebook", 40.0)], platform=platform, seed=11
        )
        lanes = [(0, "next"), (1, "conservative")]

        def setups():
            return [fold_lane_setup(lane, 0, 1, name)[:2] for lane, name in lanes]

        configs, governors = zip(*setups())
        batch = BatchSimulation(platform, governors, configs)
        players = [TracePlayer(trace) for _ in lanes]
        halves = (1025 / platform.display_refresh_hz, 1024 / platform.display_refresh_hz)
        batch.run(players, duration_s=halves[0])
        first = [batch.device_recorder(lane) for lane, _ in lanes]
        batch.run(players, duration_s=halves[1])
        for (lane, _), (config, governor) in zip(lanes, setups()):
            simulation = Simulation(platform, governor, config)
            player = TracePlayer(trace)
            simulation.run(player, duration_s=halves[0])
            assert len(first[lane]) == 1025
            assert repr(first[lane].summary()) == repr(simulation.recorder.summary())
            simulation.run(player, duration_s=halves[1])
            second = batch.device_recorder(lane)
            assert len(second) == 2049
            assert repr(second.summary()) == repr(simulation.recorder.summary())

    def test_folded_lane_keeps_no_samples(self):
        """Reading rows from a folded lane raises instead of returning a part."""
        batch = hetero_batch("exynos9810", "schedutil", NIID_LANES)
        recorder = batch.device_recorder(0)
        reads = (
            lambda: recorder.samples,
            lambda: recorder.column("fps"),
            lambda: recorder.resample(1.0),
            lambda: recorder.temperature_series("big"),
            lambda: recorder.frequency_series("big"),
        )
        for read in reads:
            with pytest.raises(ValueError, match=r"scalar kernel"):
                read()

    def test_bench_smoke_batch_rows_fold_nothing_inside_run(self, monkeypatch):
        """The fast benchmark profile replays fewer rows than a window, so
        none of its timed batch runs, the gated N=256 rows among them,
        folds inside ``run()``: they time the same work as before the fold."""
        import importlib.util

        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "run_benchmarks.py"
        )
        spec = importlib.util.spec_from_file_location("run_benchmarks", path)
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        sitting = harness.Sitting("fast", 1)
        assert len(sitting.trace) < _HASH_CHUNK_ROWS
        runs = []
        run_batch = sitting.run_batch

        def counted_run(n, duration_s):
            folds = []
            monkeypatch.setattr(
                BatchRecorder, "_fold_window", lambda *args: folds.append(args)
            )
            run_batch(n, duration_s)
            runs.append((n, len(folds)))

        monkeypatch.setattr(sitting, "run_batch", counted_run)
        harness.batch_kernel(sitting)
        harness.batch_hetero(sitting)
        widest = max(harness.MASKED_WIDTHS)
        assert runs.count((widest, 0)) == 2  # the uniform and the masked row
        assert all(folds == 0 for _, folds in runs)


class TestUnrecordedBatch:
    """``record=False``, as on the scalar kernel: nothing is recorded."""

    def test_record_false_allocates_no_blocks_and_steps_the_same_lanes(
        self, monkeypatch
    ):
        platform = make_platform("exynos9810")

        def agents(record):
            configs = [
                SimulationConfig(
                    refresh_hz=platform.display_refresh_hz, duration_s=2.0, seed=lane
                )
                for lane in range(3)
            ]
            governors = [make_governor("next", seed=lane) for lane in range(3)]
            batch = BatchSimulation(platform, governors, configs, record=record)
            batch.run(
                [make_app("facebook", seed=lane) for lane in range(3)],
                duration_s=[1.0, 2.0, 2.0],
            )
            return batch, [governor.agent.to_dict() for governor in governors]

        recorded, trained = agents(True)
        assert len(recorded.device_recorder(0)) == 60

        def refuse(*args):
            raise AssertionError("an unrecorded batch recorded")

        monkeypatch.setattr(BatchRecorder, "begin_segment", refuse)
        monkeypatch.setattr(BatchRecorder, "append_tick", refuse)
        unrecorded, unrecorded_trained = agents(False)
        assert unrecorded_trained == trained
        assert unrecorded.recorder._segments == [] and len(unrecorded.recorder) == 0
        assert len(unrecorded.device_recorder(1)) == 0


class TestTraceGroups:
    """Lanes replaying one trace object from one position share a decode.

    Groups form by trace object and position, never by content: twin traces
    with equal content stay apart, and so does a player advanced before the
    run.  Every lane must still equal its own scalar run, and every player
    must end where its own ``tick`` calls would have left it.
    """

    def test_grouped_lanes_match_their_scalar_runs(self):
        """The shared group mixes agent and agent-free lanes on two cadences."""
        platform = make_platform("exynos9810")
        dt = 1.0 / platform.display_refresh_hz
        segments = [SessionSegment("facebook", 1.0), SessionSegment("spotify", 1.0)]
        shared = record_session_trace(segments, platform=platform, seed=3)
        twin = record_session_trace(segments[:1], platform=platform, seed=5)
        twin_copy = WorkloadTrace.from_json(twin.to_json())
        assert twin_copy is not twin and twin_copy.to_json() == twin.to_json()

        def advanced():
            player = TracePlayer(shared)
            for _ in range(30):
                player.tick(dt)
            return player

        # (workload factory, duration_s, governor, record_every_n_ticks);
        # ``shared`` lasts 2 s, so the 2.5 s lane replays exhausted ticks at
        # the end.
        lanes = [
            (lambda: TracePlayer(shared), 1.0, "schedutil", 1),
            (lambda: TracePlayer(shared), 2.0, "conservative", 1),
            (lambda: TracePlayer(shared), 1.5, "int_qos_pm", 1),
            (lambda: TracePlayer(shared), 2.5, "conservative", 1),
            (lambda: TracePlayer(shared), 2.0, "next", 1),
            (lambda: TracePlayer(shared), 1.5, "schedutil", 2),
            (lambda: TracePlayer(twin), 1.0, "schedutil", 1),
            (lambda: TracePlayer(twin_copy), 1.0, "conservative", 1),
            (advanced, 1.0, "schedutil", 1),
            (lambda: make_app("lineage", seed=9), 1.5, "conservative", 1),
        ]

        def config(lane, duration_s, every):
            return SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=duration_s,
                seed=100 + lane,
                record_every_n_ticks=every,
            )

        def governor(lane, name):
            if name == "next":
                return make_governor(name, seed=lane)
            return make_governor(name)

        workloads = [make() for make, _, _, _ in lanes]
        batch = BatchSimulation(
            platform,
            [governor(lane, name) for lane, (_, _, name, _) in enumerate(lanes)],
            [
                config(lane, duration, every)
                for lane, (_, duration, _, every) in enumerate(lanes)
            ],
        )
        batch.run(workloads, duration_s=[duration for _, duration, _, _ in lanes])
        # Each segment's demand group per lane, as the recorder stores it.
        # The 2.5 s lane outlives its 2 s trace, so it reads a recording of
        # its own, as do the advanced player and the live app.
        assert [segment.group_of for segment in batch.recorder._segments] == [
            {0: 0, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 2, 7: 3, 8: 4, 9: 5},
            {1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 9: 2},
            {1: 0, 3: 1, 4: 0},
            {3: 0},
        ]
        for lane, (make, duration_s, governor_name, every) in enumerate(lanes):
            workload = make()
            simulation = Simulation(
                platform,
                governor(lane, governor_name),
                config(lane, duration_s, every),
            )
            simulation.run(workload, duration_s=duration_s)
            assert (
                batch.device_recorder(lane).content_hash()
                == simulation.recorder.content_hash()
            ), f"lane {lane} diverged"
            if isinstance(workload, TracePlayer):
                assert workloads[lane]._index == workload._index, lane
        assert workloads[3].exhausted

    @pytest.mark.parametrize("shared", ["player", "app"])
    def test_one_workload_object_for_two_lanes_is_refused(self, shared):
        """Such a workload would be stepped for both lanes, which no scalar
        run does; the batch refuses it before any tick runs."""
        platform = make_platform("exynos9810")
        trace = record_session_trace(
            [SessionSegment("facebook", 1.0)], platform=platform, seed=1
        )
        if shared == "player":
            workload = TracePlayer(trace)
        else:
            workload = make_app("spotify", seed=2)
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=1.0, seed=lane
            )
            for lane in range(3)
        ]
        batch = BatchSimulation(
            platform, [make_governor("schedutil") for _ in configs], configs
        )
        with pytest.raises(ValueError, match="of its own"):
            batch.run([workload, TracePlayer(trace), workload])
        assert batch.tick_count == 0 and len(batch.recorder) == 0
        if shared == "player":
            assert workload._index == 0
        else:
            assert workload.time_s == 0.0


#: Apps for the live-demand property: the idle home screen, a feed, a
#: music player and a game.
LIVE_APPS = ("home", "facebook", "spotify", "lineage")


@given(
    lanes=st.lists(
        st.tuples(
            st.sampled_from(LIVE_APPS),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=90),
            st.sampled_from(("schedutil", "conservative", "next")),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=12, deadline=None)
def test_live_lanes_equal_players_over_their_recordings(lanes):
    """Live and replayed demand take one path through the batch kernel.

    Each lane is ``(app, seed, ticks, governor)``.  The live batch records
    every app before the run, one trace per lane.  The replay batch gives
    lanes of one app and seed players over one shared recording, so they
    form one demand group.  Every lane's stream must be the same.
    """
    platform = make_platform("exynos9810")
    dt_s = 1.0 / platform.display_refresh_hz

    def lane_hashes(workloads):
        configs = [
            SimulationConfig(refresh_hz=platform.display_refresh_hz, seed=lane)
            for lane in range(len(lanes))
        ]
        governors = [
            make_governor(name, seed=lane) if name == "next" else make_governor(name)
            for lane, (_, _, _, name) in enumerate(lanes)
        ]
        batch = BatchSimulation(platform, governors, configs)
        batch.run(workloads, duration_s=[ticks * dt_s for _, _, ticks, _ in lanes])
        return [
            batch.device_recorder(lane).content_hash() for lane in range(len(lanes))
        ]

    live = lane_hashes([make_app(app, seed=seed) for app, seed, _, _ in lanes])
    longest = {}
    for app, seed, ticks, _ in lanes:
        longest[app, seed] = max(ticks, longest.get((app, seed), 0))
    recordings = {
        key: TraceRecorder.record_app(make_app(key[0], seed=key[1]), ticks * dt_s, dt_s)
        for key, ticks in longest.items()
    }
    replayed = lane_hashes(
        [TracePlayer(recordings[app, seed]) for app, seed, _, _ in lanes]
    )
    assert live == replayed


class _FrameBurst:
    """A workload that demands ``frames`` frames on its first tick, then none."""

    def __init__(self, frames: int) -> None:
        self.frames = frames
        self.time_s = 0.0

    def tick(self, dt_s: float) -> TickWorkload:
        demand = TickWorkload(
            time_s=self.time_s,
            app_name="burst",
            phase_name="burst",
            frames=[FrameSpec(1.0, 1.0)] * self.frames,
            background_work_mwu={},
            interaction_activity=0.0,
        )
        self.frames = 0
        self.time_s += dt_s
        return demand


class TestRecorderBlocks:
    """Each lane-row holds only what its digest reads, at its exact width."""

    def test_block_bytes_per_lane_row_and_group_row(self):
        """exynos9810: 112 B per lane-row, 8 more per agent lane-row, 14 per
        group-row, in blocks of ``min(rows, 1024)`` rows.  Two segments:
        four lanes replay one trace, two more run apps of their own, one
        agent lane among them ends first."""
        platform = make_platform("exynos9810")
        trace = record_session_trace(
            [SessionSegment("facebook", 2.0)], platform=platform, seed=1
        )
        governors = [
            make_governor(name, seed=0) if name == "next" else make_governor(name)
            for name in (
                "schedutil",
                "conservative",
                "next",
                "powersave",
                "int_qos_pm",
                "schedutil",
            )
        ]
        durations = [2.0, 2.0, 1.0, 2.0, 2.0, 2.0]
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=duration, seed=lane
            )
            for lane, duration in enumerate(durations)
        ]
        batch = BatchSimulation(platform, governors, configs)
        workloads = [TracePlayer(trace) for _ in range(4)] + [
            make_app("spotify", seed=4),
            make_app("lineage", seed=5),
        ]
        batch.run(workloads, duration_s=durations)
        segments = batch.recorder._segments
        assert [len(segment.column_of) for segment in segments] == [6, 5]
        for segment, agents in zip(segments, (1, 0)):
            rows = min(len(segment.ticks), _HASH_CHUNK_ROWS)
            assert rows == segment.filled
            lanes = len(segment.column_of)
            groups = len(set(segment.group_of.values()))
            assert groups == 3
            lane_bytes = (
                segment.floats.nbytes + segment.ints.nbytes + segment.targets.nbytes
            )
            group_bytes = segment.group_ints.nbytes + segment.interaction.nbytes
            assert lane_bytes == rows * (112 * lanes + 8 * agents)
            assert group_bytes == rows * 14 * groups

    def test_frame_counts_beyond_int16_raise_instead_of_wrapping(self):
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=0.5, seed=lane
            )
            for lane in range(2)
        ]
        batch = BatchSimulation(
            platform, [make_governor("schedutil") for _ in configs], configs
        )
        with pytest.raises(ValueError, match="int16"):
            batch.run([_FrameBurst(40_000), make_app("facebook", seed=1)])

    def test_tables_beyond_int16_raise(self):
        platform = make_platform("exynos9810")
        configs = [SimulationConfig(refresh_hz=platform.display_refresh_hz)]
        recorder = BatchSimulation(
            platform, [make_governor("schedutil")], configs
        ).recorder
        names = [f"app{index}" for index in range(40_000)]
        with pytest.raises(ValueError, match="int16"):
            recorder._codes(names, names)
        with pytest.raises(ValueError, match="int16"):
            BatchRecorder(
                1, 21.0, "big", ("big",), ("big",), [1], [0.0] * 40_000, [[0]]
            )


class TestBatchProfiler:
    """The batch loop buckets the scalar engine's stages, hashes untouched."""

    @staticmethod
    def lane_hashes(governor_names, duration_s=2.0):
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=duration_s,
                seed=device,
            )
            for device in range(len(governor_names))
        ]
        batch = BatchSimulation(
            platform, [make_governor(name) for name in governor_names], configs
        )
        batch.run(
            [
                SessionWorkload(FIGURE1_SESSION.segments, seed=device)
                for device in range(len(governor_names))
            ],
            duration_s=duration_s,
        )
        return [
            batch.device_recorder(device).content_hash()
            for device in range(len(governor_names))
        ]

    def test_profiled_batch_records_every_stage(self):
        """Both governor routes: conservative invokes, schedutil updates."""
        governors = ("conservative", "schedutil")
        bare = self.lane_hashes(governors)
        with profiled(stride=1) as profiler:
            hot = self.lane_hashes(governors)
        called = {
            stage
            for stage, stats in profiler.snapshot()["stages"].items()
            if stats["calls"] > 0
        }
        assert called == set(STAGES)
        assert hot == bare

    def test_workload_stage_samples_per_tick_demand_reads(self):
        """At stride 32, a 5 s lane samples ``workload`` from its 300
        per-tick demand reads, not only from its one demand entry."""
        platform = make_platform("exynos9810")
        config = SimulationConfig(
            refresh_hz=platform.display_refresh_hz, duration_s=5.0, seed=0
        )
        batch = BatchSimulation(platform, [make_governor("schedutil")], [config])
        with profiled(stride=32) as profiler:
            batch.run([make_app("facebook", seed=0)])
        workload = profiler.snapshot()["stages"]["workload"]
        assert workload["calls"] == 301
        assert workload["sampled"] == 9

    def test_stages_cover_the_thermal_step_and_the_rates(self, monkeypatch):
        """As on the scalar route, power_thermal holds the whole SoC step
        (power, heat, Euler step, throttle) and pipeline holds the rates."""
        import repro.sim.batch as batch_module
        from repro.graphics.pipeline import BatchFramePipeline
        from repro.obs.profile import HotLoopProfiler
        from repro.soc.thermal import ThermalNetwork

        active = []

        class StageRecorder(HotLoopProfiler):
            def wrap(self, stage, fn):
                def staged(*args, **kwargs):
                    active.append(stage)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        active.pop()

                return staged

        seen = {"euler": [], "rates": []}
        euler = ThermalNetwork.euler_substep_batch
        rates = BatchFramePipeline.batch_rates

        def spy_euler(network, *args):
            seen["euler"].append(tuple(active))
            return euler(network, *args)

        def spy_rates(pipeline, *args):
            seen["rates"].append(tuple(active))
            return rates(pipeline, *args)

        monkeypatch.setattr(ThermalNetwork, "euler_substep_batch", spy_euler)
        monkeypatch.setattr(BatchFramePipeline, "batch_rates", spy_rates)
        monkeypatch.setattr(batch_module, "active_profiler", StageRecorder)
        self.lane_hashes(("conservative", "schedutil"), duration_s=0.5)
        assert seen["euler"] and set(seen["euler"]) == {("power_thermal",)}
        assert seen["rates"] and set(seen["rates"]) == {("pipeline",)}
