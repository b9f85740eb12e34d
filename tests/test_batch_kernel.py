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
import tracemalloc

import pytest

pytest.importorskip("numpy")  # the batch kernel is NumPy-backed

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profile import STAGES, profiled
from repro.sim.batch import BatchSimulation
from repro.sim.config import SimulationConfig
from repro.sim.engine import SessionWorkload, Simulation
from repro.sim.experiment import GOVERNOR_FACTORIES, make_governor
from repro.sim.recorder import sample_stream_hash
from repro.soc.platform import make_platform
from repro.workloads.apps import make_app
from repro.workloads.session import FIGURE1_SESSION

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
    return [
        sample_stream_hash(batch.device_recorder(device).samples)
        for device in range(n_devices)
    ]


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
            assert sample_stream_hash(
                batch.device_recorder(device).samples
            ) == sample_stream_hash(simulation.recorder.samples)


class TestBatchedFederatedRound:
    """The batched round scheduler returns exactly the scalar states."""

    def test_batched_device_round_states_match_scalar(self):
        from repro.core.agent import AgentConfig, NextAgent
        from repro.experiments.federated import (
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
        batched = train_device_rounds_batched(jobs)
        scalar = [train_device_round(*job) for job in jobs]
        assert batched == scalar

    def test_heterogeneous_jobs_rejected(self):
        from repro.core.agent import AgentConfig, NextAgent
        from repro.experiments.federated import train_device_rounds_batched

        state = json.loads(
            json.dumps(NextAgent(config=AgentConfig(), seed=0).to_dict())
        )
        jobs = [
            (state, ("facebook",), "exynos9810", 2, 2.0, 0, ()),
            (state, ("facebook",), "generic-two-cluster", 2, 2.0, 1, ()),
        ]
        with pytest.raises(ValueError, match="share platform"):
            train_device_rounds_batched(jobs)


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
    return [
        sample_stream_hash(batch.device_recorder(device).samples)
        for device in range(len(lanes))
    ]


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
    platform = make_platform(platform_name)
    config = SimulationConfig(
        refresh_hz=platform.display_refresh_hz,
        duration_s=lane["duration_s"],
        seed=lane["seed"],
        record_every_n_ticks=lane["record_every"],
    )
    simulation = Simulation(platform, make_governor(governor_name), config)
    simulation.run(
        make_app(lane["app"], seed=lane["seed"], intensity=lane["intensity"])
    )
    return sample_stream_hash(simulation.recorder.samples)


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
        assert sample_stream_hash(
            batch.device_recorder(0).samples
        ) == scalar_device_hash("exynos9810", "schedutil", 0, 5, 2.0)

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
    """``device_recorder`` slices lanes out of columns gathered once."""

    @given(order=st.permutations(range(len(NIID_LANES))))
    @settings(max_examples=4, deadline=None)
    def test_any_gather_order_returns_the_same_streams(self, order):
        """Mixed durations and cadences; every lane gathered, one twice."""
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)["niid_fleet"]["hashes"]
        batch = hetero_batch("exynos9810", "schedutil", NIID_LANES)
        streams = {}
        for device in [*order, order[0]]:
            recorder = batch.device_recorder(device)
            assert recorder.content_hash() == expected[device]
            assert sample_stream_hash(recorder.samples) == expected[device]
            streams.setdefault(device, []).append(recorder.samples)
        first, again = streams[order[0]]
        assert first == again

    def test_gather_between_runs_covers_rows_appended_later(self):
        """A homogeneous batch may run on after a gather."""
        platform = make_platform("exynos9810")
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz, duration_s=2.0, seed=device
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
        batch.run(workloads, duration_s=1.0)
        halfway = [batch.device_recorder(device).content_hash() for device in range(2)]
        batch.run(workloads, duration_s=1.0)
        for device in range(2):
            simulation = Simulation(
                platform, make_governor("schedutil"), configs[device]
            )
            workload = SessionWorkload(FIGURE1_SESSION.segments, seed=device)
            simulation.run(workload, duration_s=1.0)
            assert halfway[device] == simulation.recorder.content_hash()
            simulation.run(workload, duration_s=1.0)
            assert (
                batch.device_recorder(device).content_hash()
                == simulation.recorder.content_hash()
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
