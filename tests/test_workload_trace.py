"""Unit tests for workload trace recording, serialisation and replay."""

import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics.pipeline import FrameSpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.sim.experiment import make_governor, record_session_trace
from repro.soc.platform import exynos9810
from repro.workloads.app import TickWorkload
from repro.workloads.apps import make_app
from repro.workloads.session import SessionSegment
from repro.workloads.trace import TracePlayer, TraceRecorder, WorkloadTrace

VSYNC = 1.0 / 60.0


class TestTraceRecording:
    def test_record_app_length_and_duration(self):
        trace = TraceRecorder.record_app(make_app("facebook", seed=1), 10.0, VSYNC)
        assert len(trace) == int(round(10.0 / VSYNC))
        assert trace.duration_s == pytest.approx(10.0, abs=0.1)
        assert trace.total_frames_demanded > 0

    def test_record_segments_concatenates_apps(self):
        segments = [SessionSegment("home", 5.0), SessionSegment("spotify", 5.0)]
        trace = TraceRecorder.record_segments(segments, dt_s=VSYNC, seed=3)
        assert trace.app_names() == ["home", "spotify"]
        # Times are monotonically non-decreasing across the segment boundary.
        times = [tick.time_s for tick in trace]
        assert times == sorted(times)

    def test_record_app_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            TraceRecorder.record_app(make_app("home"), 0.0, VSYNC)

    def test_same_seed_same_trace(self):
        a = TraceRecorder.record_segments([SessionSegment("facebook", 5.0)], VSYNC, seed=7)
        b = TraceRecorder.record_segments([SessionSegment("facebook", 5.0)], VSYNC, seed=7)
        assert a.total_frames_demanded == b.total_frames_demanded


class TestTraceSerialisation:
    def test_json_round_trip(self):
        trace = TraceRecorder.record_app(make_app("home", seed=2), 3.0, VSYNC)
        restored = WorkloadTrace.from_json(trace.to_json())
        assert len(restored) == len(trace)
        assert restored.dt_s == trace.dt_s
        assert restored.total_frames_demanded == trace.total_frames_demanded
        assert restored[0].app_name == trace[0].app_name

    def test_dict_round_trip_preserves_frame_work(self):
        trace = TraceRecorder.record_app(make_app("lineage", seed=2), 2.0, VSYNC)
        restored = WorkloadTrace.from_dict(trace.to_dict())
        original_work = sum(f.gpu_work_mwu for t in trace for f in t.frames)
        restored_work = sum(f.gpu_work_mwu for t in restored for f in t.frames)
        assert restored_work == pytest.approx(original_work)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            WorkloadTrace(dt_s=0.0)


class TestTracePlayer:
    def test_replays_in_order(self):
        trace = TraceRecorder.record_app(make_app("home", seed=4), 2.0, VSYNC)
        player = TracePlayer(trace)
        replayed = [player.tick(VSYNC) for _ in range(len(trace))]
        assert [t.frame_count for t in replayed] == [t.frame_count for t in trace]
        assert player.exhausted

    def test_exhausted_player_emits_empty_demand(self):
        trace = TraceRecorder.record_app(make_app("home", seed=4), 1.0, VSYNC)
        player = TracePlayer(trace)
        for _ in range(len(trace)):
            player.tick(VSYNC)
        extra = player.tick(VSYNC)
        assert extra.frame_count == 0
        assert extra.phase_name == "exhausted"

    def test_wrong_dt_rejected(self):
        trace = TraceRecorder.record_app(make_app("home", seed=4), 1.0, VSYNC)
        player = TracePlayer(trace)
        with pytest.raises(ValueError):
            player.tick(0.5)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TracePlayer(WorkloadTrace(dt_s=VSYNC))

    def test_reset(self):
        trace = TraceRecorder.record_app(make_app("home", seed=4), 1.0, VSYNC)
        player = TracePlayer(trace)
        first = player.tick(VSYNC)
        player.reset()
        again = player.tick(VSYNC)
        assert first.frame_count == again.frame_count


#: A NaN with a payload: its bits differ from ``math.nan``'s, its repr not.
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
#: Values whose exact bits a trace must keep: signed zeros, non-finite
#: values, subnormals and a few repeated ordinary ones.
SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, math.nan, PAYLOAD_NAN, 5e-324, 2.2250738585072e-310,
    1.5, 0.1,
)
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
#: Frame work must be non-negative (FrameSpec refuses the rest).
work = st.one_of(
    st.sampled_from((0.0, -0.0, math.inf, math.nan, 5e-324, 4.0)),
    st.floats(min_value=0.0),
)
backgrounds = st.dictionaries(
    st.sampled_from(("big", "little", "gpu")),
    st.sampled_from(SPECIAL_FLOATS),
    max_size=3,
)


@st.composite
def trace_dicts(draw):
    """A :meth:`WorkloadTrace.to_dict` document with drawn ticks."""
    ticks = [
        {
            "time_s": draw(floats),
            "app_name": draw(st.sampled_from(("home", "facebook", "o'neil", "é"))),
            "phase_name": draw(st.sampled_from(("idle", "scroll", "exhausted"))),
            "interaction_activity": draw(floats),
            "frames": draw(st.lists(st.lists(work, min_size=2, max_size=2), max_size=4)),
            "background_work_mwu": draw(backgrounds),
        }
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    return {"dt_s": draw(st.sampled_from((VSYNC, 1.0 / 90.0, 0.5))), "ticks": ticks}


def expected_tick(entry):
    return TickWorkload(
        time_s=entry["time_s"],
        app_name=entry["app_name"],
        phase_name=entry["phase_name"],
        frames=[FrameSpec(cpu, gpu) for cpu, gpu in entry["frames"]],
        background_work_mwu=entry["background_work_mwu"],
        interaction_activity=entry["interaction_activity"],
    )


def as_plain(tick):
    """``tick`` with its read-only background mapping as a plain dict."""
    return dataclasses.replace(
        tick, background_work_mwu=dict(tick.background_work_mwu)
    )


class TestColumnarTrace:
    @given(data=trace_dicts())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_and_replay_keep_every_field(self, data):
        trace = WorkloadTrace.from_dict(data)
        assert trace.to_json() == json.dumps(data)
        expected = [repr(expected_tick(entry)) for entry in data["ticks"]]
        player = TracePlayer(trace)
        replayed = [as_plain(player.tick(data["dt_s"])) for _ in data["ticks"]]
        assert [repr(tick) for tick in replayed] == expected
        assert [repr(as_plain(tick)) for tick in trace] == expected
        assert trace.total_frames_demanded == sum(
            len(entry["frames"]) for entry in data["ticks"]
        )
        assert trace.app_names() == list(
            dict.fromkeys(entry["app_name"] for entry in data["ticks"])
        )

    def test_background_table_keeps_exact_bits(self):
        trace = WorkloadTrace(dt_s=VSYNC)
        for value in (0.0, -0.0, math.nan, PAYLOAD_NAN, 0.0, math.nan):
            trace.append(TickWorkload(0.0, "home", "idle", [], {"big": value}, 0.0))
        assert len(trace.backgrounds) == 4
        assert list(trace.background_codes) == [0, 1, 2, 3, 0, 2]
        assert repr(trace[1].background_work_mwu["big"]) == "-0.0"

    def test_replay_hands_out_the_shared_read_only_mapping(self):
        trace = TraceRecorder.record_app(make_app("facebook", seed=1), 2.0, VSYNC)
        first, second = trace[0], trace[0]
        assert first.background_work_mwu is second.background_work_mwu
        with pytest.raises(TypeError):
            first.background_work_mwu["big"] = 1.0
        assert 1 <= len(trace.backgrounds) <= 8

    def test_session_trace_json_is_pinned(self):
        trace = record_session_trace(
            [SessionSegment("facebook", 10.0), SessionSegment("spotify", 5.0)],
            exynos9810(),
            seed=7,
        )
        digest = hashlib.sha256(trace.to_json().encode("utf-8")).hexdigest()
        assert digest == (
            "e12f13fa0ffa2dce051a63bf1ed27f179c9fddda301c2df68669162fef74451b"
        )

    def test_a_90_s_trace_retains_at_most_400_kb(self):
        segments = [SessionSegment("facebook", 90.0)]
        # Warm-up: imports and per-process caches are not the trace's.
        record_session_trace([SessionSegment("facebook", 1.0)], exynos9810(), seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = record_session_trace(segments, exynos9810(), seed=0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 5400
        assert retained <= 400 * 1024


class TestOneDemandPath:
    """A live workload and a replay of its recording run the same demand.

    The kernels read every tick from trace columns: a live workload is
    recorded before the run, and a player hands out its own trace.  So a
    live app's run and a run of a player over that app's recording must
    record the same stream.  The batch kernel's counterpart is
    ``test_live_lanes_equal_players_over_their_recordings``.
    """

    @given(
        app=st.sampled_from(("home", "facebook", "spotify", "lineage")),
        seed=st.integers(min_value=0, max_value=10_000),
        ticks=st.integers(min_value=1, max_value=120),
        governor=st.sampled_from(("schedutil", "conservative", "next")),
    )
    @settings(max_examples=15, deadline=None)
    def test_live_run_equals_the_replay_of_its_recording(
        self, app, seed, ticks, governor
    ):
        platform = exynos9810()
        config = SimulationConfig(refresh_hz=platform.display_refresh_hz, seed=seed)
        duration_s = ticks * config.dt_s

        def run(workload):
            kwargs = {"seed": seed} if governor == "next" else {}
            simulation = Simulation(platform, make_governor(governor, **kwargs), config)
            simulation.run(workload, duration_s=duration_s)
            return simulation.recorder.content_hash()

        trace = TraceRecorder.record_app(
            make_app(app, seed=seed), duration_s, config.dt_s
        )
        assert run(make_app(app, seed=seed)) == run(TracePlayer(trace))
