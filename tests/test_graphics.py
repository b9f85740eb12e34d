"""Unit tests for the display pipeline: VSync, buffering, rendering, FPS."""

import pytest

from repro.graphics.display import Display, FpsCounter
from repro.graphics.pipeline import FramePipeline, FrameQueue, FrameSpec, PipelineConfig
from repro.graphics.vsync import VsyncClock
from repro.soc.platform import exynos9810


# ---------------------------------------------------------------------------
# VSync clock
# ---------------------------------------------------------------------------

class TestVsyncClock:
    def test_period_at_60hz(self):
        clock = VsyncClock(refresh_hz=60.0)
        assert clock.period_s == pytest.approx(1.0 / 60.0)

    def test_edges_are_consumed_once(self):
        clock = VsyncClock(refresh_hz=60.0)
        first = clock.edges_until(0.1)
        second = clock.edges_until(0.1)
        assert len(first) == 6
        assert second == []

    def test_edges_spacing(self):
        clock = VsyncClock(refresh_hz=60.0)
        edges = clock.edges_until(0.05)
        assert edges[0] == pytest.approx(1.0 / 60.0)
        for a, b in zip(edges, edges[1:]):
            assert b - a == pytest.approx(1.0 / 60.0)

    def test_reset(self):
        clock = VsyncClock(refresh_hz=60.0)
        clock.edges_until(1.0)
        clock.reset()
        assert clock.next_edge_s == pytest.approx(1.0 / 60.0)

    def test_rejects_bad_refresh(self):
        with pytest.raises(ValueError):
            VsyncClock(refresh_hz=0.0)


# ---------------------------------------------------------------------------
# Frame queue
# ---------------------------------------------------------------------------

class TestFrameQueue:
    def test_rejects_zero_back_buffers(self):
        with pytest.raises(ValueError):
            FrameQueue(max_pending_frames=1, back_buffer_count=0)
        with pytest.raises(ValueError):
            FramePipeline(back_buffer_count=0)


# ---------------------------------------------------------------------------
# FPS counter / display
# ---------------------------------------------------------------------------

class TestFpsCounter:
    def test_counts_over_window(self):
        counter = FpsCounter(window_s=1.0)
        for i in range(60):
            counter.record(i / 60.0, 1)
        assert counter.fps(1.0) == pytest.approx(60.0, abs=2.0)

    def test_old_events_expire(self):
        counter = FpsCounter(window_s=1.0)
        counter.record(0.0, 30)
        assert counter.fps(0.5) == 30.0
        assert counter.fps(2.0) == 0.0

    def test_reset(self):
        counter = FpsCounter()
        counter.record(0.0, 10)
        counter.reset()
        assert counter.fps(0.1) == 0.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            FpsCounter(window_s=0.0)
        counter = FpsCounter()
        with pytest.raises(ValueError):
            counter.record(0.0, -1)


class TestDisplay:
    def test_fps_capped_at_refresh(self):
        display = Display(refresh_hz=60.0)
        for i in range(120):
            display.record_tick(i / 60.0, 2)  # absurd 120 fps input
        assert display.current_fps(2.0) == 60.0

    def test_totals(self):
        display = Display()
        display.record_tick(0.0, 1, 0)
        display.record_tick(0.1, 0, 2)
        assert display.total_frames == 1
        assert display.total_drops == 2
        display.reset()
        assert display.total_frames == 0


# ---------------------------------------------------------------------------
# Frame pipeline
# ---------------------------------------------------------------------------

@pytest.fixture
def clusters():
    return exynos9810().build_clusters()


VSYNC = 1.0 / 60.0


def run_pipeline(pipeline, clusters, frame, ticks, per_tick_demand=1):
    """Drive the pipeline for a number of ticks with a constant demand."""
    displayed = 0
    dropped = 0
    for _ in range(ticks):
        result = pipeline.tick(VSYNC, clusters, [frame] * per_tick_demand)
        displayed += result.frames_displayed
        dropped += result.frames_dropped
    return displayed, dropped


class TestFramePipeline:
    def test_light_frames_hit_60fps_at_max_frequency(self, clusters):
        pipeline = FramePipeline()
        frame = FrameSpec(cpu_work_mwu=10.0, gpu_work_mwu=20.0)
        displayed, dropped = run_pipeline(pipeline, clusters, frame, ticks=120)
        assert displayed >= 110  # ~60 fps over 2 seconds (minus pipeline fill)
        assert dropped == 0

    def test_low_frequency_cannot_sustain_heavy_frames(self, clusters):
        for cluster in clusters.values():
            cluster.set_frequency_index(0)
        pipeline = FramePipeline()
        frame = FrameSpec(cpu_work_mwu=55.0, gpu_work_mwu=120.0)
        displayed, dropped = run_pipeline(pipeline, clusters, frame, ticks=120)
        assert displayed < 80
        assert dropped > 0

    def test_throughput_scales_with_gpu_frequency(self, clusters):
        heavy_gpu = FrameSpec(cpu_work_mwu=10.0, gpu_work_mwu=140.0)
        clusters["gpu"].set_frequency_index(0)
        slow, _ = run_pipeline(FramePipeline(), clusters, heavy_gpu, ticks=120)
        clusters["gpu"].set_frequency_index(5)
        fast, _ = run_pipeline(FramePipeline(), clusters, heavy_gpu, ticks=120)
        assert fast > slow

    def test_no_demand_produces_no_frames(self, clusters):
        pipeline = FramePipeline()
        result = pipeline.tick(VSYNC, clusters, [])
        assert result.frames_displayed == 0
        assert result.frames_dropped == 0
        assert all(u == pytest.approx(0.0) for u in result.utilisations.values())

    def test_background_work_raises_utilisation(self, clusters):
        pipeline = FramePipeline()
        idle = pipeline.tick(VSYNC, clusters, [], background_work_mwu={})
        busy = pipeline.tick(VSYNC, clusters, [], background_work_mwu={"big": 100.0})
        assert busy.utilisations["big"] > idle.utilisations["big"]

    def test_utilisation_bounded(self, clusters):
        pipeline = FramePipeline()
        result = pipeline.tick(
            VSYNC,
            clusters,
            [FrameSpec(500.0, 500.0)],
            background_work_mwu={"big": 1e9, "little": 1e9, "gpu": 1e9},
        )
        for value in result.utilisations.values():
            assert 0.0 <= value <= 1.0

    def test_saturation_rejects_excess_demand(self, clusters):
        for cluster in clusters.values():
            cluster.set_frequency_index(0)
        pipeline = FramePipeline()
        frame = FrameSpec(cpu_work_mwu=80.0, gpu_work_mwu=200.0)
        total_rejected = 0
        for _ in range(60):
            result = pipeline.tick(VSYNC, clusters, [frame, frame])
            total_rejected += result.frames_dropped
        assert total_rejected > 0

    def test_frames_in_flight_and_reset(self, clusters):
        pipeline = FramePipeline()
        pipeline.tick(VSYNC, clusters, [FrameSpec(500.0, 500.0)])
        assert pipeline.frames_in_flight > 0
        pipeline.reset()
        assert pipeline.frames_in_flight == 0
        assert pipeline.time_s == 0.0

    def test_work_attribution_sums_to_frame_work(self, clusters):
        pipeline = FramePipeline()
        frame = FrameSpec(cpu_work_mwu=30.0, gpu_work_mwu=40.0)
        result = pipeline.tick(VSYNC, clusters, [frame])
        cpu_done = result.work_done_mwu["big"] + result.work_done_mwu["little"]
        assert cpu_done <= 30.0 + 1e-6
        assert result.work_done_mwu["gpu"] <= 40.0 + 1e-6

    def test_invalid_dt(self, clusters):
        with pytest.raises(ValueError):
            FramePipeline().tick(0.0, clusters, [])

    def test_frame_spec_validation(self):
        with pytest.raises(ValueError):
            FrameSpec(cpu_work_mwu=-1.0, gpu_work_mwu=0.0)

    def test_pipeline_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(ui_big_cores=0.0, ui_little_cores=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(gpu_core_fraction=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(max_pending_frames=0)

    def test_vsync_misses_reported_separately(self, clusters):
        pipeline = FramePipeline()
        # Demand only 1 frame; later vsync edges with nothing new are misses,
        # not drops.
        results = [pipeline.tick(VSYNC, clusters, [FrameSpec(5.0, 5.0)])]
        for _ in range(3):
            results.append(pipeline.tick(VSYNC, clusters, []))
        assert sum(r.frames_dropped for r in results) == 0
