"""Observability layer: tracing, metrics, progress, profiling, report, export.

The load-bearing contract is the one the chaos and golden suites also
pin: **observability never perturbs results**.  Every simulation-touching
test here compares ``sample_stream_hash`` between an instrumented run and
a bare one.  On top of that the suite pins the trace file format (schema
versioning, torn-tail tolerance, the ``.bad`` quarantine idiom on merge),
cross-process span stitching (pool workers parent their spans to the
orchestrator's sweep span through ``REPRO_TRACE``), the progress
tracker's first-delivery accounting, and the report / Chrome-export
surfaces that ``repro-sweep report`` exposes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.distributed import (
    RemainingCost,
    merge_shards,
    plan_shards,
    run_shard,
    shard_directory,
    shard_status,
)
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import CellResult, SweepRunner
from repro.obs.export import chrome_trace_events, export_chrome_trace, first_span_named
from repro.obs.metrics import MetricsRegistry, merge_snapshots, metrics, reset_metrics
from repro.obs.profile import (
    HotLoopProfiler,
    active_profiler,
    deactivate_profiling,
    profiled,
)
from repro.obs.progress import ProgressTracker
from repro.obs.report import build_span_tree, render_text, report_payload
from repro.obs.trace import (
    TRACE_BASENAME,
    TRACE_ENV,
    TRACE_SCHEMA_VERSION,
    Tracer,
    TraceSink,
    activate_tracing,
    deactivate_tracing,
    maybe_span,
    merge_traces,
    read_trace,
    traced,
    tracing_active,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Tracing/metrics/profiling are process-global; isolate every test."""
    deactivate_tracing()
    deactivate_profiling()
    reset_metrics()
    yield
    deactivate_tracing()
    deactivate_profiling()
    reset_metrics()


def small_matrix() -> ScenarioMatrix:
    """2 governors x 2 workloads x 1 seed, ~3 s cells: fast and untrained."""
    return ScenarioMatrix.build(
        name="obs-small",
        governors=("schedutil", "powersave"),
        apps=("facebook", "spotify"),
        seeds=(0,),
        duration_s=3.0,
    )


def cell_hashes(sweep) -> dict:
    assert not sweep.failures, sweep.failures and sweep.failures[0].error
    return {
        result.cell.fingerprint(): result.summary["sample_stream_hash"]
        for result in sweep.results
    }


def span_events(events, name=None):
    found = [event for event in events if event.get("kind") == "span"]
    if name is not None:
        found = [event for event in found if event.get("name") == name]
    return found


# ---------------------------------------------------------------------------
# Trace file format: round trip, schema versioning, torn tails
# ---------------------------------------------------------------------------

class TestTraceFormat:
    def test_span_event_metrics_round_trip(self, tmp_path):
        path = str(tmp_path / TRACE_BASENAME)
        tracer = Tracer(TraceSink(path))
        with tracer.span("sweep", matrix="demo") as outer:
            with tracer.span("cell", fingerprint="abc") as inner:
                tracer.event("retry", classification="transient")
            outer.note("done", 1)
        tracer.flush_metrics({"counters": {"cache.hits": 2.0}})

        events, torn = read_trace(path)
        assert torn == 0
        header = events[0]
        assert header["kind"] == "header"
        assert header["schema"] == TRACE_SCHEMA_VERSION
        assert header["pid"] == os.getpid()

        # Spans append on *close*, so the inner cell span lands first.
        cell = span_events(events, "cell")[0]
        sweep = span_events(events, "sweep")[0]
        assert cell["parent"] == sweep["span"]
        assert sweep["parent"] is None
        assert sweep["attrs"] == {"matrix": "demo", "done": 1}
        assert sweep["end_s"] >= sweep["start_s"]

        retry = [e for e in events if e.get("kind") == "event"][0]
        assert retry["name"] == "retry"
        assert retry["parent"] == cell["span"]  # fired while the cell was open

        footer = [e for e in events if e.get("kind") == "metrics"][0]
        assert footer["metrics"]["counters"]["cache.hits"] == 2.0

    def test_newer_schema_header_raises(self, tmp_path):
        path = str(tmp_path / "future.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"kind": "header", "schema": TRACE_SCHEMA_VERSION + 1})
                + "\n"
            )
        with pytest.raises(ValueError, match="newer than supported"):
            read_trace(path)

    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / TRACE_BASENAME)
        tracer = Tracer(TraceSink(path))
        with tracer.span("sweep"):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "name": "trunc')  # killed mid-append

        events, torn = read_trace(path)
        assert torn == 1
        assert span_events(events, "sweep")  # intact prefix still parses

    def test_worker_inherits_sink_and_root_from_env(self, tmp_path, monkeypatch):
        """maybe_span resolves the env like a pool worker would."""
        path = str(tmp_path / TRACE_BASENAME)
        monkeypatch.setenv(
            TRACE_ENV, TraceSink(path, root="feed-da-5:1").to_json()
        )
        assert tracing_active()
        with maybe_span("cell", fingerprint="abc") as span:
            assert span is not None
        events, _ = read_trace(path)
        assert span_events(events, "cell")[0]["parent"] == "feed-da-5:1"

    def test_maybe_span_is_noop_without_env(self, tmp_path):
        assert not tracing_active()
        with maybe_span("cell") as span:
            assert span is None
        assert not os.path.exists(str(tmp_path / TRACE_BASENAME))

    def test_activate_exports_and_deactivate_clears_env(self, tmp_path):
        path = str(tmp_path / TRACE_BASENAME)
        activate_tracing(path)
        assert json.loads(os.environ[TRACE_ENV])["path"] == path
        deactivate_tracing()
        assert TRACE_ENV not in os.environ
        assert not tracing_active()


class TestMergeTraces:
    def test_merges_shard_traces_into_one_file(self, tmp_path):
        sources = []
        for index in range(2):
            path = str(tmp_path / f"shard{index}.jsonl")
            tracer = Tracer(TraceSink(path))
            with tracer.span("shard_run", shard=index):
                pass
            sources.append(path)
        destination = str(tmp_path / "merged.jsonl")

        counters = merge_traces(sources, destination)
        assert counters == {
            "sources": 2,
            "events": 4,  # header + shard_run span per source
            "torn_lines": 0,
            "quarantined": 0,
        }
        events, torn = read_trace(destination)
        assert torn == 0
        assert len(span_events(events, "shard_run")) == 2

    def test_wholly_torn_source_is_quarantined_as_bad(self, tmp_path):
        good = str(tmp_path / "good.jsonl")
        tracer = Tracer(TraceSink(good))
        with tracer.span("shard_run"):
            pass
        dead = str(tmp_path / "dead.jsonl")
        with open(dead, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")

        counters = merge_traces(
            [good, dead, str(tmp_path / "missing.jsonl")],
            str(tmp_path / "merged.jsonl"),
        )
        assert counters["sources"] == 1
        assert counters["quarantined"] == 1
        assert not os.path.exists(dead)
        assert os.path.exists(dead + ".bad")  # evidence kept for post-mortems


# ---------------------------------------------------------------------------
# Instrumented sweeps: span stitching + the never-perturb invariant
# ---------------------------------------------------------------------------

class TestTracedSweeps:
    def test_pooled_sweep_builds_one_tree_across_processes(self, tmp_path, batch_route):
        matrix = small_matrix()
        path = str(tmp_path / TRACE_BASENAME)
        with traced(path):
            sweep = SweepRunner(max_workers=2).run(matrix)
        assert not sweep.failures

        events, torn = read_trace(path)
        assert torn == 0

        # fork()ed pool workers must NOT write through the orchestrator's
        # inherited tracer: every process gets its own id prefix (no span-id
        # collisions) and stamps its own pid.
        spans = span_events(events)
        span_ids = [span["span"] for span in spans]
        assert len(span_ids) == len(set(span_ids))
        assert len({event["pid"] for event in events}) >= 2

        roots = build_span_tree(events)
        assert [root["name"] for root in roots] == ["sweep"]
        (root,) = roots

        # Every cell span is stitched under the orchestrator's sweep span,
        # whether it ran scalar in a worker or as a batch-kernel lane.
        def collect(node, name):
            found = [node] if node["name"] == name else []
            for child in node["children"]:
                found.extend(collect(child, name))
            return found

        cells = collect(root, "cell")
        assert len(cells) == len(matrix.cells())
        assert {cell["attrs"]["fingerprint"] for cell in cells} == {
            cell.fingerprint() for cell in matrix.cells()
        }
        assert all(cell["attrs"]["status"] == "ok" for cell in cells)

        # The orchestrator flushed one cumulative metrics footer.
        footers = [e for e in events if e.get("kind") == "metrics"]
        assert any(e["pid"] == os.getpid() for e in footers)

        # Deactivation restored the environment for the next run.
        assert not tracing_active()

    def test_tracing_does_not_perturb_results(self, tmp_path):
        matrix = small_matrix()
        bare = cell_hashes(SweepRunner(max_workers=1).run(matrix))
        with traced(str(tmp_path / TRACE_BASENAME)):
            traced_pool = cell_hashes(SweepRunner(max_workers=2).run(matrix))
        with traced(str(tmp_path / "scalar" / TRACE_BASENAME)):
            traced_scalar = cell_hashes(SweepRunner(max_workers=1).run(matrix))
        assert traced_pool == bare
        assert traced_scalar == bare

    @pytest.mark.parametrize("workers", [1, 2])
    def test_merged_counters_count_each_cell_once(self, tmp_path, workers):
        # A forked pool worker starts with an empty registry: its per-task
        # footers must not ship the orchestrator's counters a second time.
        matrix = small_matrix()
        path = str(tmp_path / TRACE_BASENAME)
        with traced(path):
            cell_hashes(SweepRunner(max_workers=workers).run(matrix))
        events, _ = read_trace(path)
        counters = report_payload(events)["metrics"]["counters"]
        assert counters["cache.miss"] == len(matrix.cells())

    def test_sharded_traces_merge_with_bit_identity(self, tmp_path):
        matrix = small_matrix()
        manifest = plan_shards(matrix, 2)
        base = str(tmp_path)
        for index in range(manifest.shard_count):
            shard_dir = shard_directory(base, index)
            with traced(os.path.join(shard_dir, TRACE_BASENAME)):
                sweep = run_shard(manifest, index, shard_dir)
            assert not sweep.failures
            status = shard_status(manifest, index, shard_dir)
            assert status.state == "complete"
            assert status.quarantined == 0

        dest = os.path.join(base, "merged")
        merged, counters = merge_shards(
            manifest,
            [shard_directory(base, i) for i in range(manifest.shard_count)],
            dest,
        )
        assert cell_hashes(merged) == cell_hashes(SweepRunner(max_workers=1).run(matrix))

        # The merge folded both shard traces next to the merged cache.
        assert counters["trace_events"] > 0
        assert counters["trace_quarantined"] == 0
        merged_trace = os.path.join(dest, TRACE_BASENAME)
        events, _ = read_trace(merged_trace)
        shard_spans = span_events(events, "shard_run")
        assert {span["attrs"]["shard"] for span in shard_spans} == {0, 1}
        assert len(span_events(events, "cell")) == len(matrix.cells())
        # run_shard's tracker appended per-delivery progress events.
        assert [e for e in events if e.get("kind") == "event" and e["name"] == "progress"]

    def test_shard_status_carries_metrics_snapshot(self, tmp_path):
        matrix = small_matrix()
        manifest = plan_shards(matrix, 2)
        shard_dir = shard_directory(str(tmp_path), 0)
        metrics().inc("cache.misses", 3.0)
        run_shard(manifest, 0, shard_dir)
        with open(os.path.join(shard_dir, "shard-status.json")) as handle:
            payload = json.load(handle)
        assert payload["quarantined"] == 0
        assert payload["metrics"]["counters"]["cache.misses"] >= 3.0


# ---------------------------------------------------------------------------
# Hot-loop profiler
# ---------------------------------------------------------------------------

class TestProfiler:
    def test_rejects_zero_stride(self):
        with pytest.raises(ValueError):
            HotLoopProfiler(stride=0)

    def test_wrap_times_every_strideth_call(self):
        profiler = HotLoopProfiler(stride=3)
        wrapped = profiler.wrap("scaler", lambda x: x * 2)
        assert [wrapped(i) for i in range(6)] == [0, 2, 4, 6, 8, 10]
        snapshot = profiler.snapshot()
        assert snapshot["stride"] == 3
        assert snapshot["stages"]["scaler"]["calls"] == 6
        assert snapshot["stages"]["scaler"]["sampled"] == 2
        assert snapshot["stages"]["scaler"]["wall_s"] >= 0.0

    def test_profiled_run_is_bit_identical_and_buckets_stages(self):
        matrix = small_matrix()
        bare = cell_hashes(SweepRunner(max_workers=1).run(matrix))
        with profiled(stride=4) as profiler:
            hot = cell_hashes(SweepRunner(max_workers=1).run(matrix))
        assert hot == bare

        snapshot = profiler.snapshot()
        sampled_stages = {
            stage
            for stage, stats in snapshot["stages"].items()
            if stats["sampled"] > 0
        }
        # The hot loop drove real work through the profiled stage seams.
        assert {"power_thermal", "scaler", "recorder"} <= sampled_stages
        assert active_profiler() is None  # the context manager deactivated

    def test_workload_stage_samples_per_tick_demand_reads(self):
        """At stride 32, a 5 s run samples ``workload`` from its 300
        per-tick demand reads, not only from its one demand entry."""
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import Simulation
        from repro.sim.experiment import make_governor
        from repro.soc.platform import make_platform
        from repro.workloads.apps import make_app

        platform = make_platform("exynos9810")
        config = SimulationConfig(
            refresh_hz=platform.display_refresh_hz, duration_s=5.0, seed=0
        )
        with profiled(stride=32) as profiler:
            Simulation(platform, make_governor("schedutil"), config).run(
                make_app("facebook", seed=0)
            )
        workload = profiler.snapshot()["stages"]["workload"]
        assert workload["calls"] == 301
        assert workload["sampled"] == 9

    def test_profile_lands_in_trace_footer(self, tmp_path):
        path = str(tmp_path / TRACE_BASENAME)
        with traced(path):
            with profiled(stride=2):
                SweepRunner(max_workers=1).run(small_matrix())
        events, _ = read_trace(path)
        payload = report_payload(events)
        assert payload["profile"] is not None
        assert payload["profile"]["stride"] == 2
        assert payload["profile"]["stages"]["power_thermal"]["sampled"] > 0


# ---------------------------------------------------------------------------
# Progress accounting
# ---------------------------------------------------------------------------

class TestProgressTracker:
    def make(self, workers=1, emit=False):
        cells = small_matrix().cells()
        costs = RemainingCost({cell.fingerprint(): 10.0 for cell in cells})
        return cells, ProgressTracker(costs, workers=workers, emit=emit)

    def test_counters_bump_only_on_first_delivery(self):
        cells, tracker = self.make()
        tracker.note(1, 4, CellResult(cell=cells[0], status="ok", summary={}))
        tracker.note(
            2, 4, CellResult(cell=cells[1], status="ok", summary={}, from_cache=True)
        )
        # Duplicate-fingerprint expansions deliver the same cell twice.
        tracker.note(3, 4, CellResult(cell=cells[0], status="ok", summary={}))
        assert tracker.completed_total == 2
        assert tracker.cached_total == 1
        assert tracker.failed_total == 0

    def test_retries_accumulate_and_permanent_failures_quarantine(self):
        cells, tracker = self.make()
        lineage = [{"classification": "transient"}, {"classification": "transient"}]
        event = tracker.note(
            1,
            4,
            CellResult(cell=cells[0], status="ok", summary={}, attempts=lineage),
        )
        assert event.attempts == 2
        assert ", 2 retries" in event.format_line()
        tracker.note(
            2,
            4,
            CellResult(
                cell=cells[1],
                status="error",
                error="boom",
                error_kind="permanent",
                attempts=[{"classification": "permanent"}],
            ),
        )
        assert tracker.retries_total == 3
        assert tracker.quarantined_total == 1
        assert tracker.failed_total == 1

    def test_eta_divides_by_effective_parallelism(self):
        cells, tracker = self.make(workers=8)
        event = tracker.note(
            1, 4, CellResult(cell=cells[0], status="ok", summary={})
        )
        # 30 s outstanding over 3 cells: 8 workers clamp to 3.
        assert event.eta_s == pytest.approx(10.0)
        assert "~10.0s left" in event.format_line()
        assert "retries" not in event.format_line()

    def test_emits_progress_events_into_active_trace(self, tmp_path):
        path = str(tmp_path / TRACE_BASENAME)
        cells = small_matrix().cells()
        costs = RemainingCost({cell.fingerprint(): 10.0 for cell in cells})
        with traced(path):
            tracker = ProgressTracker(costs, workers=1, emit=True)
            tracker.note(1, 4, CellResult(cell=cells[0], status="ok", summary={}))
        events, _ = read_trace(path)
        (progress,) = [e for e in events if e.get("kind") == "event"]
        assert progress["name"] == "progress"
        assert progress["attrs"]["done"] == 1
        assert progress["attrs"]["total"] == 4


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_registry_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("retry.transient")
        registry.inc("retry.transient", 2.0)
        registry.set_gauge("batch.device_ticks_per_s", 100.0)
        registry.set_gauge("batch.device_ticks_per_s", 250.0)
        for value in (4.0, 1.0, 7.0):
            registry.observe("batch.lane_occupancy", value)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"retry.transient": 3.0}
        assert snapshot["gauges"] == {"batch.device_ticks_per_s": 250.0}
        assert snapshot["histograms"]["batch.lane_occupancy"] == {
            "count": 3,
            "sum": 12.0,
            "min": 1.0,
            "max": 7.0,
        }
        registry.reset()
        assert registry.empty()

    def test_merge_snapshots_sums_counters_keeps_last_gauge(self):
        first = {
            "counters": {"cache.hits": 2.0},
            "gauges": {"ticks_per_s": 10.0},
            "histograms": {"occ": {"count": 1, "sum": 3.0, "min": 3.0, "max": 3.0}},
        }
        second = {
            "counters": {"cache.hits": 1.0, "retry.transient": 4.0},
            "gauges": {"ticks_per_s": 20.0},
            "histograms": {"occ": {"count": 2, "sum": 9.0, "min": 1.0, "max": 8.0}},
        }
        merged = merge_snapshots([first, None, second])
        assert merged["counters"] == {"cache.hits": 3.0, "retry.transient": 4.0}
        assert merged["gauges"] == {"ticks_per_s": 20.0}
        assert merged["histograms"]["occ"] == {
            "count": 3,
            "sum": 12.0,
            "min": 1.0,
            "max": 8.0,
        }


# ---------------------------------------------------------------------------
# Report and Chrome export
# ---------------------------------------------------------------------------

def synthetic_events():
    """A two-process trace: orchestrator sweep + one worker cell, a retry,
    an orphaned span and two metrics footers."""
    return [
        {"kind": "header", "schema": 1, "pid": 10},
        {
            "kind": "span",
            "name": "cell",
            "span": "b:1",
            "parent": "a:1",
            "start_s": 1.0,
            "end_s": 2.5,
            "pid": 11,
            "attrs": {"label": "facebook/schedutil", "status": "ok"},
        },
        {
            "kind": "event",
            "name": "retry",
            "parent": "b:1",
            "wall_s": 1.5,
            "pid": 11,
            "attrs": {"classification": "transient"},
        },
        {
            "kind": "span",
            "name": "sweep",
            "span": "a:1",
            "parent": None,
            "start_s": 0.5,
            "end_s": 3.0,
            "pid": 10,
            "attrs": {"matrix": "demo"},
        },
        {
            "kind": "span",
            "name": "orphan",
            "span": "c:1",
            "parent": "gone:9",
            "start_s": 2.0,
            "end_s": 2.1,
            "pid": 12,
            "attrs": {},
        },
        {"kind": "metrics", "pid": 11, "metrics": {"counters": {"cache.hits": 1.0}}},
        {"kind": "metrics", "pid": 10, "metrics": {"counters": {"cache.hits": 2.0}}},
    ]


class TestReport:
    def test_span_tree_stitches_and_keeps_orphans_as_roots(self):
        roots = build_span_tree(synthetic_events())
        assert [root["name"] for root in roots] == ["sweep", "orphan"]
        sweep = roots[0]
        assert [child["name"] for child in sweep["children"]] == ["cell"]

    def test_report_payload_aggregates_across_processes(self):
        payload = report_payload(synthetic_events(), torn_lines=1)
        assert payload["events"] == 7
        assert payload["torn_lines"] == 1
        assert payload["processes"] == [10, 11, 12]
        assert len(payload["retries"]) == 1
        # Worker + orchestrator footers sum.
        assert payload["metrics"]["counters"]["cache.hits"] == 3.0
        assert payload["profile"] is None

    def test_render_text_shows_tree_retries_and_metrics(self):
        text = render_text(synthetic_events(), torn_lines=1)
        assert "7 events from 3 process(es), 1 torn line(s) skipped" in text
        assert "facebook/schedutil" in text
        assert "[1 retries]" in text
        assert "status=ok" in text
        assert "cache.hits = 3" in text
        # The cell renders indented one level under the sweep.
        lines = text.splitlines()
        sweep_line = next(line for line in lines if "sweep" in line)
        cell_line = next(line for line in lines if "cell" in line)
        assert len(cell_line) - len(cell_line.lstrip()) > len(sweep_line) - len(
            sweep_line.lstrip()
        )

    def test_first_span_named(self):
        events = synthetic_events()
        assert first_span_named(events, "sweep")["span"] == "a:1"
        assert first_span_named(events, "missing") is None


class TestChromeExport:
    def test_spans_become_complete_events_rebased_to_zero(self):
        document = chrome_trace_events(synthetic_events())
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 3
        assert len(instants) == 1
        sweep = next(e for e in complete if e["name"] == "sweep")
        assert sweep["ts"] == 0.0  # earliest event rebases the timeline
        assert sweep["dur"] == pytest.approx(2.5e6)
        cell = next(e for e in complete if e["name"] == "cell")
        assert cell["ts"] == pytest.approx(0.5e6)
        assert cell["pid"] == 11
        assert cell["args"]["span"] == "b:1"
        assert instants[0]["ts"] == pytest.approx(1.0e6)

    def test_export_writes_loadable_json(self, tmp_path):
        path = str(tmp_path / "trace.chrome.json")
        export_chrome_trace(synthetic_events(), path)
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"]
        assert all("ph" in event for event in document["traceEvents"])
