"""In-memory spans around each layer's public functions, and the layer split.

:func:`install` replaces a fixed set of public functions and methods of the
``repro`` package with wrappers that record one span per call: its kind,
start, end, the span that was open when it began, and a small payload
(lanes, ticks, a trace key, ...).  Spans stay in memory until the run ends.
Pool workers forked from the traced interpreter inherit the wrappers; an
after-fork hook gives each worker an empty log, and the worker writes its spans
to ``<spans_dir>/spans-<pid>.json`` when it exits.

A span's *self time* is its duration minus the durations of its child spans
(calls in one thread are sequential, so children never overlap).  Every
wall-second of the orchestrator lands in the self time of exactly one span;
the self time of the root ``SweepRunner.run`` spans is what no layer claims,
reported as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.util
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Span record layout: [kind, start, end, parent index or -1, payload].
KIND, START, END, PARENT, PAYLOAD = range(5)

ROOT = "runner.sweep"
#: Kinds that are pool work units when they open a span in a worker process.
WORKER_ENTRY_KINDS = (
    "runner.cell",
    "runner.cell_batch",
    "artifacts.train",
    "federated.round",
)


class SpanLog:
    """The spans of one process, plus the stack of currently open ones."""

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir
        self.spans: List[list] = []
        self.stack: List[int] = []

    def wrap(
        self, kind: str, function: Callable, payload: Optional[Callable] = None
    ) -> Callable:
        """``function`` with one span per call; ``payload(result, *args, **kw)``."""
        spans = self.spans
        stack = self.stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [kind, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if payload is not None:
                span[PAYLOAD] = payload(result, *args, **kwargs)
            return result

        return wrapper

    def start_worker(self) -> None:
        """After-fork hook: a pool worker starts empty and dumps at exit."""
        del self.spans[:]
        del self.stack[:]
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    def dump(self) -> None:
        """Write this process's spans for the orchestrator to collect."""
        path = os.path.join(self.spans_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


# -- payloads ----------------------------------------------------------------------------


def _trace_key(result, segments, platform=None, seed=0) -> str:
    apps = [[segment.app_name, segment.duration_s] for segment in segments]
    return json.dumps([apps, getattr(platform, "name", None), seed])


def _rows(result, recorder) -> int:
    return len(recorder)


def _batch_lanes_ticks(result, batch, workloads, duration_s=None) -> List[int]:
    devices = batch.devices
    if duration_s is None:
        durations = [device.config.duration_s for device in devices]
    elif isinstance(duration_s, (int, float)):
        durations = [float(duration_s)] * len(devices)
    else:
        durations = [float(value) for value in duration_s]
    ticks = sum(
        device.clock.ticks_for(duration) for device, duration in zip(devices, durations)
    )
    return [len(devices), ticks]


def _engine_ticks(result, trace, governor, platform=None, config=None) -> int:
    from repro.sim.clock import SimulationClock
    from repro.soc.platform import make_platform

    if config is not None:
        dt_s = config.dt_s
    else:
        dt_s = 1.0 / (platform or make_platform("exynos9810")).display_refresh_hz
    return SimulationClock(dt_s=dt_s).ticks_for(trace.duration_s)


def _cache_hit(result, cache, cell) -> bool:
    return result is not None


def _lane_count(result, cells, attempt=0) -> int:
    return len(cells)


# -- installation ------------------------------------------------------------------------


def _patch_function(log: SpanLog, module: Any, name: str, kind: str, payload=None) -> None:
    """Wrap ``module.name`` everywhere a ``repro`` module imported it by name."""
    original = getattr(module, name)
    wrapper = log.wrap(kind, original, payload)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.split(".")[0] != "repro" or loaded is None:
            continue
        if getattr(loaded, name, None) is original:
            setattr(loaded, name, wrapper)


def _patch_method(log: SpanLog, cls: type, name: str, kind: str, payload=None) -> None:
    setattr(cls, name, log.wrap(kind, cls.__dict__[name], payload))


def install(spans_dir: str) -> SpanLog:
    """Wrap every measured layer boundary; returns the orchestrator's log."""
    from repro.core.governor import NextGovernor
    from repro.experiments import artifacts, federated, runner
    from repro.sim import experiment
    from repro.sim.recorder import Recorder

    log = SpanLog(spans_dir)
    _patch_function(log, experiment, "record_session_trace", "trace.record", _trace_key)
    _patch_function(log, experiment, "run_trace", "engine.run_trace", _engine_ticks)
    _patch_method(log, Recorder, "content_hash", "recorder.hash", _rows)
    _patch_method(log, Recorder, "summary", "recorder.summary")
    _patch_method(log, NextGovernor, "update", "next.update")
    _patch_function(log, artifacts, "train_artifact", "artifacts.train")
    _patch_function(log, federated, "train_device_round", "federated.round")
    _patch_function(log, federated, "train_device_rounds_batched", "federated.round")
    _patch_function(log, federated, "train_fleet_artifact", "federated.fleet")
    _patch_method(log, federated.FleetBuild, "provide_round0", "federated.aggregate")
    _patch_method(log, federated.FleetBuild, "finish_round", "federated.aggregate")
    _patch_method(log, runner.ResultCache, "load", "runner.cache.load", _cache_hit)
    _patch_method(log, runner.ResultCache, "store", "runner.cache.store")
    _patch_function(log, runner, "execute_cell", "runner.cell")
    _patch_function(log, runner, "execute_cells_batched", "runner.cell_batch", _lane_count)
    # The orchestrator blocks here while pool workers compute.
    _patch_function(log, runner, "wait", "runner.pool.wait")
    _patch_method(log, runner.SweepRunner, "run", ROOT)
    try:
        from repro.sim.batch import BatchSimulation
        from repro.sim.recorder import BatchRecorder
    except ImportError:
        pass  # no NumPy, so no batch kernel to trace
    else:
        _patch_method(log, BatchSimulation, "run", "batch.run", _batch_lanes_ticks)
        _patch_method(log, BatchRecorder, "device_recorder", "batch.gather")
    # multiprocessing clears inherited finalizers in a new process before
    # it runs its after-fork hooks, so the dump is registered from one.
    multiprocessing.util.register_after_fork(log, SpanLog.start_worker)
    return log


def load_worker_spans(spans_dir: str) -> List[List[list]]:
    """Every worker's span list written by :meth:`SpanLog.dump`."""
    collected = []
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(spans_dir, name), "r", encoding="utf-8") as handle:
                collected.append(json.load(handle))
    return collected


# -- the layer split ---------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Duration minus child durations, per span of one process."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(share * len(sorted_values))) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def attribution(orchestrator: Sequence[list]) -> Dict[str, float]:
    """Orchestrator self time per span kind; the root's is ``unattributed``."""
    totals: Dict[str, float] = {}
    for span, own in zip(orchestrator, self_times(orchestrator)):
        totals[span[KIND]] = totals.get(span[KIND], 0.0) + own
    return totals


def layer_metrics(
    orchestrator: Sequence[list], workers: Sequence[Sequence[list]], pool_size: int
) -> Dict[str, float]:
    """Per-layer counts, self times and ratios over every process of one run.

    Self times and counts sum over the orchestrator and every pool worker;
    ``unattributed_s`` and the wall time are the orchestrator's.
    """
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    payloads: Dict[str, list] = {}
    next_us: List[float] = []
    batched_cells = 0
    fallbacks = 0
    pool_tasks = 0
    worker_busy_s = 0.0
    for process_index, spans in enumerate([orchestrator, *workers]):
        owns = self_times(spans)
        has_scalar_child = set()
        for span in spans:
            if span[KIND] == "runner.cell" and span[PARENT] >= 0:
                has_scalar_child.add(span[PARENT])
        for index, (span, own) in enumerate(zip(spans, owns)):
            kind = span[KIND]
            self_s[kind] = self_s.get(kind, 0.0) + own
            calls[kind] = calls.get(kind, 0) + 1
            payloads.setdefault(kind, []).append(span[PAYLOAD])
            if kind == "next.update":
                next_us.append((span[END] - span[START]) * 1e6)
            elif kind == "runner.cell_batch":
                if index in has_scalar_child:
                    fallbacks += 1
                else:
                    batched_cells += span[PAYLOAD]
            if process_index > 0 and span[PARENT] < 0 and kind in WORKER_ENTRY_KINDS:
                pool_tasks += 1
                worker_busy_s += span[END] - span[START]

    def s(kind: str) -> float:
        return self_s.get(kind, 0.0)

    def n(kind: str) -> int:
        return calls.get(kind, 0)

    wall_s = sum(span[END] - span[START] for span in orchestrator if span[KIND] == ROOT)
    batch_payloads = payloads.get("batch.run", [])
    loads = payloads.get("runner.cache.load", [])
    next_us.sort()
    return {
        "workloads.trace.calls": n("trace.record"),
        "workloads.trace.distinct": len(set(payloads.get("trace.record", []))),
        "workloads.trace.self_s": s("trace.record"),
        "sim.recorder.hash_calls": n("recorder.hash"),
        "sim.recorder.hash_self_s": s("recorder.hash"),
        "sim.recorder.hash_ticks_per_s": _ratio(
            sum(payloads.get("recorder.hash", [])), s("recorder.hash")
        ),
        "sim.recorder.summary_self_s": s("recorder.summary"),
        "sim.batch.calls": n("batch.run"),
        "sim.batch.lanes_mean": _ratio(
            sum(lanes for lanes, _ in batch_payloads), len(batch_payloads)
        ),
        "sim.batch.self_s": s("batch.run"),
        "sim.batch.device_ticks_per_s": _ratio(
            sum(ticks for _, ticks in batch_payloads), s("batch.run")
        ),
        "sim.batch.gather_calls": n("batch.gather"),
        "sim.batch.gather_self_s": s("batch.gather"),
        "sim.engine.calls": n("engine.run_trace"),
        "sim.engine.self_s": s("engine.run_trace"),
        "sim.engine.ticks_per_s": _ratio(
            sum(payloads.get("engine.run_trace", [])), s("engine.run_trace")
        ),
        "governors.next.decisions": n("next.update"),
        "governors.next.decision_us_p50": _percentile(next_us, 0.50),
        "governors.next.decision_us_p99": _percentile(next_us, 0.99),
        "experiments.artifacts.trained": n("artifacts.train"),
        "experiments.artifacts.train_self_s": s("artifacts.train"),
        "experiments.federated.rounds": n("federated.aggregate"),
        "experiments.federated.round_self_s": s("federated.round"),
        "experiments.federated.fleet_self_s": s("federated.fleet")
        + s("federated.aggregate"),
        "experiments.runner.cache.store_self_s": s("runner.cache.store"),
        "experiments.runner.cache.load_self_s": s("runner.cache.load"),
        "experiments.runner.cache.hit_frac": _ratio(sum(loads), len(loads)),
        "experiments.runner.cell_self_s": s("runner.cell") + s("runner.cell_batch"),
        "experiments.runner.cells_scalar": n("runner.cell"),
        "experiments.runner.cells_batched": batched_cells,
        "experiments.runner.batch_fallbacks": fallbacks,
        "experiments.runner.pool.tasks": pool_tasks,
        "experiments.runner.pool.wait_s": s("runner.pool.wait"),
        "experiments.runner.pool.worker_busy_s": worker_busy_s,
        "experiments.runner.pool.idle_frac": (
            1.0 - worker_busy_s / (pool_size * wall_s) if pool_tasks else 0.0
        ),
        "unattributed_s": attribution(orchestrator).get(ROOT, 0.0),
    }
