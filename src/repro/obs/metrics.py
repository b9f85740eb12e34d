"""Process-wide metrics registry: counters, gauges and bounded histograms.

Counters accumulate (cache hits, retries by classification, faults
fired, watchdog reschedules, quarantined entries); gauges hold the last
written value, so they only make sense within one process; histograms
keep a bounded summary (count/sum/min/max) so observing per-segment lane
occupancy or per-batch device-ticks/s for a million batches costs four
floats, not a list, and merges across processes.

The registry is always on -- dict updates at per-cell frequency are
noise -- and is *flushed* only when tracing is active: into the run's
trace footer and into ``shard-status.json``.  Snapshots are plain JSON
documents; :func:`merge_snapshots` re-aggregates footers from several
processes or shards into one summary for the report CLI.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional


class MetricsRegistry:
    """Mutable counters/gauges/histograms for one process."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        summary = self.histograms.get(name)
        if summary is None:
            self.histograms[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
            return
        summary["count"] += 1
        summary["sum"] += value
        if value < summary["min"]:
            summary["min"] = value
        if value > summary["max"]:
            summary["max"] = value

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy with deterministically ordered keys."""
        return {
            "counters": {key: self.counters[key] for key in sorted(self.counters)},
            "gauges": {key: self.gauges[key] for key in sorted(self.gauges)},
            "histograms": {
                key: dict(self.histograms[key]) for key in sorted(self.histograms)
            },
        }

    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)


#: The process-wide registry; workers each have their own and flush it
#: into their trace footer, so the report sums across processes.
_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    return _registry


def reset_metrics() -> None:
    _registry.reset()


def merge_snapshots(snapshots: Iterable[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Aggregate footer snapshots: counters/histograms sum, gauges keep last."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in (snapshot.get("counters") or {}).items():
            merged.inc(name, value)
        for name, value in (snapshot.get("gauges") or {}).items():
            merged.set_gauge(name, value)
        for name, summary in (snapshot.get("histograms") or {}).items():
            existing = merged.histograms.get(name)
            if existing is None:
                merged.histograms[name] = dict(summary)
                continue
            existing["count"] += summary.get("count", 0)
            existing["sum"] += summary.get("sum", 0.0)
            existing["min"] = min(existing["min"], summary.get("min", existing["min"]))
            existing["max"] = max(existing["max"], summary.get("max", existing["max"]))
    return merged.snapshot()
