"""Render a run timeline and metrics summary from a ``trace.jsonl``.

The span events in a trace are flat, complete records (one line per
closed span, possibly from several processes and several merged shards).
:func:`build_span_tree` stitches them back into a forest by parent id --
worker spans hang off the orchestrator span they inherited through the
``REPRO_TRACE`` root -- and the text renderer draws the indented
timeline with durations, retry annotations and the batch route (each
batched group's lane count and predicted batch and scalar costs, each
batched lane's amortised share) that ``repro-sweep report`` prints.
Metrics footers from every process are re-aggregated through
:func:`repro.obs.metrics.merge_snapshots`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import merge_snapshots

#: Spans longer than this render with their duration highlighted first.
_TREE_INDENT = "  "


def build_span_tree(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Stitch flat span events into a forest of ``{.., "children": [..]}``.

    A span whose parent id never closed (the parent process was killed,
    or the parent lives in a shard trace that was not merged) becomes a
    root rather than being dropped: partial traces still render.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    order: List[Dict[str, Any]] = []
    for event in events:
        if event.get("kind") != "span":
            continue
        node = {
            "name": event.get("name", "?"),
            "span": event.get("span"),
            "parent": event.get("parent"),
            "start_s": event.get("start_s", 0.0),
            "end_s": event.get("end_s", 0.0),
            "pid": event.get("pid"),
            "attrs": event.get("attrs") or {},
            "children": [],
        }
        node["duration_s"] = (node["end_s"] or 0.0) - (node["start_s"] or 0.0)
        if node["span"] is not None:
            nodes[node["span"]] = node
        order.append(node)
    roots: List[Dict[str, Any]] = []
    for node in order:
        parent = nodes.get(node["parent"]) if node["parent"] else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in order:
        node["children"].sort(key=lambda child: (child["start_s"], str(child["span"])))
    roots.sort(key=lambda node: (node["start_s"], str(node["span"])))
    return roots


def collect_point_events(
    events: List[Dict[str, Any]], name: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Point events (retries, faults, progress), optionally by name."""
    found = [event for event in events if event.get("kind") == "event"]
    if name is not None:
        found = [event for event in found if event.get("name") == name]
    return found


def merged_metrics(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate every metrics footer in the trace into one snapshot."""
    return merge_snapshots(
        event.get("metrics") for event in events if event.get("kind") == "metrics"
    )


def merged_profile(events: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Sum profiler snapshots from every footer that carried one."""
    merged: Optional[Dict[str, Any]] = None
    for event in events:
        if event.get("kind") != "metrics" or "profile" not in event:
            continue
        profile = event["profile"]
        if merged is None:
            merged = {"stride": profile.get("stride", 1), "stages": {}}
        for stage, stats in (profile.get("stages") or {}).items():
            bucket = merged["stages"].setdefault(
                stage, {"calls": 0, "sampled": 0, "wall_s": 0.0}
            )
            bucket["calls"] += stats.get("calls", 0)
            bucket["sampled"] += stats.get("sampled", 0)
            bucket["wall_s"] += stats.get("wall_s", 0.0)
    return merged


def report_payload(
    events: List[Dict[str, Any]], torn_lines: int = 0
) -> Dict[str, Any]:
    """The machine-readable report (``repro-sweep report --format json``)."""
    spans = build_span_tree(events)
    retries = collect_point_events(events, "retry")
    return {
        "events": len(events),
        "torn_lines": torn_lines,
        "processes": sorted(
            {event["pid"] for event in events if "pid" in event}
        ),
        "spans": spans,
        "retries": retries,
        "metrics": merged_metrics(events),
        "profile": merged_profile(events),
    }


def _render_node(
    node: Dict[str, Any],
    retry_parents: Dict[str, int],
    depth: int,
    lines: List[str],
) -> None:
    attrs = node["attrs"]
    label = attrs.get("label") or attrs.get("matrix") or attrs.get("fingerprint")
    suffix = f" {label}" if label else ""
    retries = retry_parents.get(node["span"], 0)
    retry_note = f"  [{retries} retries]" if retries else ""
    status = attrs.get("status")
    status_note = f"  status={status}" if status else ""
    route_note = ""
    if "amortised_s" in attrs:
        # A batch-kernel lane: its span is closed at zero duration, and its
        # share of the batch's wall time rides along as an attribute.
        route_note = f"  amortised={attrs['amortised_s']:.3f}s"
    elif "predicted_batch_s" in attrs:
        route_note = (
            f"  lanes={attrs['lanes']} predicted batch="
            f"{attrs['predicted_batch_s']:.3f}s scalar="
            f"{attrs['predicted_scalar_s']:.3f}s"
        )
    lines.append(
        f"{_TREE_INDENT * depth}{node['name']:<14s} {node['duration_s']:8.3f}s"
        f"{suffix}{status_note}{route_note}{retry_note}"
    )
    for child in node["children"]:
        _render_node(child, retry_parents, depth + 1, lines)


def render_text(events: List[Dict[str, Any]], torn_lines: int = 0) -> str:
    """The human-readable report (``repro-sweep report``)."""
    payload = report_payload(events, torn_lines)
    retry_parents: Dict[str, int] = {}
    for event in payload["retries"]:
        parent = event.get("parent")
        if parent:
            retry_parents[parent] = retry_parents.get(parent, 0) + 1
    lines = [
        f"trace: {payload['events']} events from "
        f"{len(payload['processes'])} process(es)"
        + (f", {torn_lines} torn line(s) skipped" if torn_lines else ""),
        "",
        "span tree:",
    ]
    if payload["spans"]:
        for root in payload["spans"]:
            _render_node(root, retry_parents, 1, lines)
    else:
        lines.append(f"{_TREE_INDENT}(no spans)")
    metrics = payload["metrics"]
    counters: Dict[str, float] = metrics.get("counters", {})
    gauges: Dict[str, float] = metrics.get("gauges", {})
    histograms: Dict[str, Dict[str, float]] = metrics.get("histograms", {})
    if counters or gauges or histograms:
        lines.append("")
        lines.append("metrics:")
        for name, value in counters.items():
            lines.append(f"{_TREE_INDENT}{name} = {value:g}")
        for name, value in gauges.items():
            lines.append(f"{_TREE_INDENT}{name} = {value:g} (gauge)")
        for name, summary in histograms.items():
            count = summary.get("count", 0)
            mean = summary.get("sum", 0.0) / count if count else 0.0
            lines.append(
                f"{_TREE_INDENT}{name}: n={count:g} mean={mean:g} "
                f"min={summary.get('min', 0):g} max={summary.get('max', 0):g}"
            )
    profile = payload["profile"]
    if profile:
        lines.append("")
        lines.append(f"hot-loop profile (stride {profile.get('stride', 1)}):")
        stages: List[Tuple[str, Dict[str, Any]]] = sorted(
            (profile.get("stages") or {}).items(),
            key=lambda item: -item[1].get("wall_s", 0.0),
        )
        total = sum(stats.get("wall_s", 0.0) for _, stats in stages) or 1.0
        for stage, stats in stages:
            wall = stats.get("wall_s", 0.0)
            lines.append(
                f"{_TREE_INDENT}{stage:<14s} {wall:8.4f}s "
                f"({100.0 * wall / total:5.1f}%) over {stats.get('sampled', 0)} samples"
            )
    return "\n".join(lines)
