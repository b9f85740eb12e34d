"""Distributed sweep sharding: plan, run and merge a matrix across machines.

A single machine saturates around ~10k smoke-shape cells (ROADMAP sizing:
~2 ms of wall time per simulated second per core), or much earlier when the
training axes dominate -- a federated fleet cell can cost hundreds of
simulated seconds of training before its evaluation even starts.  This
module turns one :class:`~repro.experiments.matrix.ScenarioMatrix` into N
independently runnable *shards* and merges their outputs back into a single
:class:`~repro.experiments.runner.SweepResult` that is bit-identical to an
unsharded run:

* :func:`plan_shards` partitions the cell list deterministically.  Cells are
  first grouped so every cell sharing a
  :class:`~repro.core.artifact.TrainingSpec` or
  :class:`~repro.core.federated.FleetSpec` lands on one shard (the spec then
  trains exactly once across the whole distributed sweep), then the groups
  are balanced across shards greedily by estimated cost.  The
  :class:`~repro.experiments.costs.CostModel` (re-exported here) prices
  cells and training from the committed ``BENCH_hotloop.json``
  per-simulated-second throughput numbers, so training-heavy cells weigh
  as much as they cost.  The plan freezes into a
  schema-versioned ``shard-manifest.json`` (matrix fingerprint, per-shard
  assignments, per-cell cost estimates).
* :func:`run_shard` executes one shard against its own cache/artifact/fleet
  directories through the ordinary :class:`~repro.experiments.runner
  .SweepRunner`, emitting a resumable ``shard-status.json``.  An interrupted
  shard simply re-runs: completed cells come back from its
  :class:`~repro.experiments.runner.ResultCache`.
* :func:`merge_shards` unions the shard caches and artifact/fleet stores
  into one directory and reconstructs the aggregate sweep result.
  Fingerprint-keyed entries make the union conflict-free *by construction*;
  the merge still verifies that same-fingerprint entries are
  content-identical (byte-identical up to wall-clock timing fields, which
  cannot affect results) and raises :class:`ShardMergeError` otherwise, so
  a corrupted or tampered shard can never silently poison the merged sweep.

Because every cell, artifact and fleet is a pure function of its
fingerprinted spec, running 1 shard or N shards on 1 machine or N machines
produces the same bytes -- the distributed parity suite pins per-cell
``sample_stream_hash`` equality between sharded and unsharded runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.persistence import EntryStore, atomic_write_json, quarantine_entry
from repro.core.seeding import canonical_fingerprint
from repro.obs.metrics import metrics
from repro.obs.progress import ProgressTracker
from repro.obs.trace import TRACE_BASENAME, maybe_span, merge_traces
from repro.reliability.clock import wall_now
from repro.reliability.retry import RetryPolicy
from repro.reliability.watchdog import WatchdogPolicy
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.costs import DEFAULT_COST_MODEL, CostModel
from repro.experiments.federated import FleetStore
from repro.experiments.matrix import ScenarioCell, ScenarioMatrix
from repro.experiments.runner import (
    CellResult,
    ProgressCallback,
    ResultCache,
    SweepResult,
    SweepRunner,
    default_artifact_dir,
)

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
    "STATUS_FILENAME",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "RemainingCost",
    "ShardManifest",
    "ShardMergeError",
    "ShardStatus",
    "amortised_cell_costs",
    "cell_group_key",
    "merge_shard_stores",
    "merge_shards",
    "load_merged_result",
    "plan_shards",
    "run_shard",
    "shard_directory",
    "shard_status",
]

#: Bumped whenever the manifest layout or the shard execution contract
#: changes, so a stale manifest can never drive a current worker.
MANIFEST_SCHEMA_VERSION = 1

#: Canonical file names inside a plan directory / shard directory.
MANIFEST_FILENAME = "shard-manifest.json"
STATUS_FILENAME = "shard-status.json"


class RemainingCost:
    """Shared "work still owed" accounting for ETAs and shard status files.

    One rule, used by every readout so they cannot disagree: each distinct
    cell fingerprint is priced once, its cost is released when its *first*
    delivery succeeds, and a failed delivery keeps the cost owed (error
    results are never cached, so a re-run retries the cell).  Running-total
    arithmetic keeps the per-delivery cost O(1) -- re-summing on every
    delivery would make sweep bookkeeping quadratic in cell count.
    """

    def __init__(self, costs: Mapping[str, float]) -> None:
        self._pending = dict(costs)
        self.remaining_s = sum(self._pending.values())

    @property
    def outstanding(self) -> int:
        """Cells not yet delivered at all (cached hits count as delivered).

        This is the number of cells that can still run concurrently, which is
        what an ETA should divide by: dividing the remaining cost by the full
        worker count overstates parallelism once fewer cells than workers are
        left (the classic long-tail underestimate).
        """
        return len(self._pending)

    def deliver(self, result: CellResult) -> bool:
        """Account one delivered result; ``True`` on the cell's first delivery."""
        cost = self._pending.pop(result.cell.fingerprint(), None)
        if cost is None:
            return False  # duplicate-fingerprint expansion: already priced
        if result.ok:
            self.remaining_s = max(0.0, self.remaining_s - cost)
        return True


def cell_group_key(cell: ScenarioCell) -> str:
    """The co-location key of one cell.

    Every cell sharing a training spec or fleet spec must land on one shard,
    so the spec trains exactly once across the whole distributed sweep
    (duplicate training would waste the dominant cost and, worse, produce
    same-fingerprint artifacts on several shards that the merge would then
    have to reconcile).  Untrained cells are their own singleton groups, so
    the balancer can place them freely.
    """
    fleet = cell.fleet_spec()
    if fleet is not None:
        return f"fleet:{fleet.fingerprint()}"
    spec = cell.training_spec()
    if spec is not None:
        return f"train:{spec.fingerprint()}"
    return f"cell:{cell.fingerprint()}"


def amortised_cell_costs(
    cells: Sequence[ScenarioCell], cost_model: Optional[CostModel] = None
) -> Dict[str, float]:
    """Estimated wall cost per cell fingerprint, training amortised over its group.

    Each distinct training spec / fleet is priced once and split equally
    across the cells that share it, so summing the returned costs over any
    set of cells prices that set's total work correctly -- which is exactly
    what both the shard balancer (summing over a group) and the progress ETA
    (summing over the not-yet-completed cells) need.
    """
    model = cost_model or DEFAULT_COST_MODEL
    costs: Dict[str, float] = {}
    group_members: Dict[str, List[str]] = {}
    group_training: Dict[str, float] = {}
    for cell in cells:
        fingerprint = cell.fingerprint()
        if fingerprint in costs:
            continue  # duplicate expansion shares one cache entry: price once
        costs[fingerprint] = model.cell_cost_s(cell)
        key = cell_group_key(cell)
        group_members.setdefault(key, []).append(fingerprint)
        group_training.setdefault(key, model.training_cost_s(cell))
    for key, members in group_members.items():
        share = group_training[key] / len(members)
        if share:
            for fingerprint in members:
                costs[fingerprint] += share
    return costs


# ----------------------------------------------------------------------------------
# Shard manifest
# ----------------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardManifest:
    """The frozen plan of one distributed sweep.

    Ships as ``shard-manifest.json`` next to the shard directories; every
    worker and the merge engine validate the embedded matrix fingerprint, so
    shards planned against different designs (or schema versions) can never
    be mixed.
    """

    matrix: ScenarioMatrix
    assignments: Tuple[Tuple[str, ...], ...]
    cell_costs: Mapping[str, float]
    cell_labels: Mapping[str, str]
    cost_model: CostModel

    @property
    def shard_count(self) -> int:
        """How many shards the plan partitions the matrix into."""
        return len(self.assignments)

    @property
    def matrix_fingerprint(self) -> str:
        """Content hash of the pre-registered design this plan partitions."""
        return self.matrix.fingerprint()

    def fingerprint(self) -> str:
        """Content hash of the whole plan (manifest identity)."""
        return canonical_fingerprint(self.to_dict())

    def shard_cells(self, shard_index: int) -> List[ScenarioCell]:
        """The shard's cells, in the matrix's pre-registered order."""
        if not 0 <= shard_index < self.shard_count:
            raise ValueError(
                f"shard index {shard_index} out of range [0, {self.shard_count})"
            )
        wanted = set(self.assignments[shard_index])
        return [
            cell for cell in self.matrix.cells() if cell.fingerprint() in wanted
        ]

    def cells_by_fingerprint(self) -> Dict[str, ScenarioCell]:
        """One representative cell per distinct fingerprint, expanded once.

        Callers that inspect many shards (``repro-sweep shard status``)
        compute this once and reuse it, instead of re-expanding the matrix
        and re-hashing every cell per shard.
        """
        cells: Dict[str, ScenarioCell] = {}
        for cell in self.matrix.cells():
            cells.setdefault(cell.fingerprint(), cell)
        return cells

    def shard_cost_s(self, shard_index: int) -> float:
        """Estimated wall cost of one shard."""
        return sum(
            self.cell_costs[fingerprint]
            for fingerprint in self.assignments[shard_index]
        )

    def total_cost_s(self) -> float:
        """Estimated wall cost of the whole sweep (one worker per shard)."""
        return sum(self.cell_costs[f] for shard in self.assignments for f in shard)

    def validate(self) -> None:
        """Check the plan still covers its matrix exactly.

        Re-expands the matrix and verifies that the assignments partition the
        expansion's distinct cell fingerprints -- each assigned exactly once,
        none missing, none foreign.  Raises ``ValueError`` otherwise (e.g. a
        hand-edited manifest, or one produced by a different code version
        that slipped past the schema check).
        """
        expanded = {cell.fingerprint() for cell in self.matrix.cells()}
        assigned: List[str] = [f for shard in self.assignments for f in shard]
        if len(assigned) != len(set(assigned)):
            raise ValueError("manifest assigns at least one cell to several shards")
        missing = sorted(expanded - set(assigned))
        foreign = sorted(set(assigned) - expanded)
        if missing or foreign:
            raise ValueError(
                f"manifest does not partition its matrix: {len(missing)} cell(s) "
                f"unassigned, {len(foreign)} foreign fingerprint(s)"
            )
        known = set(self.cell_costs)
        if not set(assigned) <= known or not set(assigned) <= set(self.cell_labels):
            raise ValueError("manifest is missing cost or label entries for cells")

    # -- serialisation ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the ``shard-manifest.json`` document)."""
        return {
            "manifest_schema_version": MANIFEST_SCHEMA_VERSION,
            "matrix_fingerprint": self.matrix_fingerprint,
            "matrix": self.matrix.to_dict(),
            "shards": self.shard_count,
            "cost_model": self.cost_model.to_dict(),
            "assignments": [
                {
                    "shard": index,
                    "estimated_cost_s": self.shard_cost_s(index),
                    "cells": [
                        {
                            "fingerprint": fingerprint,
                            "label": self.cell_labels[fingerprint],
                            "cost_s": self.cell_costs[fingerprint],
                        }
                        for fingerprint in shard
                    ],
                }
                for index, shard in enumerate(self.assignments)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardManifest":
        """Rebuild and validate a manifest from :meth:`to_dict` output."""
        version = int(data.get("manifest_schema_version", -1))
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema version {version} does not match the current "
                f"version {MANIFEST_SCHEMA_VERSION}"
            )
        matrix = ScenarioMatrix.from_dict(data["matrix"])
        stored = data.get("matrix_fingerprint")
        if matrix.fingerprint() != stored:
            raise ValueError(
                f"manifest matrix fingerprint {stored!r} does not match its "
                f"embedded matrix ({matrix.fingerprint()!r}); the manifest was "
                "edited or produced by an incompatible version"
            )
        assignments: List[Tuple[str, ...]] = []
        cell_costs: Dict[str, float] = {}
        cell_labels: Dict[str, str] = {}
        for entry in data["assignments"]:
            shard = []
            for cell in entry["cells"]:
                fingerprint = cell["fingerprint"]
                shard.append(fingerprint)
                cell_costs[fingerprint] = float(cell["cost_s"])
                cell_labels[fingerprint] = cell["label"]
            assignments.append(tuple(shard))
        if len(assignments) != int(data.get("shards", len(assignments))):
            raise ValueError("manifest shard count does not match its assignments")
        manifest = cls(
            matrix=matrix,
            assignments=tuple(assignments),
            cell_costs=cell_costs,
            cell_labels=cell_labels,
            cost_model=CostModel.from_dict(data["cost_model"]),
        )
        manifest.validate()
        return manifest

    def save(self, path: str) -> str:
        """Atomically write the manifest as JSON; returns ``path``."""
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "ShardManifest":
        """Load and validate a manifest written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"manifest file {path!r} does not contain an object")
        return cls.from_dict(data)


def plan_shards(
    matrix: ScenarioMatrix,
    shards: int,
    cost_model: Optional[CostModel] = None,
) -> ShardManifest:
    """Partition a matrix into ``shards`` balanced, independently runnable shards.

    Deterministic: cells group by :func:`cell_group_key` (training co-location),
    groups sort by descending estimated cost with the group key as the tie
    breaker, and each group goes to the currently least-loaded shard (lowest
    index on ties) -- the classic longest-processing-time heuristic, which
    keeps the makespan within 4/3 of optimal while never splitting a
    training spec across machines.  Planning the same matrix twice, anywhere,
    yields byte-identical manifests.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    cells = matrix.cells()
    model = cost_model or DEFAULT_COST_MODEL
    costs = amortised_cell_costs(cells, model)
    labels: Dict[str, str] = {}
    order: Dict[str, int] = {}
    groups: Dict[str, List[str]] = {}
    for position, cell in enumerate(cells):
        fingerprint = cell.fingerprint()
        if fingerprint in labels:
            continue
        labels[fingerprint] = cell.label()
        order[fingerprint] = position
        groups.setdefault(cell_group_key(cell), []).append(fingerprint)

    group_costs = {
        key: sum(costs[fingerprint] for fingerprint in members)
        for key, members in groups.items()
    }
    loads = [0.0] * shards
    members_per_shard: List[List[str]] = [[] for _ in range(shards)]
    for key in sorted(groups, key=lambda k: (-group_costs[k], k)):
        target = min(range(shards), key=lambda index: (loads[index], index))
        members_per_shard[target].extend(groups[key])
        loads[target] += group_costs[key]
    assignments = tuple(
        tuple(sorted(members, key=order.__getitem__))
        for members in members_per_shard
    )
    manifest = ShardManifest(
        matrix=matrix,
        assignments=assignments,
        cell_costs=costs,
        cell_labels=labels,
        cost_model=model,
    )
    manifest.validate()
    return manifest


# ----------------------------------------------------------------------------------
# Shard worker
# ----------------------------------------------------------------------------------


def shard_directory(base_dir: str, shard_index: int) -> str:
    """Canonical directory of one shard next to its manifest."""
    return os.path.join(base_dir, f"shard-{shard_index:03d}")


def shard_cache_dir(shard_dir: str) -> str:
    """The result-cache directory inside one shard directory."""
    return os.path.join(shard_dir, "cache")


def _write_status(
    shard_dir: str,
    manifest: ShardManifest,
    shard_index: int,
    state: str,
    completed: int,
    cached: int,
    failed: int,
    remaining_s: float,
    attempts: int = 0,
    quarantined: int = 0,
) -> None:
    payload = {
        "status_schema_version": MANIFEST_SCHEMA_VERSION,
        "matrix_fingerprint": manifest.matrix_fingerprint,
        "shard": shard_index,
        "state": state,
        "total": len(manifest.assignments[shard_index]),
        "completed": completed,
        "cached": cached,
        "failed": failed,
        "attempts": attempts,
        "quarantined": quarantined,
        # Unix time, not monotonic: the heartbeat is compared across
        # machines by `shard status` on the planning host.
        "heartbeat_unix_s": wall_now(),
        "estimated_remaining_s": remaining_s,
        "estimated_total_s": manifest.shard_cost_s(shard_index),
    }
    registry = metrics()
    if not registry.empty():
        # The worker's cumulative counters (cache hits, retries by kind,
        # faults fired, ...) ride along so the planning host's `shard
        # status` sees them without shipping the trace file.
        payload["metrics"] = registry.snapshot()
    atomic_write_json(os.path.join(shard_dir, STATUS_FILENAME), payload)


def run_shard(
    manifest: ShardManifest,
    shard_index: int,
    shard_dir: str,
    max_workers: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    retry_policy: Optional[RetryPolicy] = None,
    cell_timeout_s: Optional[float] = None,
) -> SweepResult:
    """Execute one shard into its own directory; resumable and restartable.

    The shard keeps everything it produces under ``shard_dir`` -- result
    cache at ``cache/``, trained artifacts and fleets at ``cache/artifacts``
    -- so shipping the directory back to the planning machine ships the
    complete shard output.  ``shard-status.json`` is rewritten atomically
    after every cell with a fresh heartbeat timestamp and a running retry
    count, so the planning machine's ``shard status`` can distinguish a
    slow shard from a dead one; an interrupted worker restarts from its
    cache and only recomputes what is missing.

    ``retry_policy`` and ``cell_timeout_s`` configure the runner's fault
    tolerance (transient-failure retries and the per-cell watchdog budget);
    defaults mirror a plain :class:`~repro.experiments.runner.SweepRunner`.
    """
    cells = manifest.shard_cells(shard_index)
    watchdog = None
    if cell_timeout_s is not None:
        watchdog = WatchdogPolicy(
            cost_model=manifest.cost_model, cell_timeout_s=cell_timeout_s
        )
    runner = SweepRunner(
        max_workers=max_workers,
        cache_dir=shard_cache_dir(shard_dir),
        retry_policy=retry_policy,
        watchdog=watchdog,
    )
    costs = RemainingCost(
        {f: manifest.cell_costs[f] for f in manifest.assignments[shard_index]}
    )
    # One accounting for printer, status file and trace: the tracker counts
    # each *distinct* cell once (duplicate-fingerprint expansions deliver the
    # same cell twice, but "total" in the status file counts fingerprints)
    # and "completed" counts finished work only -- error results are never
    # cached, so a failed cell's work is still outstanding and a later
    # re-run of the shard retries it.
    tracker = ProgressTracker(costs, workers=max_workers or 1)

    def write_status(state: str) -> None:
        _write_status(
            shard_dir,
            manifest,
            shard_index,
            state,
            tracker.completed_total,
            tracker.cached_total,
            tracker.failed_total,
            costs.remaining_s,
            tracker.retries_total,
            tracker.quarantined_total,
        )

    def track(done: int, total: int, result: CellResult) -> None:
        tracker.note(done, total, result)
        write_status("running")
        if progress is not None:
            progress(done, total, result)

    with maybe_span("shard_run", shard=shard_index, cells=len(cells)):
        write_status("running")
        try:
            result = runner.run(manifest.matrix, progress=track, cells=cells)
        except KeyboardInterrupt:
            # Leave an honest status file behind before the process dies: the
            # tracker and remaining-cost accumulator already reflect every
            # cell that was delivered (and cached) before the interrupt, so a
            # monitoring `status` call sees "interrupted" with accurate
            # progress instead of a stale "running".  The write is atomic
            # (tmp + rename) like every other status write, so a concurrent
            # reader never sees a torn file.
            write_status("interrupted")
            raise
        write_status("complete" if tracker.failed_total == 0 else "failed")
    return result


@dataclass(frozen=True)
class ShardStatus:
    """Live progress of one shard, derived from its cache and status file."""

    shard: int
    state: str
    total: int
    completed: int
    failed: int
    remaining_s: float
    directory: str
    #: Retry attempts the worker has recorded so far (0 when unreported).
    attempts: int = 0
    #: Cells the worker quarantined as permanently failed (0 when unreported).
    quarantined: int = 0
    #: Seconds since the worker's last status heartbeat, or ``None`` when the
    #: status file carries no heartbeat (pre-heartbeat worker, or no file).
    heartbeat_age_s: Optional[float] = None
    #: True when a self-reportedly running, incomplete shard has not written
    #: a heartbeat within the caller's ``stale_after_s`` window -- the worker
    #: is likely hung or dead and the shard should be re-run.
    stale: bool = False


def shard_status(
    manifest: ShardManifest,
    shard_index: int,
    shard_dir: str,
    cells_by_fingerprint: Optional[Mapping[str, ScenarioCell]] = None,
    stale_after_s: Optional[float] = None,
) -> ShardStatus:
    """Inspect one shard's progress from its cache and status file.

    Completion is judged by :meth:`ResultCache.peek` -- the exact acceptance
    rules the worker's resume and the merge reconstruction apply (parseable,
    semantically this cell, current summary format), so status can never
    call an entry done that a merge would reject.  That ground truth holds
    even after a hard kill or a torn copy, and the inspection is strictly
    read-only (a torn file might still be mid-``scp``; quarantining it here
    would hide the completed copy).  The status file only contributes the
    worker's last self-reported state and failure count, and estimated
    remaining time comes from the manifest's cost model.

    ``cells_by_fingerprint`` lets a caller inspecting many shards share one
    :meth:`ShardManifest.cells_by_fingerprint` expansion instead of paying a
    full matrix expansion per shard.

    ``stale_after_s`` enables liveness detection: a shard whose status file
    claims "running" but whose heartbeat is older than the window (and whose
    cache is not already complete) is flagged ``stale`` -- the worker is
    presumed hung or dead, and re-running the shard (which resumes from its
    cache) is the remedy.
    """
    if cells_by_fingerprint is None:
        cells_by_fingerprint = manifest.cells_by_fingerprint()
    fingerprints = manifest.assignments[shard_index]
    cache = ResultCache(shard_cache_dir(shard_dir))
    done = {
        fingerprint
        for fingerprint in fingerprints
        if cache.peek(cells_by_fingerprint[fingerprint]) is not None
    }
    remaining_s = sum(
        manifest.cell_costs[f] for f in fingerprints if f not in done
    )
    failed = 0
    attempts = 0
    quarantined = 0
    heartbeat_age_s: Optional[float] = None
    reported_state = None
    status_path = os.path.join(shard_dir, STATUS_FILENAME)
    try:
        with open(status_path, "r", encoding="utf-8") as handle:
            status = json.load(handle)
        if (
            status.get("matrix_fingerprint") == manifest.matrix_fingerprint
            and int(status.get("shard", -1)) == shard_index
        ):
            # Both checks matter: a foreign matrix's file is meaningless,
            # and a mis-ordered --shard-dir list must not attribute another
            # shard's failure count and state to this row.
            failed = int(status.get("failed", 0))
            attempts = int(status.get("attempts", 0))
            quarantined = int(status.get("quarantined", 0))
            reported_state = status.get("state")
            heartbeat = status.get("heartbeat_unix_s")
            if isinstance(heartbeat, (int, float)):
                heartbeat_age_s = max(0.0, wall_now() - float(heartbeat))
    except (OSError, ValueError, TypeError):
        pass  # no (readable) status file: judge from the cache alone
    # The cache outranks the worker's self-report: every entry present and
    # parseable means complete whatever an older status file says (an empty
    # shard is trivially complete), and a "complete" claim over an
    # incomplete cache (a torn copy) degrades to partial so status never
    # disagrees with what a merge would find.
    if len(done) == len(fingerprints):
        state = "complete"
    elif reported_state == "failed":
        state = "failed"
    elif done:
        state = "partial"
    else:
        state = "pending"
    # Staleness only applies to a shard that claims to be running but has
    # not finished: a complete cache is done no matter how old the
    # heartbeat, and "interrupted"/"failed" workers stopped on purpose.
    stale = (
        stale_after_s is not None
        and reported_state == "running"
        and state != "complete"
        and (heartbeat_age_s is None or heartbeat_age_s > stale_after_s)
    )
    return ShardStatus(
        shard=shard_index,
        state=state,
        total=len(fingerprints),
        completed=len(done),
        failed=failed,
        remaining_s=remaining_s,
        directory=shard_dir,
        attempts=attempts,
        quarantined=quarantined,
        heartbeat_age_s=heartbeat_age_s,
        stale=stale,
    )


# ----------------------------------------------------------------------------------
# Merge engine
# ----------------------------------------------------------------------------------


class ShardMergeError(RuntimeError):
    """A distributed merge found conflicting or incomplete shard content."""


def _merge_entry(
    source: EntryStore, dest: EntryStore, fingerprint: str, kind: str
) -> Optional[bool]:
    """Copy one fingerprint-keyed entry into the merged store.

    Returns ``True`` when the entry was copied, ``False`` when the
    destination already held a content-identical entry (a clean overlap),
    and ``None`` when the source entry was torn -- not parseable as a JSON
    object, as after a crashed worker or an interrupted copy.  Torn sources
    are quarantined as ``<path>.bad`` (so re-running the shard recomputes
    them) and skipped, never merged.  A torn *destination* (an earlier
    merge interrupted mid-write) is likewise quarantined and replaced by
    the parseable source.  Raises :class:`ShardMergeError` only when two
    *parseable* copies of the same fingerprint disagree -- which can only
    mean corruption, tampering or a non-deterministic bug, all of which
    must stop the merge.
    """
    source_path = source.entry_path(fingerprint)
    dest_path = dest.entry_path(fingerprint)
    with open(source_path, "rb") as handle:
        source_bytes = handle.read()
    source_data = source.canonical_document(source_bytes)
    if source_data is None:
        quarantine_entry(source_path)
        return None
    if os.path.exists(dest_path):
        with open(dest_path, "rb") as handle:
            dest_bytes = handle.read()
        if source_bytes == dest_bytes:
            return False
        dest_data = dest.canonical_document(dest_bytes)
        if dest_data is not None:
            if source_data != dest_data:
                raise ShardMergeError(
                    f"{kind} entry {os.path.basename(source_path)!r} diverges "
                    f"between shards: {source_path} and the already-merged copy "
                    f"at {dest_path} disagree beyond wall-clock timing fields.  "
                    "Same-fingerprint entries must be content-identical; one "
                    "shard is corrupt, tampered with, or ran incompatible code."
                )
            return False
        quarantine_entry(dest_path)
    tmp_path = f"{dest_path}.tmp.{os.getpid()}"
    with open(tmp_path, "wb") as handle:
        handle.write(source_bytes)
    os.replace(tmp_path, dest_path)
    return True


def merge_shard_stores(
    shard_cache_dirs: Sequence[str], dest_cache_dir: str
) -> Dict[str, int]:
    """Union shard result caches and artifact/fleet stores into one directory.

    Returns per-kind counters (``results``/``artifacts``/``fleets`` copied,
    ``duplicates`` skipped as content-identical overlaps, ``quarantined``
    torn entries renamed to ``.bad`` and skipped).  Quarantined (``.bad``)
    and staging (``.tmp.<pid>``) files are ignored; a genuine content
    conflict between parseable entries raises :class:`ShardMergeError` and
    leaves the partial merge on disk for inspection (re-running the merge is
    idempotent).
    """
    counters = {
        "results": 0,
        "artifacts": 0,
        "fleets": 0,
        "duplicates": 0,
        "quarantined": 0,
    }
    os.makedirs(dest_cache_dir, exist_ok=True)
    dest_artifact_dir = default_artifact_dir(dest_cache_dir)
    os.makedirs(dest_artifact_dir, exist_ok=True)
    merged_results = ResultCache(dest_cache_dir)
    merged_artifacts = ArtifactStore(dest_artifact_dir)
    merged_fleets = FleetStore(dest_artifact_dir)
    for cache_dir in shard_cache_dirs:
        artifact_dir = default_artifact_dir(cache_dir)
        for counter, kind, source, dest in (
            ("results", "result-cache", ResultCache(cache_dir), merged_results),
            ("artifacts", "artifact", ArtifactStore(artifact_dir), merged_artifacts),
            ("fleets", "fleet", FleetStore(artifact_dir), merged_fleets),
        ):
            for fingerprint in source.fingerprints():
                copied = _merge_entry(source, dest, fingerprint, kind)
                if copied is None:
                    counters["quarantined"] += 1
                    metrics().inc("merge.quarantined")
                elif copied:
                    counters[counter] += 1
                else:
                    counters["duplicates"] += 1
    return counters


def load_merged_result(
    manifest: ShardManifest,
    cache_dir: str,
    require_complete: bool = True,
) -> SweepResult:
    """Reconstruct the aggregate sweep result from a merged cache directory.

    Every cell of the manifest's matrix is served from the merged
    :class:`ResultCache`, in pre-registered order, exactly as a fully cached
    single-machine re-run would serve it -- so the reconstruction feeds the
    existing :mod:`repro.experiments.aggregate` reporting unchanged.  Cells
    missing from the merge (shard not run, cell failed on its shard, or a
    corrupt entry that the load quarantined) raise :class:`ShardMergeError`
    unless ``require_complete`` is off, in which case the partial result is
    returned.
    """
    cache = ResultCache(cache_dir)
    results: List[CellResult] = []
    missing: List[ScenarioCell] = []
    for cell in manifest.matrix.cells():
        result = cache.load(cell)
        if result is None:
            missing.append(cell)
        else:
            results.append(result)
    if missing and require_complete:
        labels = ", ".join(cell.label() for cell in missing[:5])
        suffix = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
        raise ShardMergeError(
            f"merged cache is missing {len(missing)} of "
            f"{len(manifest.matrix.cells())} cells: {labels}{suffix}.  Run the "
            "missing shards (or re-run interrupted ones; they resume from "
            "their caches) and merge again."
        )
    return SweepResult(matrix=manifest.matrix, results=results)


def merge_shards(
    manifest: ShardManifest,
    shard_dirs: Sequence[str],
    dest_cache_dir: str,
    require_complete: bool = True,
) -> Tuple[SweepResult, Dict[str, int]]:
    """One-call merge: union the shard stores, then reconstruct the sweep.

    ``shard_dirs`` are shard directories as produced by :func:`run_shard`
    (each holding a ``cache/`` subdirectory); directories that do not exist
    yet are skipped so a partial merge with ``require_complete=False`` can
    preview progress.  Returns ``(sweep_result, merge_counters)``.

    Shards that traced their run (``trace.jsonl`` next to the status file)
    get their traces concatenated into ``<dest_cache_dir>/trace.jsonl``, so
    ``repro-sweep report`` can replay the whole distributed sweep as one
    timeline; ``trace_events`` / ``trace_quarantined`` counters report the
    merge.  Shards without traces merge exactly as before.
    """
    with maybe_span("merge", shards=len(shard_dirs)) as span:
        counters = merge_shard_stores(
            [shard_cache_dir(shard_dir) for shard_dir in shard_dirs], dest_cache_dir
        )
        trace_sources = [
            os.path.join(shard_dir, TRACE_BASENAME) for shard_dir in shard_dirs
        ]
        if any(os.path.exists(path) for path in trace_sources):
            trace_counters = merge_traces(
                trace_sources, os.path.join(dest_cache_dir, TRACE_BASENAME)
            )
            counters["trace_events"] = trace_counters["events"]
            counters["trace_quarantined"] = trace_counters["quarantined"]
        result = load_merged_result(
            manifest, dest_cache_dir, require_complete=require_complete
        )
        if span is not None:
            span.note("results", counters["results"])
            span.note("duplicates", counters["duplicates"])
            span.note("quarantined", counters["quarantined"])
    return result, counters
