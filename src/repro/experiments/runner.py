"""Scenario-matrix execution: one event loop, two executors, with caching.

The runner owns no simulation logic of its own: every cell funnels through
:func:`execute_cell` (or, for lanes of the batch kernel,
:func:`execute_cells_batched`), which records the cell's demand trace and
hands it to :func:`repro.sim.experiment.run_trace` -- the same single-cell
primitive the sequential helpers use.

Scheduling: every sweep runs through one event loop over one job graph --
training spec, then fleet round, then cell or cell batch.  The loop drives
one of two executors: a process pool, or an in-process executor that runs
one queued job per wait step, in submission order (``max_workers=1``, a
single pending cell, and the fallback after a broken pool).  Both routes
make every decision -- what to train, what to retry, what to cache -- in
the same code, so the worker count changes only the wall time, never a
result; the determinism regression tests assert it.

Failure isolation: a cell that raises reports an error :class:`CellResult`
(status ``"error"`` with the traceback) instead of killing the sweep, so a
1000-cell overnight run survives one diverging configuration.

Fault tolerance (:mod:`repro.reliability`): failures are *classified* where
the exception object still exists -- transient infrastructure failures
(injected faults, broken pools, store I/O errors, timeouts) retry with
bounded seeded backoff, while deterministic failures (anything else, or the
same traceback twice in a row) are quarantined as permanent immediately.
A broken pool (crashed worker) or an expired watchdog deadline (hung
worker) tears the pool down and rebuilds it, resubmitting only the jobs
that were in flight -- their attempt counters bumped so first-attempt-only
injected faults cannot re-fire -- and after ``max_pool_rebuilds`` restarts
the *remaining* cells (never the already-delivered ones) finish through the
same loop in-process, where injected crashes raise instead of exiting.  All
of this is safe because of the bit-identity contract: a retried cell can
only ever produce the same bytes the first attempt would have, which the
chaos harness pins per cell via ``sample_stream_hash``.

Caching: with a ``cache_dir``, each completed cell is written to
``<fingerprint>.json``; re-running a sweep serves completed cells from disk
and only computes the missing ones.  Error results are *not* cached, so a
fixed bug re-runs its cells automatically.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.core.artifact import TrainingSpec
from repro.core.federated import FleetArtifact, FleetSpec
from repro.core.persistence import EntryStore
from repro.experiments.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    StoredArtifact,
    train_artifact,
)
from repro.experiments.costs import (
    DEFAULT_COST_MODEL,
    Route,
    note_route,
    routes_to_batch,
)
from repro.experiments.federated import (
    FleetBuild,
    FleetStore,
    batch_kernel_available,
    round_route,
    train_device_round,
    train_device_rounds_batched,
    train_fleet_artifact,
)
from repro.experiments.matrix import ScenarioCell, ScenarioMatrix
from repro.governors.base import Governor
from repro.obs.metrics import metrics, reset_metrics
from repro.obs.profile import active_profiler
from repro.obs.trace import active_tracer, emit_event, flush_task_metrics
from repro.reliability.clock import monotonic_now
from repro.reliability.faults import (
    SITE_EXECUTE_BATCH,
    SITE_EXECUTE_CELL,
    fault_point,
    mark_worker_process,
)
from repro.reliability.retry import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    RetryState,
    classify_exception,
)
from repro.reliability.watchdog import WatchdogPolicy
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    STOCHASTIC_GOVERNORS,
    SessionResult,
    make_governor,
    record_session_trace,
    run_trace,
)
from repro.soc.platform import PlatformSpec, make_platform
from repro.workloads.session import SessionSegment
from repro.workloads.trace import TracePlayer, WorkloadTrace

#: Progress callback signature: (completed_count, total_count, latest_result).
ProgressCallback = Callable[[int, int, "CellResult"], None]


@dataclass
class CellResult:
    """Outcome of one cell: a summary dict on success, a traceback on failure.

    ``error_kind`` classifies a failure as ``"transient"`` (infrastructure:
    a retry could help) or ``"permanent"`` (deterministic, or retries
    exhausted); ``error_type`` is the raising exception's class name.
    ``attempts`` is the retry lineage -- one record per failed attempt that
    preceded this result -- so a cell that succeeded after two injected
    faults still documents them.  All three are populated only when
    something actually failed, keeping fault-free results (and their cached
    entries) byte-identical to a runner without the retry machinery.
    """

    cell: ScenarioCell
    status: str
    summary: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    from_cache: bool = False
    elapsed_s: float = 0.0
    error_kind: Optional[str] = None
    error_type: Optional[str] = None
    attempts: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        """Whether the cell completed successfully."""
        return self.status == "ok"

    def metric(self, name: str) -> float:
        """Read one summary metric by name (raises on error results)."""
        if self.summary is None:
            raise ValueError(f"cell {self.cell.label()} has no summary ({self.status})")
        value = self.summary.get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            scalars = sorted(
                key
                for key, entry in self.summary.items()
                if isinstance(entry, (int, float)) and not isinstance(entry, bool)
            )
            raise ValueError(f"unknown metric {name!r}; available: {scalars}")
        return value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the result cache).

        The failure/retry fields are emitted only when set, so a fault-free
        success serialises to exactly the pre-reliability document -- cache
        entries stay byte-stable across the feature's introduction.
        """
        data: Dict[str, Any] = {
            "cell": self.cell.spec(),
            "status": self.status,
            "summary": self.summary,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
        }
        if self.error_kind is not None:
            data["error_kind"] = self.error_kind
        if self.error_type is not None:
            data["error_type"] = self.error_type
        if self.attempts:
            data["attempts"] = self.attempts
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            cell=ScenarioCell.from_spec(data["cell"]),
            status=data["status"],
            summary=data.get("summary"),
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            error_kind=data.get("error_kind"),
            error_type=data.get("error_type"),
            attempts=data.get("attempts"),
        )


def summary_to_dict(result: SessionResult) -> Dict[str, Any]:
    """Flatten a :class:`SessionResult` summary into a JSON-clean dict.

    JSON float serialisation round-trips exactly (shortest-repr), so a cached
    summary compares equal to a freshly computed one -- the property the
    determinism tests pin down.

    ``sample_stream_hash`` is the canonical SHA-256 of the full recorded
    sample stream (:meth:`repro.sim.recorder.Recorder.content_hash`): two
    cells agree on it iff their recorded traces are bit-identical.  It is
    what lets a merged distributed sweep prove per-cell equality with a
    single-machine run without shipping the raw samples around.
    """
    summary = asdict(result.summary)
    summary["frame_delivery_ratio"] = result.summary.frame_delivery_ratio
    summary["app_names"] = list(result.app_names)
    summary["governor_name"] = result.governor_name
    summary["sample_stream_hash"] = result.recorder.content_hash()
    return summary


def cell_trace(cell: ScenarioCell, platform: PlatformSpec) -> WorkloadTrace:
    """Record the cell's demand trace with its governor-independent ``trace_seed``."""
    segments = [
        SessionSegment(app_name, duration_s)
        for app_name, duration_s in cell.workload.segments
    ]
    return record_session_trace(segments, platform=platform, seed=cell.trace_seed)


def cell_lane(
    cell: ScenarioCell,
    platform: PlatformSpec,
    trace: WorkloadTrace,
    artifact: Optional[StoredArtifact] = None,
) -> Tuple[Governor, SimulationConfig]:
    """The governor and simulation config that replay ``trace`` for ``cell``.

    Stochastic governors are seeded with the cell's ``governor_seed``.  A
    pretrained cell evaluates the frozen greedy policy of its trained
    artifact, a federated cell the merged greedy agent of its trained fleet
    (``training=False`` either way), never a cold exploring agent.  Without
    ``artifact`` the cell's :class:`TrainingSpec` or :class:`FleetSpec` is
    trained inline -- identical result, just without the train-once sharing.
    """
    spec = cell.fleet_spec() or cell.training_spec()
    if spec is not None:
        if artifact is None:
            train = train_fleet_artifact if cell.federated else train_artifact
            artifact = train(spec)
        elif artifact.fingerprint != spec.fingerprint():
            kind = "fleet artifact" if cell.federated else "artifact"
            noun = "fleet spec" if cell.federated else "training spec"
            raise ValueError(
                f"{kind} {artifact.fingerprint!r} does not match cell "
                f"{cell.label()} {noun} {spec.fingerprint()!r}"
            )
        governor = artifact.build_governor()
    else:
        params = dict(cell.governor_params)
        if cell.governor in STOCHASTIC_GOVERNORS:
            params.setdefault("seed", cell.governor_seed)
        governor = make_governor(cell.governor, **params)
    config = SimulationConfig(
        refresh_hz=platform.display_refresh_hz,
        duration_s=trace.duration_s,
        seed=cell.sim_seed,
        **dict(cell.config_overrides),
    )
    return governor, config


def run_cell_session(
    cell: ScenarioCell, artifact: Optional[StoredArtifact] = None
) -> SessionResult:
    """Execute one cell in-process and return the full session result.

    Records the cell's demand trace, builds its lane (:func:`cell_lane`) and
    replays the trace through the shared single-cell primitive.  The sweep
    runner resolves artifacts through its :class:`ArtifactStore` /
    :class:`FleetStore` and passes them in; standalone callers may omit
    ``artifact``.
    """
    platform = make_platform(cell.platform)
    trace = cell_trace(cell, platform)
    governor, config = cell_lane(cell, platform, trace, artifact)
    return run_trace(trace, governor, platform=platform, config=config)


def execute_cell(
    cell: ScenarioCell,
    artifact: Optional[StoredArtifact] = None,
    attempt: int = 0,
) -> CellResult:
    """Run one cell with failure isolation (the process-pool work unit).

    ``attempt`` is the orchestrator's retry counter for this cell: it feeds
    the fault-injection seam (so a scheduled fault stops firing once its
    ``max_attempt`` budget is spent) and has no effect on a successful
    result, which is a pure function of the cell.  A failure is classified
    here, where the exception object still exists -- ``error_kind`` tells
    the orchestrator whether a retry could help (transient infrastructure
    failure) or cannot (deterministic error in the cell itself).
    """
    started = time.perf_counter()
    tracer = active_tracer()
    span = (
        tracer.begin(
            "cell", fingerprint=cell.fingerprint(), label=cell.label(), attempt=attempt
        )
        if tracer is not None
        else None
    )
    try:
        fault_point(SITE_EXECUTE_CELL, cell.fingerprint(), attempt)
        session = run_cell_session(cell, artifact=artifact)
        if span is not None:
            span.note("status", "ok")
        return CellResult(
            cell=cell,
            status="ok",
            summary=summary_to_dict(session),
            elapsed_s=time.perf_counter() - started,
        )
    except Exception as exc:
        if span is not None:
            span.note("status", "error")
            span.note("error_type", type(exc).__name__)
        return CellResult(
            cell=cell,
            status="error",
            error=traceback.format_exc(),
            elapsed_s=time.perf_counter() - started,
            error_kind=classify_exception(exc),
            error_type=type(exc).__name__,
        )
    finally:
        if tracer is not None:
            tracer.end(span)
            flush_task_metrics()


def execute_cells_batched(
    cells: List[ScenarioCell], attempt: int = 0
) -> List[CellResult]:
    """Run a group of artifact-free cells through the batch kernel.

    All cells must share a platform and (cadence aside) config overrides
    (the grouping in :func:`batchable_cell_groups` guarantees it); each
    cell keeps its own trace, governor and simulation seeds, session
    duration and recording cadence -- mixed durations and cadences run as
    masked heterogeneous lanes of the batch kernel.  Lanes replaying the same
    session (same segments and ``trace_seed``) share one recorded trace;
    the sharing lasts for this call only.  The batched
    device-population kernel is bit-identical per lane to the scalar
    :func:`execute_cell` path (pinned by the batch parity suite), so cached
    results from either route are interchangeable.

    Failure isolation matches the scalar path's granularity: any batch-level
    failure (including one diverging cell) falls back to running every cell
    of the group through :func:`execute_cell` individually, so a single bad
    configuration degrades throughput, never correctness.  An injected
    fault at the batch seam (keyed by the group's first fingerprint, with
    the orchestrator's ``attempt`` counter threaded through) takes the same
    fallback: the scalar re-runs classify and report their own failures.
    """
    started = time.perf_counter()
    tracer = active_tracer()
    span = (
        tracer.begin("cell_batch", cells=len(cells), attempt=attempt)
        if tracer is not None
        else None
    )
    if span is not None:
        note_route(span, cell_route(cells))
    ticks_before = metrics().counters.get("batch.device_ticks", 0.0)
    try:
        fault_point(SITE_EXECUTE_BATCH, cells[0].fingerprint(), attempt)
        from repro.sim.batch import BatchSimulation

        platform = make_platform(cells[0].platform)
        # Cells replaying one session (same segments and trace seed, other
        # governors) share a single recording of its demand trace.
        session_traces: Dict[Tuple[Any, int], WorkloadTrace] = {}
        traces = []
        governors = []
        configs = []
        for cell in cells:
            key = (cell.workload.segments, cell.trace_seed)
            if key not in session_traces:
                session_traces[key] = cell_trace(cell, platform)
            traces.append(session_traces[key])
            governor, config = cell_lane(cell, platform, traces[-1])
            governors.append(governor)
            configs.append(config)
        batch = BatchSimulation(platform, governors, configs)
        batch.run(
            [TracePlayer(trace) for trace in traces],
            duration_s=[trace.duration_s for trace in traces],
        )
        results = []
        for index, cell in enumerate(cells):
            recorder = batch.device_recorder(index)
            session = SessionResult(
                governor_name=governors[index].name,
                app_names=list(traces[index].app_names()),
                recorder=recorder,
                summary=recorder.summary(),
            )
            results.append(
                CellResult(cell=cell, status="ok", summary=summary_to_dict(session))
            )
        # Each lane's share covers gather, summary and hash, not just the kernel.
        elapsed_s = (time.perf_counter() - started) / len(cells)
        for result in results:
            result.elapsed_s = elapsed_s
        if tracer is not None:
            span.note("status", "ok")
            for cell in cells:
                # One child span per lane so the report's tree shows every
                # cell; the batch ran them jointly, so each carries the
                # amortised share of the batch's wall time as an attribute.
                child = tracer.begin(
                    "cell",
                    fingerprint=cell.fingerprint(),
                    label=cell.label(),
                    batched=True,
                )
                child.note("amortised_s", elapsed_s)
                child.note("status", "ok")
                tracer.end(child)
        return results
    except Exception:  # repro-lint: disable=REP008 -- each cell re-runs scalar and records its own traceback
        if span is not None:
            span.note("status", "fallback_scalar")
        return [execute_cell(cell, attempt=attempt) for cell in cells]
    finally:
        elapsed_total = time.perf_counter() - started
        device_ticks = metrics().counters.get("batch.device_ticks", 0.0) - ticks_before
        if elapsed_total > 0 and device_ticks > 0:
            # A histogram, not a gauge: pooled footers then merge every
            # worker's batches instead of keeping the last one written.
            metrics().observe(
                "batch.device_ticks_per_s", device_ticks / elapsed_total
            )
        if tracer is not None:
            tracer.end(span)
            flush_task_metrics()


def cell_route(cells: List[ScenarioCell]) -> Route:
    """The cost model's route for one group of artifact-free cells."""
    return DEFAULT_COST_MODEL.route(
        cells[0].platform, [cell.workload.duration_s for cell in cells]
    )


def batchable_cell_groups(
    pending: List[Tuple[int, ScenarioCell]], workers: int = 1
) -> Tuple[List[List[Tuple[int, ScenarioCell]]], List[Tuple[int, ScenarioCell]]]:
    """Partition pending cells into batch-kernel groups and scalar leftovers.

    Only artifact-free cells batch (trained and federated cells evaluate a
    frozen artifact resolved elsewhere), and only cells agreeing on
    platform and config overrides (recording cadence aside) can share one
    :class:`~repro.sim.batch.BatchSimulation`.  Session durations and
    ``record_every_n_ticks`` overrides may differ within a group: mixed
    cells run as masked heterogeneous lanes of the batch kernel.  Each group
    is cut into up to ``workers`` contiguous chunks of near-equal simulated
    seconds (:func:`split_by_seconds`) so a process pool still spreads a
    large sweep evenly across its workers; singleton leftovers run scalar.
    Whether a chunk then runs on the batch kernel is the cost model's call
    (:func:`cell_route`).

    Returns ``(groups, rest)`` preserving the original ``(index, cell)``
    pairs; ``rest`` keeps its input order.
    """
    buckets: Dict[Any, List[Tuple[int, ScenarioCell]]] = {}
    rest: List[Tuple[int, ScenarioCell]] = []
    for index, cell in pending:
        if cell.training_spec() is not None or cell.fleet_spec() is not None:
            rest.append((index, cell))
            continue
        shared_overrides = tuple(
            (name, value)
            for name, value in cell.config_overrides
            if name != "record_every_n_ticks"
        )
        key = (cell.platform, shared_overrides)
        buckets.setdefault(key, []).append((index, cell))
    groups: List[List[Tuple[int, ScenarioCell]]] = []
    for bucket in buckets.values():
        if len(bucket) < 2:
            rest.extend(bucket)
            continue
        chunk_count = max(1, min(workers, len(bucket) // 2))
        for chunk in split_by_seconds(bucket, chunk_count):
            if len(chunk) >= 2:
                groups.append(chunk)
            else:
                rest.extend(chunk)
    rest.sort(key=lambda pair: pair[0])
    return groups, rest


def split_by_seconds(
    bucket: List[Tuple[int, ScenarioCell]], chunk_count: int
) -> List[List[Tuple[int, ScenarioCell]]]:
    """Cut ``bucket`` into ``chunk_count`` contiguous runs of near-equal simulated seconds.

    A cell stays in the current run while its midpoint falls at or before
    that run's share of the bucket's total, so every cut lands on the cell
    boundary nearest its share: with two runs their seconds differ by at
    most the longest cell's duration, and equal durations split ``n`` cells
    as ``ceil(n / 2)`` and the rest.  Runs may come out empty.
    """
    durations = [cell.workload.duration_s for _, cell in bucket]
    total = sum(durations)
    chunks: List[List[Tuple[int, ScenarioCell]]] = [[] for _ in range(chunk_count)]
    chunk = 0
    elapsed = 0.0
    for pair, duration in zip(bucket, durations):
        while (
            chunk < chunk_count - 1
            and elapsed + duration / 2 > total * (chunk + 1) / chunk_count
        ):
            chunk += 1
        chunks[chunk].append(pair)
        elapsed += duration
    return chunks


def _training_error(fingerprint: str, spec: ArtifactSpec, details: str) -> str:
    """One message format for "this cell's agent or fleet failed to train"."""
    kind = "fleet" if isinstance(spec, FleetSpec) else "artifact"
    return f"training failed for {kind} {fingerprint} ({spec.label()}):\n{details}"


def default_artifact_dir(cache_dir: Optional[str]) -> Optional[str]:
    """Where a sweep with this result cache keeps its trained-agent artifacts."""
    if cache_dir is None:
        return None
    return os.path.join(cache_dir, "artifacts")


class ResultCache(EntryStore):
    """On-disk JSON cache of completed cells, keyed by cell fingerprint.

    Adds to the entry store what a cell entry means: the acceptance rule,
    the ``cache.*`` counters and the merge's timing normalisation.
    """

    ENTRY_SUFFIX = ".json"

    @staticmethod
    def _accept(cell: ScenarioCell, data: Dict[str, Any]) -> Optional[CellResult]:
        """The cached result in ``data`` if it may stand for ``cell``, else ``None``.

        Raises on a document that is not a cell result at all, which the
        store treats as a corrupt entry.
        """
        result = CellResult.from_dict(data)
        # Fingerprints are truncated hashes; verify the stored cell really is
        # semantically this cell before trusting the hit.  Comparing the
        # canonical payloads (the fingerprint hash inputs) applies the same
        # normalisation the fingerprint does -- matrix name excluded,
        # training variant reduced to its execution semantics -- in
        # JSON-canonical form: the cached payload already went through JSON
        # (tuples became lists), so the live one is normalised the same way.
        cached_payload = json.loads(json.dumps(result.cell.canonical_payload()))
        live_payload = json.loads(json.dumps(cell.canonical_payload()))
        if cached_payload != live_payload or not result.ok:
            return None
        if result.summary is None or "sample_stream_hash" not in result.summary:
            # Entry from before summaries carried the recorded-stream hash
            # (the distributed-merge parity currency).  The execution
            # semantics -- and therefore the fingerprint -- are unchanged,
            # so treat it as a stale-format miss: the cell recomputes once
            # and the rewritten entry carries the hash.
            return None
        return result

    def peek(self, cell: ScenarioCell) -> Optional[CellResult]:
        """Read-only form of :meth:`load`: same acceptance, no side effects.

        Used by inspection paths (``repro-sweep shard status``) that must
        agree with :meth:`load` about what counts as a completed cell but
        must not touch the directory -- not even to quarantine a torn file
        that might still be mid-copy.
        """
        return self.read_entry(cell.fingerprint(), partial(self._accept, cell))[0]

    def load(self, cell: ScenarioCell) -> Optional[CellResult]:
        """Return the cached result for ``cell``, or ``None`` on a miss.

        A truncated or otherwise corrupt entry (a torn copy, a filled disk
        mid-write on a non-atomic filesystem, a document of the wrong
        shape) is quarantined with a ``.bad`` suffix and treated as a miss,
        so one bad file re-runs one cell instead of raising mid-sweep.
        """
        result = self.load_entry(cell.fingerprint(), partial(self._accept, cell))
        if result is None:
            metrics().inc("cache.miss")
            return None
        metrics().inc("cache.hit")
        result.cell = cell
        result.from_cache = True
        return result

    def quarantine(self, path: str) -> None:
        """Quarantine a corrupt entry and count it."""
        super().quarantine(path)
        metrics().inc("cache.quarantined")

    def store(self, result: CellResult) -> None:
        """Persist a successful result (errors are never cached)."""
        if result.ok:
            self.write_entry(result.cell.fingerprint(), result.to_dict())

    @staticmethod
    def canonical_entry(data: Dict[str, Any]) -> Dict[str, Any]:
        """The content identity of one cache entry: everything but wall time.

        Two shards that executed the same cell produce entries identical in
        every field except ``elapsed_s`` (machine-dependent wall clock) and
        ``attempts`` (the retry lineage: which injected faults or broken
        pools a shard happened to weather, equally machine-dependent and
        equally unable to affect the result bytes).  The shard merge engine
        compares entries through this normalisation, so honest duplicates
        merge cleanly while any divergence in actual content -- summary
        values, status, the cell spec itself -- still fails the merge
        loudly.
        """
        normalised = dict(data)
        normalised.pop("elapsed_s", None)
        normalised.pop("attempts", None)
        return normalised


@dataclass
class SweepResult:
    """All cell results of one sweep, in the matrix's pre-registered order."""

    matrix: ScenarioMatrix
    results: List[CellResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> List[CellResult]:
        """Successful cells."""
        return [result for result in self.results if result.ok]

    @property
    def failures(self) -> List[CellResult]:
        """Failed cells (error results)."""
        return [result for result in self.results if not result.ok]

    @property
    def cached_count(self) -> int:
        """How many cells were served from the result cache."""
        return sum(1 for result in self.results if result.from_cache)

    def result_for(self, cell: ScenarioCell) -> CellResult:
        """The result of one specific cell (by fingerprint)."""
        wanted = cell.fingerprint()
        for result in self.results:
            if result.cell.fingerprint() == wanted:
                return result
        raise KeyError(f"no result for cell {cell.label()}")


class _Failure(NamedTuple):
    """One failed job attempt: its classification, exception type and traceback."""

    kind: str
    error_type: str
    error: Optional[str]


@dataclass
class _Job:
    """One in-flight unit of a sweep's job graph.

    ``keys`` are the retry keys whose attempt counters the job carries (a
    cell batch carries every lane's); a pool restart that voids the job
    bumps all of them.  ``start`` submits the job with an attempt counter
    and returns its future.  ``settle`` receives the job and its outcome --
    the return value, or the :class:`_Failure` it raised -- and may launch
    follow-up jobs.
    """

    keys: Tuple[str, ...]
    start: Callable[[int], Future]
    settle: Callable[["_Job", Any], None]
    budget_s: Optional[float]
    deadline: float = math.inf


class _PoolRestart(Exception):
    """Internal signal: the process pool must be torn down and rebuilt.

    Raised inside the event loop when the pool breaks (a worker died) or a
    watchdog deadline expires (a worker hung).  It carries the retry keys of
    the jobs the teardown voids -- not only the expired or crashed one --
    and :meth:`SweepRunner.run` bumps their attempt counters before
    resubmitting.  That is what lets a first-attempt-only injected crash or
    hang rule stop firing on the rebuilt pool, for the job that tripped the
    restart and for every sibling it took down.  A crash carries every job
    in flight (a broken pool fails all their futures at once, so the
    started ones cannot be told apart); a watchdog timeout carries the
    expired jobs and those on a worker, and jobs still queued keep their
    retry budget.
    """

    def __init__(self, cause: str, jobs: Iterable[_Job]) -> None:
        super().__init__(cause)
        self.cause = cause
        self.keys = tuple(sorted({key for job in jobs for key in job.keys}))


def _init_worker() -> None:
    """Pool initializer: mark the worker expendable and empty its metrics.

    A forked worker inherits the orchestrator's registry; without the reset
    its first per-task flush would ship the orchestrator's counters again.
    """
    mark_worker_process()
    reset_metrics()


class _PoolExecutor(ProcessPoolExecutor):
    """The concurrent executor: each :meth:`step` waits for the first finished job."""

    def __init__(self, workers: int) -> None:
        super().__init__(max_workers=workers, initializer=_init_worker)
        self.workers = workers

    def step(self, pending: Iterable[Future], timeout: Optional[float]) -> Iterable[Future]:
        finished, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
        return finished

    def abandon(self) -> None:
        """Tear the pool down without waiting for hung or dead workers.

        Worker processes are terminated outright: they compute in memory
        and return results by pickle -- every store write happens in the
        orchestrator -- so killing them mid-job cannot corrupt anything on
        disk.  ``shutdown`` drops the process table and the manager thread,
        so both are read first.

        The manager thread is joined once the workers are dead: while it
        tears the pool down it briefly holds the pool's shutdown lock, and a
        rebuilt pool forked in that window hands the held lock to its
        workers.  A worker that then garbage-collects this executor runs its
        weakref callback, which takes that lock, and blocks forever on a job
        that never hung.  The join is bounded, so a teardown that stalls
        cannot stall the sweep with it.
        """
        processes = list((self._processes or {}).values())
        manager = self._executor_manager_thread
        self.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()
        if manager is not None:
            manager.join(timeout=5.0)


class _InlineExecutor(Executor):
    """The in-process executor: each :meth:`step` runs the oldest queued job.

    ``submit`` only queues, so every result is cached, delivered and
    heartbeated before the next job starts -- an interrupted sweep resumes
    from exactly what it delivered.  A job's ``Exception`` lands on its
    future, as a pool worker's would; ``KeyboardInterrupt`` propagates.  The
    orchestrator is never marked expendable, so injected crashes raise here
    instead of exiting, and a job always runs to completion: this executor
    neither breaks nor times out.
    """

    workers = 1

    def __init__(self) -> None:
        self._queue: Deque[Tuple[Future, Callable[..., Any], tuple, dict]] = deque()

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        self._queue.append((future, fn, args, kwargs))
        return future

    def step(self, pending: Iterable[Future], timeout: Optional[float]) -> Iterable[Future]:
        future, fn, args, kwargs = self._queue.popleft()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # repro-lint: disable=REP008 -- lands on the job's future, where the loop classifies it
            future.set_exception(exc)
        return (future,)

    def abandon(self) -> None:
        self._queue.clear()


class SweepRunner:
    """Runs every cell of a matrix, optionally across a process pool.

    Every sweep runs through one event loop (:meth:`_run_jobs`); the worker
    count only picks its executor.  ``max_workers=1`` (or a single pending
    cell) runs the jobs in-process, one at a time, through exactly the same
    :func:`execute_cell` path the pool workers use.

    Pretrained cells depend on a training job: every distinct
    :class:`TrainingSpec` among the pending cells is resolved through the
    runner's :class:`ArtifactStore` -- loaded when stored, trained exactly
    once otherwise -- and each cell then evaluates its frozen artifact.
    Federated cells resolve the same way through the :class:`FleetStore`:
    every distinct :class:`FleetSpec` trains once (its round-0 device
    training cached in the artifact store) or is served -- complete or as a
    same-lineage resume point -- from disk.  ``artifact_dir`` defaults to
    ``<cache_dir>/artifacts`` so cached sweeps also reuse their agents and
    fleets.

    Fault tolerance: ``retry_policy`` bounds how often transient failures
    (classified by :func:`repro.reliability.retry.classify_exception`)
    re-run and how long the seeded backoff between attempts is;
    ``watchdog`` prices per-job wall-clock budgets from the shard cost
    model so hung workers are detected and their jobs rescheduled; a
    broken or watchdog-expired pool is rebuilt up to ``max_pool_rebuilds``
    times before the remaining cells finish in-process.  The defaults
    enable all three with conservative settings (two retries, 20x
    cost-model budgets with a 60 s floor, two rebuilds).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        artifact_dir: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog: Optional[WatchdogPolicy] = None,
        max_pool_rebuilds: int = 2,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")
        self.max_workers = max_workers
        self.cache = ResultCache(cache_dir)
        if artifact_dir is None:
            artifact_dir = default_artifact_dir(cache_dir)
        self.artifacts = ArtifactStore(artifact_dir)
        self.fleets = FleetStore(artifact_dir)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        if watchdog is None:
            watchdog = WatchdogPolicy(cost_model=DEFAULT_COST_MODEL)
        self.watchdog = watchdog
        self.max_pool_rebuilds = max_pool_rebuilds

    def run(
        self,
        matrix: ScenarioMatrix,
        progress: Optional[ProgressCallback] = None,
        cells: Optional[List[ScenarioCell]] = None,
    ) -> SweepResult:
        """Execute the matrix and return results in cell order.

        ``cells`` restricts execution to a subset of the matrix (in the given
        order) -- the distributed shard worker passes its shard's cells here
        so one shard runs through exactly the same scheduling, caching and
        artifact-resolution paths as a whole-matrix sweep.
        """
        if cells is None:
            cells = matrix.cells()
        total = len(cells)
        slots: List[Optional[CellResult]] = [None] * total
        done = 0

        tracer = active_tracer()
        sweep_span = None
        previous_root = None
        if tracer is not None:
            sweep_span = tracer.begin(
                "sweep", matrix=getattr(matrix, "name", None), cells=total
            )
            # Export the sweep span as the parent for worker-side spans; the
            # pool inherits the updated env value at creation below.
            previous_root = tracer.sink.root
            tracer.adopt_root(sweep_span)

        def deliver(index: int, result: CellResult) -> None:
            nonlocal done
            slots[index] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

        try:
            pending: List[Tuple[int, ScenarioCell]] = []
            for index, cell in enumerate(cells):
                cached = self.cache.load(cell)
                if cached is not None:
                    deliver(index, cached)
                else:
                    pending.append((index, cell))

            workers = self.max_workers if self.max_workers is not None else os.cpu_count() or 1
            retry_states: Dict[str, RetryState] = {}
            rebuilds = 0
            while True:
                remaining = [
                    (index, cell) for index, cell in pending if slots[index] is None
                ]
                if not remaining:
                    break
                if workers <= 1 or len(remaining) <= 1 or rebuilds > self.max_pool_rebuilds:
                    # A sequential run, or a pool that broke more often than
                    # the rebuild budget allows.  Only the *remaining* cells
                    # run: everything delivered before the last restart
                    # already sits in its slot and the cache.
                    executor = _InlineExecutor()
                else:
                    executor = _PoolExecutor(min(workers, len(remaining)))
                try:
                    with executor:
                        try:
                            self._run_jobs(executor, remaining, deliver, retry_states)
                        except (KeyboardInterrupt, _PoolRestart):
                            # Abandon queued and running work so the executor's
                            # __exit__ cannot block on a hung or dead worker.
                            # Every result delivered so far is already in the
                            # cache, so a re-run (or the rebuilt pool) resumes
                            # from exactly what completed.
                            executor.abandon()
                            raise
                    break
                except _PoolRestart as restart:
                    rebuilds += 1
                    metrics().inc(
                        "watchdog.reschedules"
                        if restart.cause == "watchdog timeout"
                        else "pool.rebuilds"
                    )
                    emit_event(
                        "pool_restart", cause=restart.cause, cells=len(restart.keys)
                    )
                    for key in restart.keys:
                        state = retry_states.setdefault(key, RetryState())
                        state.record_failure(TRANSIENT, restart.cause, None)

            return SweepResult(
                matrix=matrix, results=[slot for slot in slots if slot is not None]
            )
        finally:
            if tracer is not None:
                sweep_span.note("done", done)
                tracer.end(sweep_span)
                tracer.set_root(previous_root)
                profiler = active_profiler()
                tracer.flush_metrics(
                    metrics().snapshot(),
                    profile=profiler.snapshot() if profiler is not None else None,
                )

    def _run_jobs(
        self,
        executor: Union[_InlineExecutor, _PoolExecutor],
        pending: List[Tuple[int, ScenarioCell]],
        deliver: Callable[[int, CellResult], None],
        retry_states: Dict[str, RetryState],
    ) -> None:
        """The event loop: training jobs gate only their own dependent cells.

        Missing artifacts are submitted *first* (so training starts on the
        first free workers), artifact-free cells run concurrently with the
        training phase, already-stored artifacts dispatch their cells
        immediately, and each freshly trained artifact releases its cells the
        moment it lands -- no cell ever waits on an unrelated spec.

        Federated fleets resolve through the same loop: stored fleets load up
        front (a same-lineage shallower fleet resumes), a missing fleet's
        round-0 device specs join the training queue (deduplicated against
        the cells' own specs and the artifact store), each continuation round
        is submitted as soon as the previous round's aggregation lands, and a
        fleet's cells dispatch the moment its artifact is captured.  Unrelated
        cells keep flowing while fleets train, and a fleet failure fails
        exactly its own cells, as permanent errors.

        Fault tolerance: every job sits in one map from future to
        :class:`_Job`, which carries its retry keys and watchdog deadline.  A
        transient failure (a classified error result or raised exception)
        relaunches the job after seeded backoff; a broken pool or an expired
        deadline raises :class:`_PoolRestart` carrying the retry keys of
        the jobs it voids, and :meth:`run` rebuilds the pool around
        whatever this loop already delivered.
        """
        specs: Dict[str, TrainingSpec] = {}
        fleet_specs: Dict[str, FleetSpec] = {}
        for _, cell in pending:
            spec = cell.training_spec()
            if spec is not None:
                specs.setdefault(spec.fingerprint(), spec)
            fleet = cell.fleet_spec()
            if fleet is not None:
                fleet_specs.setdefault(fleet.fingerprint(), fleet)

        jobs: Dict[Future, _Job] = {}
        # One dependency map: a cell waits on at most one fingerprint, of an
        # agent spec or a fleet spec.  ``ready`` holds the agents (round-0
        # device agents included) and fleets resolved so far.
        ready: Dict[str, StoredArtifact] = {}
        waiting: Dict[str, List[Tuple[int, ScenarioCell]]] = {}
        failed: set = set()

        # -- fleet state -------------------------------------------------------
        builds: Dict[str, FleetBuild] = {}
        device_needs: Dict[str, List[str]] = {}  # device spec fp -> fleet fps
        missing_devices: Dict[str, set] = {}  # fleet fp -> unresolved device fps
        round_buffers: Dict[str, List[Optional[Dict[str, Any]]]] = {}

        for fleet_fingerprint, fleet_spec in fleet_specs.items():
            stored = self.fleets.resolve(fleet_spec)
            if stored is not None:
                ready[fleet_fingerprint] = stored
            else:
                builds[fleet_fingerprint] = FleetBuild(
                    fleet_spec, start=self.fleets.resume_candidate(fleet_spec)
                )

        # -- artifact resolution: cell specs + fleet round-0 device specs ------
        missing: Dict[str, TrainingSpec] = {}
        for fleet_fingerprint, build in builds.items():
            if not build.needs_round0:
                continue
            unresolved = set()
            for device_spec in build.device_specs():
                fingerprint = device_spec.fingerprint()
                if fingerprint in ready:
                    continue
                if fingerprint not in missing:
                    artifact = self.artifacts.resolve(device_spec)
                    if artifact is not None:
                        ready[fingerprint] = artifact
                        continue
                    missing[fingerprint] = device_spec
                unresolved.add(fingerprint)
                device_needs.setdefault(fingerprint, []).append(fleet_fingerprint)
            if unresolved:
                missing_devices[fleet_fingerprint] = unresolved
        for fingerprint, spec in specs.items():
            if fingerprint in ready or fingerprint in missing:
                continue  # already resolved or queued as a fleet device spec
            artifact = self.artifacts.resolve(spec)
            if artifact is not None:
                ready[fingerprint] = artifact
            else:
                missing[fingerprint] = spec

        # -- launching, retrying and settling jobs -----------------------------
        def launch(job: _Job) -> None:
            """Submit ``job`` with its keys' attempt counter and arm its watchdog."""
            future = job.start(
                max(
                    retry_states[key].attempt if key in retry_states else 0
                    for key in job.keys
                )
            )
            if job.budget_s is not None:
                job.deadline = monotonic_now() + job.budget_s
            jobs[future] = job

        def retry(job: _Job, failure: _Failure) -> bool:
            """Account one failed attempt; relaunch ``job`` or return ``False``.

            Transient failures relaunch after the seeded, capped backoff
            while the retry budget lasts.  A repeated identical traceback
            marks the failure deterministic -- replaying it again cannot end
            differently -- and gives up immediately, whatever the budget.
            """
            key = job.keys[0]
            state = retry_states.setdefault(key, RetryState())
            repeated = state.record_failure(*failure)
            # state.attempt now counts failures; retries used is one fewer.
            retrying = not repeated and self.retry_policy.should_retry(
                failure.kind, state.attempt - 1
            )
            metrics().inc(f"retry.{failure.kind}")
            if not retrying:
                metrics().inc(
                    "retry.exhausted" if failure.kind == TRANSIENT else "retry.quarantined"
                )
            emit_event(
                "retry", key=key, kind=failure.kind, attempt=state.attempt,
                will_retry=retrying,
            )
            if retrying:
                delay = self.retry_policy.backoff_s(key, state.attempt)
                if delay > 0:
                    time.sleep(delay)
                launch(job)
            return retrying

        def cell_job(
            index: int, cell: ScenarioCell, artifact: Optional[StoredArtifact] = None
        ) -> _Job:
            if isinstance(artifact, FleetArtifact):
                # Don't serialise N device states per cell; evaluation only
                # reads the merged agent.
                artifact = artifact.evaluation_only()
            return _Job(
                keys=(cell.fingerprint(),),
                start=lambda attempt: executor.submit(
                    execute_cell, cell, artifact, attempt=attempt
                ),
                settle=partial(settle_cell, index, cell),
                budget_s=self.watchdog.cell_budget_s(cell),
            )

        def settle_cell(index: int, cell: ScenarioCell, job: _Job, result: Any) -> None:
            """Deliver one cell's result, or relaunch it after a transient failure."""
            if isinstance(result, _Failure):
                # execute_cell isolates workload errors itself; reaching here
                # means the executor failed this one job (e.g. an unpicklable
                # result).  Settle it like any in-band failure.
                result = CellResult(
                    cell=cell, status="error", error=result.error,
                    error_kind=result.kind, error_type=result.error_type,
                )
            key = job.keys[0]
            if result.ok:
                # Document survived failures (no-op on clean runs).
                if key in retry_states and retry_states[key].lineage:
                    result.attempts = retry_states[key].lineage_dicts()
                self.cache.store(result)
                deliver(index, result)
                return
            failure = _Failure(
                result.error_kind or PERMANENT, result.error_type or "", result.error
            )
            if not retry(job, failure):
                result.error_kind = PERMANENT
                result.attempts = retry_states[key].lineage_dicts()
                deliver(index, result)

        def batch_job(group: List[Tuple[int, ScenarioCell]]) -> _Job:
            cells = [cell for _, cell in group]
            return _Job(
                keys=tuple(cell.fingerprint() for cell in cells),
                start=lambda attempt: executor.submit(
                    execute_cells_batched, cells, attempt=attempt
                ),
                settle=partial(settle_batch, group),
                budget_s=self.watchdog.batch_budget_s(cells),
            )

        def settle_batch(
            group: List[Tuple[int, ScenarioCell]], job: _Job, results: Any
        ) -> None:
            if isinstance(results, _Failure) or len(results) != len(group):
                # The executor failed this job alone: relaunch the group's
                # cells individually, restoring the scalar path's per-cell
                # failure isolation.
                for index, cell in group:
                    launch(cell_job(index, cell))
                return
            for (index, cell), result in zip(group, results):
                settle_cell(index, cell, cell_job(index, cell), result)

        def submit_training(fingerprint: str, spec: TrainingSpec) -> None:
            launch(
                _Job(
                    keys=(fingerprint,),
                    start=lambda attempt: executor.submit(
                        train_artifact, spec, attempt=attempt
                    ),
                    settle=partial(settle_training, fingerprint, spec),
                    budget_s=self.watchdog.spec_budget_s(spec),
                )
            )

        def settle_training(
            fingerprint: str, spec: TrainingSpec, job: _Job, outcome: Any
        ) -> None:
            if isinstance(outcome, _Failure):
                if not retry(job, outcome):
                    fail(fingerprint, spec, outcome.error, outcome.error_type)
                return
            self.artifacts.accept(outcome)
            release(fingerprint, outcome)
            for fleet_fingerprint in device_needs.pop(fingerprint, ()):
                if fleet_fingerprint in failed:
                    continue
                unresolved = missing_devices[fleet_fingerprint]
                unresolved.discard(fingerprint)
                if not unresolved:
                    del missing_devices[fleet_fingerprint]
                    builds[fleet_fingerprint].provide_round0(ready)
                    advance_fleet(fleet_fingerprint)

        def release(fingerprint: str, artifact: StoredArtifact) -> None:
            """An agent or fleet is ready: launch the cells waiting on it."""
            ready[fingerprint] = artifact
            for index, cell in waiting.pop(fingerprint, ()):
                launch(cell_job(index, cell, artifact))

        def fail(
            fingerprint: str, spec: ArtifactSpec, details: str, error_type: Optional[str]
        ) -> None:
            """An agent or fleet failed to train for good: fail what waits on it.

            Its cells report the failure without occupying workers (errors are
            never cached), and every fleet whose round 0 needed it fails too.
            """
            error = _training_error(fingerprint, spec, details)
            failed.add(fingerprint)
            round_buffers.pop(fingerprint, None)
            for index, cell in waiting.pop(fingerprint, ()):
                deliver(
                    index,
                    CellResult(
                        cell=cell, status="error", error=error,
                        error_kind=PERMANENT, error_type=error_type,
                    ),
                )
            for fleet_fingerprint in device_needs.pop(fingerprint, ()):
                if fleet_fingerprint not in failed:
                    fail(
                        fleet_fingerprint, fleet_specs[fleet_fingerprint], error, None
                    )

        def advance_fleet(fleet_fingerprint: str) -> None:
            """Launch the build's next round as device chunks, or release it.

            The batch route puts every device in one job, which steps the
            whole fleet through the batched device-population kernel --
            bit-identical to one job per device (the federated parity tests
            pin it), but the round costs one worker instead of N.
            """
            build = builds[fleet_fingerprint]
            if build.finished:
                artifact = build.artifact()
                self.fleets.accept(artifact, resumed=build.resumed)
                release(fleet_fingerprint, artifact)
                return
            round_index, round_jobs = build.round_jobs()
            batched = routes_to_batch(
                round_route(round_jobs), "devices", batch_kernel_available
            )
            round_buffers[fleet_fingerprint] = [None] * len(round_jobs)
            key = f"{fleet_fingerprint}:r{round_index}"
            chunks = [round_jobs] if batched else [[args] for args in round_jobs]
            for device, chunk in enumerate(chunks):
                launch(
                    _Job(
                        keys=(key if batched else f"{key}:d{device}",),
                        start=partial(submit_round, chunk, batched),
                        settle=partial(
                            settle_round, fleet_fingerprint, round_index, device
                        ),
                        budget_s=self.watchdog.round_budget_s(chunk),
                    )
                )

        def submit_round(
            chunk: List[Tuple[Any, ...]], batched: bool, attempt: int
        ) -> Future:
            if batched:
                return executor.submit(
                    train_device_rounds_batched, chunk, attempt=attempt
                )
            return executor.submit(train_device_round, *chunk[0], attempt=attempt)

        def settle_round(
            fleet_fingerprint: str, round_index: int, first: int, job: _Job, states: Any
        ) -> None:
            if fleet_fingerprint in failed:
                return  # a sibling device job already doomed it
            if isinstance(states, _Failure):
                if not retry(job, states):
                    spec = fleet_specs[fleet_fingerprint]
                    fail(fleet_fingerprint, spec, states.error, None)
                return
            if isinstance(states, dict):
                states = [states]  # a per-device job returns its one state
            buffer = round_buffers[fleet_fingerprint]
            buffer[first : first + len(states)] = states
            if all(entry is not None for entry in buffer):
                del round_buffers[fleet_fingerprint]
                builds[fleet_fingerprint].finish_round(round_index, buffer)
                advance_fleet(fleet_fingerprint)

        # -- initial submissions -----------------------------------------------
        for fingerprint, spec in missing.items():
            submit_training(fingerprint, spec)

        # Kick off fleets that need no round-0 training: resumed lineages,
        # and fleets whose device artifacts were all served from the store.
        for fleet_fingerprint, build in builds.items():
            if not build.needs_round0:
                advance_fleet(fleet_fingerprint)
            elif fleet_fingerprint not in missing_devices:
                build.provide_round0(ready)
                advance_fleet(fleet_fingerprint)

        # Artifact-free cells group and chunk so a pool still spreads a large
        # sweep across its workers.  A chunk runs on the batch kernel only
        # when the cost model predicts that beats running its cells one by
        # one; every other cell (trained, federated, singleton, or in a
        # chunk below the crossover) dispatches per cell below.
        cell_groups, dispatch = batchable_cell_groups(
            pending, workers=executor.workers
        )
        for group in cell_groups:
            route = cell_route([cell for _, cell in group])
            if routes_to_batch(route, "cells", batch_kernel_available):
                launch(batch_job(group))
            else:
                dispatch.extend(group)
        dispatch.sort(key=lambda pair: pair[0])

        for index, cell in dispatch:
            spec = cell.fleet_spec() or cell.training_spec()
            fingerprint = None if spec is None else spec.fingerprint()
            if fingerprint is None or fingerprint in ready:
                launch(cell_job(index, cell, ready.get(fingerprint)))
            else:
                # Nothing has completed yet, so nothing has failed: the
                # cells of every unresolved agent or fleet simply queue.
                waiting.setdefault(fingerprint, []).append((index, cell))

        # -- the loop ----------------------------------------------------------
        while jobs:
            deadline = min(job.deadline for job in jobs.values())
            finished = executor.step(
                jobs, None if deadline == math.inf else max(0.0, deadline - monotonic_now())
            )
            if not finished:
                # The wait timed out on a watchdog deadline.  Anything past
                # its budget is presumed hung: tear the pool down (run()
                # rebuilds it) rather than let one stuck worker stall the
                # sweep forever.
                now = monotonic_now()
                expired = [
                    job
                    for future, job in jobs.items()
                    if job.deadline <= now and not future.done()
                ]
                if expired:
                    # The teardown also voids the jobs on the other workers,
                    # so they count a failed attempt too: a sibling hung by
                    # the same first-attempt fault must not rerun at attempt
                    # 0 and spend a second budget.  Futures turn running in
                    # submission order, and the pool marks up to workers + 1
                    # queued ones running ahead of time, so the first
                    # ``workers`` running jobs are those on a worker.  Jobs
                    # still queued never started and keep their retry budget.
                    running = [job for future, job in jobs.items() if future.running()]
                    raise _PoolRestart(
                        "watchdog timeout", [*expired, *running[: executor.workers]]
                    )
                continue
            try:
                for future in finished:
                    job = jobs.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        raise _PoolRestart("worker crash", [*jobs.values(), job])
                    except Exception as exc:
                        outcome = _Failure(
                            classify_exception(exc),
                            type(exc).__name__,
                            traceback.format_exc(),
                        )
                    job.settle(job, outcome)
            except BrokenExecutor:
                # The pool died while a handler was resubmitting work.  The
                # job being handled may lose its bump this round; its fault
                # simply fires once more on the rebuilt pool and the next
                # restart bumps it -- the rebuild budget still bounds the
                # total.
                raise _PoolRestart("worker crash", jobs.values())


def run_matrix(
    matrix: ScenarioMatrix,
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    retry_policy: Optional[RetryPolicy] = None,
    watchdog: Optional[WatchdogPolicy] = None,
    max_pool_rebuilds: int = 2,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    runner = SweepRunner(
        max_workers=max_workers,
        cache_dir=cache_dir,
        artifact_dir=artifact_dir,
        retry_policy=retry_policy,
        watchdog=watchdog,
        max_pool_rebuilds=max_pool_rebuilds,
    )
    return runner.run(matrix, progress=progress)
