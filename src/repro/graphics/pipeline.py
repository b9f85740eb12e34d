"""Frame rendering pipeline whose speed follows the cluster frequencies.

A frame on Android goes through a CPU stage (input handling, view traversal,
display-list building, driver work) and a GPU stage (rasterisation and
composition).  Both stages speed up with the frequency of the cluster that
executes them, which is precisely the lever DVFS gives a governor: lower the
frequency too far and frames miss their VSync deadline; keep it needlessly
high and power is wasted on frames that would have met the deadline anyway.

Work is expressed in *mega work units* (Mwu): one Mwu is the work one big
(Mongoose M3 class) core completes in one mega-cycle.  The conversion to
seconds is therefore ``work / (frequency_mhz * perf_per_mhz * cores)``.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.soc.cluster import Cluster
from repro.soc.frequency import flat_table
from repro.graphics.vsync import VsyncClock


class FrameSpec(namedtuple("FrameSpec", ("cpu_work_mwu", "gpu_work_mwu"))):
    """Work content of one frame, as the ``(cpu, gpu)`` pair a :class:`FrameQueue` takes.

    Attributes
    ----------
    cpu_work_mwu:
        CPU-stage work in mega work units (big-core-cycle equivalents).
    gpu_work_mwu:
        GPU-stage work in mega work units (GPU-core-cycle equivalents).
    """

    __slots__ = ()

    def __new__(cls, cpu_work_mwu: float, gpu_work_mwu: float) -> "FrameSpec":
        if cpu_work_mwu < 0 or gpu_work_mwu < 0:
            raise ValueError("frame work must be non-negative")
        return tuple.__new__(cls, (cpu_work_mwu, gpu_work_mwu))


#: One frame as a :class:`FrameQueue` reads it: ``(cpu_work_mwu, gpu_work_mwu)``.
Frame = Tuple[float, float]


@dataclass
class PipelineConfig:
    """Static configuration of the rendering pipeline.

    Attributes
    ----------
    big_cluster:
        Name of the big CPU cluster (UI and render threads prefer it).
    little_cluster:
        Name of the LITTLE CPU cluster (helper threads).
    gpu_cluster:
        Name of the GPU cluster.
    ui_big_cores:
        Equivalent number of big cores the UI/render threads can use.
    ui_little_cores:
        Equivalent number of LITTLE cores contributing to the CPU stage.
    gpu_core_fraction:
        Fraction of GPU cores available to the foreground app.
    max_pending_frames:
        Demanded-but-not-started frames kept before new demands are rejected
        (the app itself skips producing them, as Choreographer does).
    """

    big_cluster: str = "big"
    little_cluster: str = "little"
    gpu_cluster: str = "gpu"
    ui_big_cores: float = 1.6
    ui_little_cores: float = 1.0
    gpu_core_fraction: float = 1.0
    max_pending_frames: int = 2

    def __post_init__(self) -> None:
        if self.ui_big_cores < 0 or self.ui_little_cores < 0:
            raise ValueError("core shares must be non-negative")
        if self.ui_big_cores == 0 and self.ui_little_cores == 0:
            raise ValueError("the CPU stage needs at least some core share")
        if not 0 < self.gpu_core_fraction <= 1.0:
            raise ValueError("gpu_core_fraction must be in (0, 1]")
        if self.max_pending_frames < 1:
            raise ValueError("max_pending_frames must be at least 1")


@dataclass
class TickResult:
    """Outcome of advancing the pipeline by one simulation tick.

    Attributes
    ----------
    frames_displayed:
        Frames latched to the panel during this tick.
    frames_dropped:
        Demanded frames that the pipeline could not accept because it was
        saturated (its pending queue was full).  These frames will never be
        rendered -- they are the stutter the user perceives, and the QoS
        signal the Next agent's reward penalises.
    frames_completed:
        Frames that finished rendering (entered a back buffer) this tick.
    vsync_misses:
        VSync edges during this tick at which the panel had to repeat the
        previous front buffer although frames were demanded this tick or
        were still in flight.  This is informational: at demand rates below
        the refresh rate repeats are normal and do not indicate a QoS
        problem.
    utilisations:
        Resulting utilisation per cluster (work processed / capacity).
    work_done_mwu:
        Work processed per cluster this tick, in mega work units.
    """

    frames_displayed: int
    frames_dropped: int
    frames_completed: int
    vsync_misses: int
    utilisations: Mapping[str, float]
    work_done_mwu: Mapping[str, float]


class FrameQueue:
    """One device's frames, from demand to the panel.

    Demanded frames wait in a bounded pending queue, pass through the CPU
    stage and then the GPU stage, enter a back buffer (or wait for one while
    all are full) and are latched to the panel one per VSync edge.
    :meth:`step` advances all of it by one tick; :class:`FramePipeline` and
    every lane of :class:`BatchFramePipeline` step their frames through it.
    """

    def __init__(self, max_pending_frames: int, back_buffer_count: int) -> None:
        if back_buffer_count < 1:
            raise ValueError("at least one back buffer is required")
        self.max_pending = max_pending_frames
        self.back_buffers = back_buffer_count
        self.reset()

    def reset(self) -> None:
        """Drop every frame: pending, in a stage or in a buffer."""
        self.pending: Deque[Frame] = deque()
        #: The frame in the CPU stage (``None``: empty) and its remaining work.
        self.cpu_frame: Optional[Frame] = None
        self.cpu_remaining = 0.0
        #: Remaining work of the frame in the GPU stage (``None``: empty).
        self.gpu_remaining: Optional[float] = None
        #: Rendered frames waiting for a free back buffer.
        self.waiting = 0
        #: Rendered frames in back buffers, ready to be latched.
        self.ready = 0

    @property
    def in_flight(self) -> int:
        """Frames demanded or being rendered but not yet displayed."""
        return (
            len(self.pending)
            + (self.cpu_frame is not None)
            + (self.gpu_remaining is not None)
            + self.waiting
            + self.ready
        )

    def step(
        self,
        frames: Sequence[Frame],
        cpu_budget: float,
        gpu_budget: float,
        edge_count: int,
    ) -> Tuple[int, int, float, float, int]:
        """Advance one tick: ``(displayed, rejected, cpu_done, gpu_done, completed)``.

        ``frames`` are this tick's demands, in order, as ``(cpu, gpu)`` work
        pairs (a :class:`FrameSpec` is one); each one that finds
        ``max_pending`` frames already waiting is rejected.  ``cpu_budget``
        and ``gpu_budget`` are the work each stage can process this tick
        (``rate * dt_s``); ``cpu_done`` and ``gpu_done`` are the work it
        did.  ``completed`` frames finished both stages, and each of the
        tick's ``edge_count`` VSync edges latches one ready frame.
        """
        pending = self.pending
        cpu_frame = self.cpu_frame
        gpu_remaining = self.gpu_remaining
        waiting = self.waiting
        ready = self.ready
        if (
            not frames
            and cpu_frame is None
            and gpu_remaining is None
            and not pending
            and not waiting
            and not ready
        ):
            # Idle: nothing demanded, queued, rendering or buffered.
            return 0, 0, 0.0, 0.0, 0

        rejected = 0
        if frames:
            max_pending = self.max_pending
            for frame in frames:
                if len(pending) >= max_pending:
                    rejected += 1
                    continue
                pending.append(frame)

        # Frames that found every back buffer full take the freed ones.
        back_buffers = self.back_buffers
        while waiting > 0 and ready < back_buffers:
            ready += 1
            waiting -= 1

        cpu_remaining = self.cpu_remaining
        cpu_done = 0.0
        gpu_done = 0.0
        completed = 0
        # Drain the two stages; they pipeline (CPU of frame N+1 overlaps GPU of
        # frame N) because both budgets refer to the same wall-clock interval.
        progress = True
        while progress:
            progress = False

            # GPU stage.
            if gpu_remaining is not None and gpu_budget > 1e-12:
                done = gpu_remaining if gpu_remaining < gpu_budget else gpu_budget
                gpu_remaining -= done
                gpu_budget -= done
                gpu_done += done
                if gpu_remaining <= 1e-9:
                    gpu_remaining = None
                    completed += 1
                    if ready < back_buffers:
                        ready += 1
                    else:
                        waiting += 1
                    progress = True

            # CPU stage.
            if cpu_frame is None and pending:
                cpu_frame = pending.popleft()
                cpu_remaining = cpu_frame[0]
                progress = True
            if cpu_frame is not None and cpu_budget > 1e-12:
                done = cpu_remaining if cpu_remaining < cpu_budget else cpu_budget
                cpu_remaining -= done
                cpu_budget -= done
                cpu_done += done
                if cpu_remaining <= 1e-9 and gpu_remaining is None:
                    gpu_remaining = cpu_frame[1]
                    if gpu_remaining <= 1e-9:
                        gpu_remaining = None
                        completed += 1
                        if ready < back_buffers:
                            ready += 1
                        else:
                            waiting += 1
                    cpu_frame = None
                    progress = True

        displayed = ready if ready < edge_count else edge_count
        self.ready = ready - displayed
        self.waiting = waiting
        self.cpu_frame = cpu_frame
        self.cpu_remaining = cpu_remaining
        self.gpu_remaining = gpu_remaining
        return displayed, rejected, cpu_done, gpu_done, completed


def _stage_records(config: PipelineConfig, clusters: Mapping[str, Cluster]):
    """``(cluster_name, cluster, perf_per_mhz, core_share)`` of each stage.

    In big, little, GPU order, ``None`` for a stage whose cluster is absent.
    The two CPU stages' core shares are clamped to their cluster's core
    count; the GPU stage gets a fraction of all its cores.
    """
    records = []
    for name, ui_cores in (
        (config.big_cluster, config.ui_big_cores),
        (config.little_cluster, config.ui_little_cores),
        (config.gpu_cluster, None),
    ):
        if name not in clusters:
            records.append(None)
            continue
        cluster = clusters[name]
        count = cluster.spec.core_count
        cores = count * config.gpu_core_fraction if ui_cores is None else min(ui_cores, count)
        records.append((name, cluster, cluster.spec.perf_per_mhz, cores))
    return records


#: Shared empty mapping for ticks without background work (read-only use).
_NO_BACKGROUND: Mapping[str, float] = {}


class FramePipeline:
    """CPU-stage / GPU-stage frame renderer with triple buffering."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        refresh_hz: float = 60.0,
        back_buffer_count: int = 2,
    ) -> None:
        self.config = config or PipelineConfig()
        self.vsync = VsyncClock(refresh_hz=refresh_hz)
        self.queue = FrameQueue(self.config.max_pending_frames, back_buffer_count)
        self._time_s = 0.0
        # Compiled rate helpers: the cluster mapping handed to tick() is the
        # same object every tick, so the big/little/gpu lookups and core-share
        # clamps are resolved once and reused (hot loop).
        self._compiled_for: Optional[Mapping[str, Cluster]] = None
        self._rate_big: Optional[Tuple[Cluster, float, float]] = None
        self._rate_little: Optional[Tuple[Cluster, float, float]] = None
        self._rate_gpu: Optional[Tuple[Cluster, float, float]] = None
        self._cluster_names: Tuple[str, ...] = ()
        self._util_items: List[Tuple[str, Cluster, Tuple[float, ...], float, int]] = []

    # -- configuration helpers ----------------------------------------------------

    @property
    def refresh_hz(self) -> float:
        """Panel refresh rate driving the VSync clock."""
        return self.vsync.refresh_hz

    @property
    def time_s(self) -> float:
        """Internal pipeline time (advanced by :meth:`tick`)."""
        return self._time_s

    @property
    def frames_in_flight(self) -> int:
        """Frames demanded or being rendered but not yet displayed."""
        return self.queue.in_flight

    def reset(self) -> None:
        """Reset all pipeline state (buffers, stages, VSync phase)."""
        self.vsync.reset()
        self.queue.reset()
        self._time_s = 0.0

    # -- rates ----------------------------------------------------------------------

    def _compile_rates(self, clusters: Mapping[str, Cluster]) -> None:
        """Resolve cluster references and core shares for this cluster mapping."""
        self._rate_big, self._rate_little, self._rate_gpu = [
            None if record is None else record[1:]
            for record in _stage_records(self.config, clusters)
        ]
        self._cluster_names = tuple(clusters)
        #: Per-cluster records for the utilisation loop:
        #: ``(name, cluster, frequencies, perf_per_mhz, core_count)``.
        self._util_items = [
            (name, c, c._freqs, c.spec.perf_per_mhz, c.spec.core_count)
            for name, c in clusters.items()
        ]
        self._compiled_for = clusters

    # -- main step --------------------------------------------------------------------

    def tick(
        self,
        dt_s: float,
        clusters: Mapping[str, Cluster],
        frame_demands: Sequence[Frame],
        background_work_mwu: Optional[Mapping[str, float]] = None,
    ) -> TickResult:
        """Advance the pipeline by ``dt_s`` seconds.

        Parameters
        ----------
        dt_s:
            Tick length in seconds (typically one VSync period).
        clusters:
            Live cluster objects; their *current* frequencies determine the
            processing rates during this tick.
        frame_demands:
            Frames the application wants rendered this tick (in order), as
            ``(cpu, gpu)`` work pairs.
        background_work_mwu:
            Non-frame work demanded per cluster this tick (audio decode,
            networking, loading...), in mega work units.

        Returns
        -------
        TickResult
            Frame accounting plus the utilisation of every cluster.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if background_work_mwu is None:
            background_work_mwu = _NO_BACKGROUND
        cfg = self.config

        # Stage rates at the current frequencies (hot loop: three slots).
        if clusters is not self._compiled_for:
            self._compile_rates(clusters)
        big_rate = 0.0
        little_rate = 0.0
        rate = self._rate_big
        if rate is not None:
            cluster, perf, cores = rate
            big_rate = cluster._freqs[cluster._current_index] * perf * cores
        rate = self._rate_little
        if rate is not None:
            cluster, perf, cores = rate
            little_rate = cluster._freqs[cluster._current_index] * perf * cores
        cpu_rate = big_rate + little_rate
        rate = self._rate_gpu
        if rate is not None:
            cluster, perf, cores = rate
            gpu_rate = cluster._freqs[cluster._current_index] * perf * cores
        else:
            gpu_rate = 0.0

        self._time_s = end_time = self._time_s + dt_s
        edge_count = len(self.vsync.edges_until(end_time))
        queue = self.queue
        displayed, rejected, cpu_frame_work_done, gpu_frame_work_done, completed = (
            queue.step(frame_demands, cpu_rate * dt_s, gpu_rate * dt_s, edge_count)
        )
        # An edge with no ready frame repeats the front buffer: a miss while
        # frames were demanded or are still being rendered.
        misses = edge_count - displayed
        if misses and not frame_demands and not queue.in_flight:
            misses = 0

        # Attribute frame CPU work to the two CPU clusters in proportion to the
        # rate they contributed, then add background work up to spare capacity.
        work_done: Dict[str, float] = dict.fromkeys(self._cluster_names, 0.0)
        if cpu_rate > 0:
            if cfg.big_cluster in work_done:
                work_done[cfg.big_cluster] += cpu_frame_work_done * (big_rate / cpu_rate)
            if cfg.little_cluster in work_done:
                work_done[cfg.little_cluster] += cpu_frame_work_done * (
                    little_rate / cpu_rate
                )
        if cfg.gpu_cluster in work_done:
            work_done[cfg.gpu_cluster] += gpu_frame_work_done

        utilisations: Dict[str, float] = {}
        background_get = background_work_mwu.get
        for name, cluster, freqs, perf, cores in self._util_items:
            capacity = (freqs[cluster._current_index] * perf * cores) * dt_s
            background = background_get(name, 0.0)
            done = work_done[name]
            if capacity <= 0:
                utilisations[name] = 1.0 if (background > 0 or done > 0) else 0.0
                continue
            spare = capacity - done
            if spare < 0.0:
                spare = 0.0
            background_done = background if background < spare else spare
            done += background_done
            work_done[name] = done
            ratio = done / capacity
            utilisations[name] = ratio if ratio < 1.0 else 1.0

        return TickResult(
            frames_displayed=displayed,
            frames_dropped=rejected,
            frames_completed=completed,
            vsync_misses=misses,
            utilisations=utilisations,
            work_done_mwu=work_done,
        )


class BatchFramePipeline:
    """:class:`FramePipeline` widened by a device axis.

    One instance steps the render pipelines of N independent devices that
    share a platform (same cluster layout, refresh rate and tick length).
    Each device's frames go through a :class:`FrameQueue` of its own
    (:attr:`queues`), which the batch kernel steps once per lane per tick
    with that lane's budgets; the VSync clock is purely time-driven and
    therefore shared -- every device sees the same edge times, so the edge
    count per tick is computed once (:meth:`advance_time`).  Stage rates
    (:meth:`batch_rates`), work attribution and utilisation
    (:meth:`batch_finish`) are vectorised across devices and bit-identical
    per lane to :meth:`FramePipeline.tick`.
    """

    def __init__(
        self,
        config: PipelineConfig,
        refresh_hz: float,
        clusters: Mapping[str, Cluster],
        n_devices: int,
        back_buffer_count: int = 2,
    ) -> None:
        self.config = config
        #: The big / little / gpu stage records (see :func:`_stage_records`).
        self._stages = _stage_records(config, clusters)
        #: Per-cluster ``(name, frequencies, perf_per_mhz, core_count)`` for
        #: the utilisation loop, in compiled cluster order.
        self._util_records = [
            (name, c._freqs, c.spec.perf_per_mhz, c.spec.core_count)
            for name, c in clusters.items()
        ]
        self.vsync = VsyncClock(refresh_hz=refresh_hz)
        self._time_s = 0.0
        #: One frame queue per device.
        self.queues = [
            FrameQueue(config.max_pending_frames, back_buffer_count)
            for _ in range(n_devices)
        ]
        self._np_tables: Optional[_BatchPipelineTables] = None

    def advance_time(self, dt_s: float) -> int:
        """Advance the shared VSync clock by ``dt_s``; return the edge count."""
        self._time_s += dt_s
        return len(self.vsync.edges_until(self._time_s))

    def _batch_tables(self) -> "_BatchPipelineTables":
        """NumPy tables for the batched methods, compiled on first use."""
        tables = self._np_tables
        if tables is None:
            tables = self._np_tables = _BatchPipelineTables(self)
        return tables

    def batch_rates(self, current_rows):
        """Per-device stage rates for the current OPP indices.

        ``current_rows`` is the ``(clusters, devices)`` index array; returns
        ``(rates, cpu_rate, gpu_rate)``: ``rates`` holds one row per present
        stage record (big, little, gpu, in that order) and the two others
        are ``(devices,)`` arrays.  Each rate is one gather from a per-OPP
        table of the scalar pipeline's ``freqs[index] * perf_per_mhz *
        cores`` products (computed once in Python floats), and ``cpu_rate``
        adds big and little (an absent record is ``0.0``) as the scalar
        pipeline does, so the rates -- and the budgets derived from them --
        are bit-identical per device.
        """
        import numpy as np

        tables = self._batch_tables()
        if not tables.one_record_per_cluster:
            current_rows = current_rows[tables.rate_rows]
        rates = tables.rate_flat[current_rows + tables.rate_offsets]
        big, little, gpu = tables.big, tables.little, tables.gpu
        zero = None
        if big is None or little is None or gpu is None:
            zero = np.zeros(current_rows.shape[1], dtype=np.float64)
        cpu_rate = (zero if big is None else rates[big]) + (
            zero if little is None else rates[little]
        )
        return rates, cpu_rate, (zero if gpu is None else rates[gpu])

    def batch_finish(
        self,
        current_rows,
        cpu_done,
        gpu_done,
        rates,
        cpu_rate,
        background_rows,
        dt_s: float,
        util_out,
    ) -> None:
        """Work attribution and utilisation, vectorised over devices.

        ``cpu_done``/``gpu_done`` are ``(devices,)`` arrays of per-stage work
        completed this tick; ``rates`` and ``cpu_rate`` come from
        :meth:`batch_rates`; ``background_rows`` is the ``(clusters,
        devices)`` background demand.  Writes utilisations into ``util_out``
        (``(clusters, devices)``).  Every step is one whole-array call.  Per
        lane the float sequence is exactly the scalar pipeline's: attribution
        adds ``cpu_done * (rate / cpu_rate)`` for big then little (skipped,
        i.e. ``0.0``, when ``cpu_rate`` is not positive) and then the GPU
        work onto ``0.0`` in record order -- one add when every cluster has
        exactly one record, in cluster order (both registered platforms);
        otherwise ``np.add.at``, which applies repeated rows in order -- and
        utilisation is ``(done + min(background, spare)) / capacity``
        clamped to ``[0, 1]``, with the scalar pipeline's capacity-zero case
        applied only when some capacity at this ``dt_s`` is not positive
        (never, unless a product underflows: every OPP, ``perf_per_mhz`` and
        core count is positive).
        """
        import numpy as np

        tables = self._batch_tables()
        shares = np.divide(
            rates,
            cpu_rate,
            out=np.zeros(rates.shape, dtype=np.float64),
            where=tables.cpu_record & (cpu_rate > 0),
        )
        parts = np.where(tables.cpu_record, cpu_done * shares, gpu_done)
        if tables.one_record_per_cluster:
            done = 0.0 + parts
        else:
            done = np.zeros(util_out.shape, dtype=np.float64)
            np.add.at(done, tables.rate_rows, parts)

        capacity_dt, all_positive = tables.capacities(dt_s)
        capacity = capacity_dt[current_rows + tables.capacity_offsets]
        background_done = capacity - done  # the spare capacity, first
        np.copyto(background_done, 0.0, where=background_done < 0.0)
        np.copyto(background_done, background_rows, where=background_rows < background_done)
        total = done + background_done
        if all_positive:
            ratio = total / capacity
        else:
            empty = capacity <= 0
            ratio = np.divide(total, capacity, out=np.zeros(capacity.shape), where=~empty)
        np.copyto(util_out, np.where(ratio < 1.0, ratio, 1.0))
        if not all_positive:
            saturated = np.where((background_rows > 0) | (done > 0), 1.0, 0.0)
            np.copyto(util_out, saturated, where=empty)


class _BatchPipelineTables:
    """Flat NumPy tables behind :class:`BatchFramePipeline`'s batched methods.

    ``rate_flat`` holds each stage record's per-OPP rate and
    :meth:`capacities` each cluster's per-OPP capacity, both as the scalar
    pipeline's Python-float products (``freqs[i] * perf_per_mhz * cores``),
    concatenated with per-row offset columns so one gather reads every
    row.  ``rate_rows`` maps each record (big, little, gpu order, the
    present ones) to its cluster row (``one_record_per_cluster`` when that
    is every cluster, in order); ``big`` / ``little`` / ``gpu`` are record
    positions (``None`` when absent) and ``cpu_record`` marks the big and
    little records' rows.
    """

    def __init__(self, pipeline: "BatchFramePipeline") -> None:
        import numpy as np

        records = [
            (role, record)
            for role, record in zip(("big", "little", "gpu"), pipeline._stages)
            if record is not None
        ]
        positions = {role: position for position, (role, _) in enumerate(records)}
        self.big = positions.get("big")
        self.little = positions.get("little")
        self.gpu = positions.get("gpu")
        names = [name for name, *_ in pipeline._util_records]
        rows = [names.index(record[0]) for _, record in records]
        self.rate_rows = np.array(rows, dtype=np.int64)
        self.one_record_per_cluster = rows == list(range(len(names)))
        self.rate_flat, self.rate_offsets = flat_table(
            [
                [f * perf * cores for f in cluster._freqs]
                for _, (_name, cluster, perf, cores) in records
            ]
        )
        self.cpu_record = np.array(
            [name != "gpu" for name, _ in records], dtype=bool
        )[:, None]
        self._capacity_rates = [
            [f * perf * cores for f in freqs]
            for _name, freqs, perf, cores in pipeline._util_records
        ]
        _, self.capacity_offsets = flat_table(self._capacity_rates)
        self._capacities = {}

    def capacities(self, dt_s: float):
        """``(flat, all_positive)``: each cluster's per-OPP capacity over ``dt_s``.

        The scalar pipeline's ``(freqs[i] * perf_per_mhz * cores) * dt_s``
        in Python floats, laid out like ``capacity_offsets``; built once
        per tick length.
        """
        entry = self._capacities.get(dt_s)
        if entry is None:
            flat, _ = flat_table(
                [[rate * dt_s for rate in row] for row in self._capacity_rates]
            )
            entry = self._capacities[dt_s] = (flat, bool((flat > 0).all()))
        return entry
