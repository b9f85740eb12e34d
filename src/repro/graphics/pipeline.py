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

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.soc.cluster import Cluster
from repro.soc.frequency import flat_table
from repro.graphics.vsync import BufferQueue, VsyncClock


@dataclass(frozen=True)
class FrameSpec:
    """Work content of one frame.

    Attributes
    ----------
    cpu_work_mwu:
        CPU-stage work in mega work units (big-core-cycle equivalents).
    gpu_work_mwu:
        GPU-stage work in mega work units (GPU-core-cycle equivalents).
    """

    cpu_work_mwu: float
    gpu_work_mwu: float

    def __post_init__(self) -> None:
        if self.cpu_work_mwu < 0 or self.gpu_work_mwu < 0:
            raise ValueError("frame work must be non-negative")


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
        previous front buffer although frames were in flight.  This is
        informational: at demand rates below the refresh rate repeats are
        normal and do not indicate a QoS problem.
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

    @property
    def frames_rejected(self) -> int:
        """Alias of :attr:`frames_dropped` (kept for clarity at call sites)."""
        return self.frames_dropped


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
        self.buffers = BufferQueue(back_buffer_count=back_buffer_count)
        self._pending: Deque[FrameSpec] = deque()
        self._cpu_stage: Optional[List[float]] = None  # [remaining cpu work]
        self._cpu_stage_frame: Optional[FrameSpec] = None
        self._gpu_stage_remaining: Optional[float] = None
        self._completed_waiting_buffer = 0
        self._time_s = 0.0
        # Compiled rate helpers: the cluster mapping handed to tick() is the
        # same object every tick, so the big/little/gpu lookups and core-share
        # clamps are resolved once and reused (hot loop).
        self._compiled_for: Optional[Mapping[str, Cluster]] = None
        self._rate_big: Optional[Tuple[Cluster, float, float]] = None
        self._rate_little: Optional[Tuple[Cluster, float, float]] = None
        self._rate_gpu: Optional[Tuple[Cluster, float, float]] = None
        self._cluster_items: List[Tuple[str, Cluster]] = []
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
        in_stages = int(self._cpu_stage_frame is not None) + int(
            self._gpu_stage_remaining is not None
        )
        return (
            len(self._pending)
            + in_stages
            + self._completed_waiting_buffer
            + self.buffers.ready_frames
        )

    def reset(self) -> None:
        """Reset all pipeline state (buffers, stages, VSync phase)."""
        self.vsync.reset()
        self.buffers.reset()
        self._pending.clear()
        self._cpu_stage = None
        self._cpu_stage_frame = None
        self._gpu_stage_remaining = None
        self._completed_waiting_buffer = 0
        self._time_s = 0.0

    # -- rates ----------------------------------------------------------------------

    def _compile_rates(self, clusters: Mapping[str, Cluster]) -> None:
        """Resolve cluster references and core shares for this cluster mapping."""
        cfg = self.config
        self._rate_big = None
        self._rate_little = None
        self._rate_gpu = None
        if cfg.big_cluster in clusters:
            big = clusters[cfg.big_cluster]
            cores = min(cfg.ui_big_cores, big.spec.core_count)
            self._rate_big = (big, big.spec.perf_per_mhz, cores)
        if cfg.little_cluster in clusters:
            little = clusters[cfg.little_cluster]
            cores = min(cfg.ui_little_cores, little.spec.core_count)
            self._rate_little = (little, little.spec.perf_per_mhz, cores)
        if cfg.gpu_cluster in clusters:
            gpu = clusters[cfg.gpu_cluster]
            cores = gpu.spec.core_count * cfg.gpu_core_fraction
            self._rate_gpu = (gpu, gpu.spec.perf_per_mhz, cores)
        self._cluster_items = list(clusters.items())
        #: Per-cluster records for the utilisation loop:
        #: ``(name, cluster, frequencies, perf_per_mhz, core_count)``.
        self._util_items = [
            (name, c, c._freqs, c.spec.perf_per_mhz, c.spec.core_count)
            for name, c in clusters.items()
        ]
        self._compiled_for = clusters

    def _cpu_rate_mwu_per_s(self, clusters: Mapping[str, Cluster]) -> Tuple[float, float, float]:
        """CPU-stage processing rate and the big/little split of that rate."""
        if clusters is not self._compiled_for:
            self._compile_rates(clusters)
        big_rate = 0.0
        little_rate = 0.0
        if self._rate_big is not None:
            big, perf, cores = self._rate_big
            big_rate = big._freqs[big._current_index] * perf * cores
        if self._rate_little is not None:
            little, perf, cores = self._rate_little
            little_rate = little._freqs[little._current_index] * perf * cores
        return big_rate + little_rate, big_rate, little_rate

    def _gpu_rate_mwu_per_s(self, clusters: Mapping[str, Cluster]) -> float:
        """GPU-stage processing rate."""
        if clusters is not self._compiled_for:
            self._compile_rates(clusters)
        if self._rate_gpu is None:
            return 0.0
        gpu, perf, cores = self._rate_gpu
        return gpu._freqs[gpu._current_index] * perf * cores

    # -- main step --------------------------------------------------------------------

    def tick(
        self,
        dt_s: float,
        clusters: Mapping[str, Cluster],
        frame_demands: List[FrameSpec],
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
            Frames the application wants rendered this tick (in order).
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
        pending = self._pending

        rejected = 0
        if frame_demands:
            max_pending = cfg.max_pending_frames
            for frame in frame_demands:
                if len(pending) >= max_pending:
                    rejected += 1
                    continue
                pending.append(frame)

        # Inlined _cpu_rate_mwu_per_s / _gpu_rate_mwu_per_s (hot loop).
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

        cpu_budget = cpu_rate * dt_s
        gpu_budget = gpu_rate * dt_s
        cpu_frame_work_done = 0.0
        gpu_frame_work_done = 0.0
        completed = 0

        # Try to push any frame that already finished both stages but found the
        # buffer queue full on a previous tick.
        while self._completed_waiting_buffer > 0 and self.buffers.can_queue:
            self.buffers.queue_frame()
            self._completed_waiting_buffer -= 1

        # Drain the two stages; they pipeline (CPU of frame N+1 overlaps GPU of
        # frame N) because both budgets refer to the same wall-clock interval.
        progress = True
        while progress:
            progress = False

            # GPU stage.
            if self._gpu_stage_remaining is not None and gpu_budget > 1e-12:
                done = min(self._gpu_stage_remaining, gpu_budget)
                self._gpu_stage_remaining -= done
                gpu_budget -= done
                gpu_frame_work_done += done
                if self._gpu_stage_remaining <= 1e-9:
                    self._gpu_stage_remaining = None
                    completed += 1
                    if self.buffers.can_queue:
                        self.buffers.queue_frame()
                    else:
                        self._completed_waiting_buffer += 1
                    progress = True

            # CPU stage.
            if self._cpu_stage_frame is None and self._pending:
                self._cpu_stage_frame = self._pending.popleft()
                self._cpu_stage = [self._cpu_stage_frame.cpu_work_mwu]
                progress = True
            if (
                self._cpu_stage_frame is not None
                and self._cpu_stage is not None
                and cpu_budget > 1e-12
            ):
                done = min(self._cpu_stage[0], cpu_budget)
                self._cpu_stage[0] -= done
                cpu_budget -= done
                cpu_frame_work_done += done
                if self._cpu_stage[0] <= 1e-9 and self._gpu_stage_remaining is None:
                    self._gpu_stage_remaining = self._cpu_stage_frame.gpu_work_mwu
                    if self._gpu_stage_remaining <= 1e-9:
                        self._gpu_stage_remaining = None
                        completed += 1
                        if self.buffers.can_queue:
                            self.buffers.queue_frame()
                        else:
                            self._completed_waiting_buffer += 1
                    self._cpu_stage_frame = None
                    self._cpu_stage = None
                    progress = True

        # Attribute frame CPU work to the two CPU clusters in proportion to the
        # rate they contributed, then add background work up to spare capacity.
        work_done: Dict[str, float] = {name: 0.0 for name, _ in self._cluster_items}
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

        # VSync edges that fall inside this tick latch frames to the panel.
        # (Inlined VsyncClock.edges_until / BufferQueue.latch: one VSync edge
        # per tick at the standard dt, every tick of the simulation.)
        displayed = 0
        misses = 0
        end_time = self._time_s + dt_s
        vsync = self.vsync
        buffers = self.buffers
        next_edge = vsync._next_edge_s
        period = vsync.period_s
        deadline = end_time + 1e-12
        while next_edge <= deadline:
            if buffers._ready_frames > 0:
                buffers._ready_frames -= 1
                buffers._front_valid = True
                displayed += 1
            else:
                # Inlined frames_in_flight (ready_frames is 0 in this branch).
                in_flight = (
                    len(pending)
                    + (self._cpu_stage_frame is not None)
                    + (self._gpu_stage_remaining is not None)
                    + self._completed_waiting_buffer
                )
                if in_flight > 0 or frame_demands:
                    misses += 1
            next_edge += period
        vsync._next_edge_s = next_edge
        self._time_s = end_time

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
    Frame queues and stage state are inherently ragged per device, so they
    stay per-device Python objects; the VSync clock is purely time-driven and
    therefore shared -- every device sees the same edge times, so the edge
    count per tick is computed once (:meth:`advance_time`).

    :meth:`tick_device_work` replicates :meth:`FramePipeline.tick` operation
    for operation (intake, stage drain, work attribution, utilisation, VSync
    latch) so each lane's utilisations and frame counts are bit-identical to
    a scalar pipeline run; it skips only outputs the simulation engine never
    records (``vsync_misses``, ``work_done_mwu``, ``frames_completed``).
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
        cfg = config
        names = list(clusters)
        index = {name: k for k, name in enumerate(names)}
        self._n_clusters = len(names)
        #: ``(cluster_index, frequencies, perf_per_mhz, core_share)`` for the
        #: big / little / gpu stage rates (same clamping as _compile_rates).
        self._rate_big = None
        self._rate_little = None
        self._rate_gpu = None
        if cfg.big_cluster in clusters:
            big = clusters[cfg.big_cluster]
            cores = min(cfg.ui_big_cores, big.spec.core_count)
            self._rate_big = (index[cfg.big_cluster], big._freqs, big.spec.perf_per_mhz, cores)
        if cfg.little_cluster in clusters:
            little = clusters[cfg.little_cluster]
            cores = min(cfg.ui_little_cores, little.spec.core_count)
            self._rate_little = (
                index[cfg.little_cluster], little._freqs, little.spec.perf_per_mhz, cores
            )
        if cfg.gpu_cluster in clusters:
            gpu = clusters[cfg.gpu_cluster]
            cores = gpu.spec.core_count * cfg.gpu_core_fraction
            self._rate_gpu = (index[cfg.gpu_cluster], gpu._freqs, gpu.spec.perf_per_mhz, cores)
        #: Per-cluster ``(name, frequencies, perf_per_mhz, core_count)`` for
        #: the utilisation loop, in compiled cluster order.
        self._util_records = [
            (name, c._freqs, c.spec.perf_per_mhz, c.spec.core_count)
            for name, c in clusters.items()
        ]
        self._max_pending = cfg.max_pending_frames
        self._back_buffer_count = back_buffer_count
        # Shared VSync clock (first edge one period in, as VsyncClock does).
        self._period_s = 1.0 / refresh_hz
        self._next_edge_s = self._period_s
        self._time_s = 0.0
        # Per-device ragged state, parallel lists indexed by device.
        self._pending: List[Deque[FrameSpec]] = [deque() for _ in range(n_devices)]
        self._cpu_frame: List[Optional[FrameSpec]] = [None] * n_devices
        self._cpu_rem: List[float] = [0.0] * n_devices
        self._gpu_rem: List[Optional[float]] = [None] * n_devices
        self._waiting: List[int] = [0] * n_devices
        self._ready: List[int] = [0] * n_devices
        self._np_tables: Optional[_BatchPipelineTables] = None

    def advance_time(self, dt_s: float) -> int:
        """Advance the shared VSync clock by ``dt_s``; return the edge count.

        Call once per tick after every :meth:`tick_device_work` call; the
        loop is the same edge accumulation :meth:`FramePipeline.tick` runs
        inline.
        """
        end_time = self._time_s + dt_s
        deadline = end_time + 1e-12
        next_edge = self._next_edge_s
        period = self._period_s
        count = 0
        while next_edge <= deadline:
            count += 1
            next_edge += period
        self._next_edge_s = next_edge
        self._time_s = end_time
        return count

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

    def tick_device_work(
        self,
        device: int,
        frame_demands: List[FrameSpec],
        cpu_budget: float,
        gpu_budget: float,
        edge_count: int,
    ) -> Tuple[int, int, float, float]:
        """Advance one device's frame queues by one tick.

        ``cpu_budget``/``gpu_budget`` are this device's per-tick work budgets
        (``rate * dt_s``, from :meth:`batch_rates`); ``edge_count`` is the
        shared VSync edge count from :meth:`advance_time`.  Runs the scalar
        pipeline's intake, stage-drain and latch logic operation for
        operation and returns ``(frames_displayed, frames_rejected,
        cpu_work_done, gpu_work_done)``; work attribution and utilisation are
        computed across all devices afterwards by :meth:`batch_finish`.
        """
        pending = self._pending[device]
        cpu_frame = self._cpu_frame[device]
        gpu_rem = self._gpu_rem[device]
        waiting = self._waiting[device]
        ready = self._ready[device]
        if (
            not frame_demands
            and cpu_frame is None
            and gpu_rem is None
            and not pending
            and not waiting
            and not ready
        ):
            # Idle lane: no queued, in-flight or demanded work anywhere.
            return 0, 0, 0.0, 0.0

        rejected = 0
        if frame_demands:
            max_pending = self._max_pending
            for frame in frame_demands:
                if len(pending) >= max_pending:
                    rejected += 1
                    continue
                pending.append(frame)

        back_buffers = self._back_buffer_count
        while waiting > 0 and ready < back_buffers:
            ready += 1
            waiting -= 1

        cpu_rem = self._cpu_rem[device]
        cpu_frame_work_done = 0.0
        gpu_frame_work_done = 0.0

        progress = True
        while progress:
            progress = False

            # GPU stage.
            if gpu_rem is not None and gpu_budget > 1e-12:
                done = gpu_rem if gpu_rem < gpu_budget else gpu_budget
                gpu_rem -= done
                gpu_budget -= done
                gpu_frame_work_done += done
                if gpu_rem <= 1e-9:
                    gpu_rem = None
                    if ready < back_buffers:
                        ready += 1
                    else:
                        waiting += 1
                    progress = True

            # CPU stage.
            if cpu_frame is None and pending:
                cpu_frame = pending.popleft()
                cpu_rem = cpu_frame.cpu_work_mwu
                progress = True
            if cpu_frame is not None and cpu_budget > 1e-12:
                done = cpu_rem if cpu_rem < cpu_budget else cpu_budget
                cpu_rem -= done
                cpu_budget -= done
                cpu_frame_work_done += done
                if cpu_rem <= 1e-9 and gpu_rem is None:
                    gpu_rem = cpu_frame.gpu_work_mwu
                    if gpu_rem <= 1e-9:
                        gpu_rem = None
                        if ready < back_buffers:
                            ready += 1
                        else:
                            waiting += 1
                    cpu_frame = None
                    progress = True

        displayed = ready if ready < edge_count else edge_count
        ready -= displayed

        self._ready[device] = ready
        self._waiting[device] = waiting
        self._cpu_frame[device] = cpu_frame
        self._cpu_rem[device] = cpu_rem
        self._gpu_rem[device] = gpu_rem
        return displayed, rejected, cpu_frame_work_done, gpu_frame_work_done

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
            (name, record)
            for name, record in (
                ("big", pipeline._rate_big),
                ("little", pipeline._rate_little),
                ("gpu", pipeline._rate_gpu),
            )
            if record is not None
        ]
        positions = {name: position for position, (name, _) in enumerate(records)}
        self.big = positions.get("big")
        self.little = positions.get("little")
        self.gpu = positions.get("gpu")
        rows = [record[0] for _, record in records]
        self.rate_rows = np.array(rows, dtype=np.int64)
        self.one_record_per_cluster = rows == list(range(pipeline._n_clusters))
        self.rate_flat, self.rate_offsets = flat_table(
            [[f * perf * cores for f in freqs] for _, (_k, freqs, perf, cores) in records]
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
