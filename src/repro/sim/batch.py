"""Batched device-population simulation kernel.

:class:`BatchSimulation` steps N independent simulated devices per tick
inside one process.  PR 4 compiled the per-device hot loop into flat
index-based buffers; this module widens every one of those buffers by a
device axis (struct-of-arrays): OPP indices, limits, utilisations, dynamic
and leakage power are ``(clusters, devices)`` NumPy arrays, temperatures and
heat ``(nodes, devices)`` arrays.  The numeric backend -- power evaluation,
thermal Euler integration, the schedutil scaler, the FPS window and the
recorder rows -- is vectorised across devices, while inherently ragged
per-device state (workloads, governor objects, sensors) stays plain Python
and is visited once per device per tick.  Each lane's frames go through the
scalar pipeline's :class:`~repro.graphics.pipeline.FrameQueue`, the code
that :meth:`~repro.graphics.pipeline.FramePipeline.tick` steps too.  Each
numeric stage is one NumPy call chain over the whole ``(clusters,
devices)`` or ``(nodes, devices)`` array, never one chain per cluster or
node: per-call overhead, not the lane count, is what a small batch pays per
tick.  The recorder's arrays span only the active lanes of the current
lane segment (:class:`~repro.sim.recorder.BatchRecorder`).

Bit-identity contract
---------------------
The scalar :class:`~repro.sim.engine.Simulation` kernel is the reference:
for every device, a batched run records exactly the sample stream a scalar
run of that device records (pinned via
:func:`~repro.sim.recorder.sample_stream_hash` by the golden and hypothesis
suites).  The guarantee holds because each vectorised stage applies the same
IEEE-754 float operations in the same order per lane as the scalar kernel
(see the ``*_batch`` methods of :class:`~repro.soc.thermal.ThermalNetwork`,
:class:`~repro.soc.power.SocPowerModel` and
:class:`~repro.governors.schedutil.SchedutilScaler`), lane-crossing
reductions are never used, and every value leaving the arrays (recorder
columns, governor observations) is converted back to Python floats via
``tolist()`` -- exact for float64.

Devices in one batch must share a platform, tick length (refresh rate) and
warm start; seeds, governors, workloads, run durations and recording
cadences may differ per device.  Heterogeneous lanes run under a per-lane
active mask in the one tick loop (:meth:`BatchSimulation._run_ticks`); a
homogeneous run is the special case in which every lane stays active.  A
lane whose tick budget runs out is masked out of the frontend, governor,
observe and recorder stages while the surviving lanes keep stepping
element-wise with unchanged IEEE-754 op order.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro.governors.base import Governor, GovernorObservation
from repro.graphics.pipeline import BatchFramePipeline
from repro.obs.metrics import metrics
from repro.obs.profile import active_profiler
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.sim.recorder import BatchRecorder, Recorder
from repro.soc.platform import PlatformSpec

#: Unique miss marker for the per-tick background-mapping cache.
_SENTINEL = object()


class BatchSimulation:
    """Steps N independent devices of one platform in lockstep.

    Each device is constructed as a full scalar
    :class:`~repro.sim.engine.Simulation` (identical constructor sequence:
    sensor RNG, warm start, cluster state), after which the batch arrays
    become the source of truth for the hot loop; the per-device cluster
    objects are synchronised only around governor invocations.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        governors: Sequence[Governor],
        configs: Sequence[SimulationConfig],
    ) -> None:
        if not governors:
            raise ValueError("a batch needs at least one device")
        if len(governors) != len(configs):
            raise ValueError("governors and configs must be index-aligned")
        first = configs[0]
        for config in configs:
            if (
                config.refresh_hz != first.refresh_hz
                or config.warm_start_temperature_c != first.warm_start_temperature_c
            ):
                raise ValueError(
                    "batched devices must share refresh_hz and warm start "
                    "(seeds, governors, durations and recording cadence may "
                    "differ)"
                )
        self.platform = platform
        self.governors = list(governors)
        self.devices = [
            Simulation(platform, governors[d], configs[d])
            for d in range(len(governors))
        ]
        n = len(self.devices)
        self._n = n
        ref = self.devices[0]
        self._ref = ref
        soc0 = ref.soc
        self._dt = ref.config.dt_s
        #: A heterogeneous run leaves lanes at different local tick counts;
        #: any further shared-clock run would diverge from scalar per-device
        #: runs, so the batch is consumed (see :meth:`run`).
        self._consumed = False
        self._cluster_names = soc0.cluster_name_keys()
        self._node_names = soc0.node_name_keys()
        n_clusters = len(self._cluster_names)
        n_nodes = len(self._node_names)
        self._n_clusters = n_clusters
        self._n_nodes = n_nodes
        self._cluster_node_index = soc0._cluster_node_index
        self._device_node_index = soc0._device_index
        self._rest_w = soc0.power_model.rest_of_platform_power_w
        self._max_chip_temperature_c = soc0._max_chip_temperature_c
        self._thermal_throttle = soc0.thermal_throttle
        self._thermal = soc0.thermal
        self._power_model = soc0.power_model
        self._power_tables = soc0.power_model.compile_batch_tables(
            soc0._cluster_list, self._cluster_node_index
        )
        self._node_rows = self._power_tables.node_rows
        self._freq_tuples = [c._freqs for c in soc0._cluster_list]
        self._big_name = ref._big_cluster_name()

        # -- struct-of-arrays state (device axis last) --------------------------
        self._cur = np.array(
            [
                [dev.soc._cluster_list[k]._current_index for dev in self.devices]
                for k in range(n_clusters)
            ],
            dtype=np.int64,
        )
        self._min_limit = np.array(
            [
                [dev.soc._cluster_list[k]._min_limit_index for dev in self.devices]
                for k in range(n_clusters)
            ],
            dtype=np.int64,
        )
        self._max_limit = np.array(
            [
                [dev.soc._cluster_list[k]._max_limit_index for dev in self.devices]
                for k in range(n_clusters)
            ],
            dtype=np.int64,
        )
        self._temps = np.array(
            [
                [dev.soc.thermal._temps[i] for dev in self.devices]
                for i in range(n_nodes)
            ],
            dtype=np.float64,
        )
        self._heat = np.zeros((n_nodes, n), dtype=np.float64)
        self._util = np.zeros((n_clusters, n), dtype=np.float64)
        self._dynamic = np.zeros((n_clusters, n), dtype=np.float64)
        self._leakage = np.zeros((n_clusters, n), dtype=np.float64)

        self._scaler = ref.scaler
        self._scaler_state = ref.scaler.compile_batch(soc0.clusters, n)
        self._pipeline = BatchFramePipeline(
            ref._pipeline_config(), ref.config.refresh_hz, soc0.clusters, n
        )

        # Shared-time FPS window (device counts vectorised, expiry time-driven).
        self._refresh_hz = ref.config.refresh_hz
        self._fps_window_s = ref.display.fps_window_s
        self._fps_events = deque()
        self._fps_total = np.zeros(n, dtype=np.int64)

        # -- per-device engine state -------------------------------------------
        self._tick_count = 0
        self._soc_time_s = 0.0
        self._current_app: List[Optional[str]] = [None] * n
        #: Governor-invocation bookkeeping, device-axis arrays.  NaN in
        #: ``last_invocation`` encodes the scalar engine's "never invoked".
        self._last_invocation = np.full(n, np.nan)
        self._invocation_period = np.array(
            [g.invocation_period_s for g in self.governors], dtype=np.float64
        )
        #: Frames dropped (row 0) and demanded (row 1) since each lane's
        #: last governor invocation.
        self._since = np.zeros((2, n), dtype=np.int64)
        self._observe = [
            g.observe_tick
            if type(g).observe_tick is not Governor.observe_tick
            else None
            for g in self.governors
        ]
        self._top_indices = [len(freqs) - 1 for freqs in self._freq_tuples]
        #: Vectorised update per device for observation-free governors (the
        #: whole invocation -- sensors, observation, cluster sync -- is then
        #: skipped; see Governor.observation_free).
        self._fast_update = [
            g.update_batch if g.observation_free else None for g in self.governors
        ]
        self._agents = [getattr(g, "agent", None) for g in self.governors]

        self.recorder = BatchRecorder(
            n_devices=n,
            ambient_c=platform.ambient_c,
            hot_node=ref.recorder.hot_node,
            cluster_keys=self._cluster_names,
            node_keys=self._node_names,
            record_every=[config.record_every_n_ticks for config in configs],
            # The scaler's flat OPP table turns recorded OPP indices into MHz.
            frequency_table=self._scaler_state.flat_frequencies,
            frequency_offsets=self._scaler_state.offsets,
        )

        # Reusable per-tick rows (overwritten every tick, read on record).
        self._app_row: List[str] = [""] * n
        self._phase_row: List[str] = [""] * n
        self._demanded_row: List[int] = [0] * n
        self._displayed_row: List[int] = [0] * n
        self._dropped_row: List[int] = [0] * n
        self._interaction_row: List[float] = [0.0] * n
        self._cpu_done_row: List[float] = [0.0] * n
        self._gpu_done_row: List[float] = [0.0] * n
        self._background_lists: List[List[float]] = [
            [0.0] * n for _ in range(n_clusters)
        ]
        #: Compiled positional sensor layout per device (see
        #: SensorHub.compile_flat); node order matches ``_node_names``.
        self._sensor_orders = [
            dev.soc.sensors.compile_flat(self._node_names, self._big_name)
            for dev in self.devices
        ]

    # -- properties ----------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        """Number of devices in the batch."""
        return self._n

    @property
    def tick_count(self) -> int:
        """Ticks simulated so far (shared across devices)."""
        return self._tick_count

    def device_recorder(self, device: int) -> Recorder:
        """One device's recorded stream as a scalar :class:`Recorder`."""
        return self.recorder.device_recorder(device)

    # -- main loop -----------------------------------------------------------------

    def run(self, workloads: Sequence, duration_s=None) -> BatchRecorder:
        """Run every device's workload in one shared-clock loop.

        ``workloads[d]`` is anything with a ``tick(dt_s) -> TickWorkload``
        method, exactly as for :meth:`Simulation.run`.  ``duration_s`` may be
        a single number (every lane runs that long), a per-lane sequence of
        durations, or ``None`` (each lane runs its own ``config.duration_s``).

        Homogeneous runs (equal durations and recording cadences) may be
        called repeatedly; state (time, thermals, governor counters) carries
        over, so interleaving runs with fleet-level work (e.g. federated
        aggregation) behaves like doing the same to N scalar simulations.
        A heterogeneous run *consumes* the batch: lanes finish at different
        local tick counts, so any further shared-clock run would diverge
        from scalar per-device runs and is rejected.
        """
        if len(workloads) != self._n:
            raise ValueError("one workload per device required")
        if self._consumed:
            raise ValueError(
                "a heterogeneous run consumes the batch (lanes ended at "
                "different ticks); construct a new BatchSimulation to run "
                "again"
            )
        clock = self._ref.clock
        if duration_s is None:
            budgets = [
                clock.ticks_for(dev.config.duration_s) for dev in self.devices
            ]
        elif isinstance(duration_s, (int, float)):
            budgets = [clock.ticks_for(float(duration_s))] * self._n
        else:
            if len(duration_s) != self._n:
                raise ValueError("one duration per device required")
            budgets = [clock.ticks_for(float(dur)) for dur in duration_s]
        cadences = {dev.config.record_every_n_ticks for dev in self.devices}
        if len(cadences) > 1 or len(set(budgets)) > 1:
            self._consumed = True
        self._run_ticks(workloads, budgets)
        return self.recorder

    def _lane_schedule(self, budgets: Sequence[int]):
        """Precompiled per-lane index arrays for one run.

        The active set only changes when a lane's tick budget runs out, so
        the run splits into segments with a constant active set.  Each entry
        is ``(ticks, active_list, active_mask)``: the Python visit list for
        the ragged frontend (workload stepping, frame-queue advance) plus the
        boolean device-axis mask for the vectorised stages.  A homogeneous
        run is a single segment with every lane active.
        """
        n = self._n
        budget_list = [int(b) for b in budgets]
        segments = []
        prev = 0
        for boundary in sorted({b for b in budget_list if b > 0}):
            active = [d for d in range(n) if budget_list[d] > prev]
            mask = np.zeros(n, dtype=bool)
            mask[active] = True
            segments.append((boundary - prev, active, mask))
            prev = boundary
        return segments

    def _run_ticks(self, workloads: Sequence, budgets: Sequence[int]) -> None:
        """The batched tick loop: per-lane tick budgets and record cadence.

        The per-tick stage order is that of :meth:`Simulation._run_ticks`,
        run once per segment of :meth:`_lane_schedule`; lanes differ only in
        *which* ragged or gated stages visit them.  A homogeneous run is one
        segment in which every lane is active and records on the same ticks.
        When a lane's budget runs out, it is removed from the frontend visit
        list, its demand/display/drop rows are zeroed (freezing its
        contribution to the shared FPS window and governor counters), it is
        masked out of the observe hooks and governor ``due`` set, and the
        recorder's arrays for the next segment leave it out.  The dense element-wise stages (power, thermal, scaler,
        throttle) keep stepping every lane -- a dead lane's column is never
        read again, and per-lane independence means it cannot perturb a live
        lane's IEEE-754 op order.  Because all lanes share tick zero, a
        lane's local time equals the global ``now``, so each live lane sees
        exactly the float sequence its scalar run sees.
        """
        n = self._n
        n_clusters = self._n_clusters
        dt = self._dt
        pipeline = self._pipeline
        queue_steps = [queue.step for queue in pipeline.queues]
        batch_rates = pipeline.batch_rates
        batch_finish = pipeline.batch_finish
        workload_ticks = [w.tick for w in workloads]
        governors = self.governors
        observe = self._observe
        observe_any = any(fn is not None for fn in observe)
        agents = self._agents
        # Recorded target FPS: the agent's on lanes that have one, else 0.0.
        agent_lanes = [d for d in range(n) if agents[d] is not None]
        target_row = np.zeros(n)
        current_app = self._current_app
        invocation_period = self._invocation_period
        last_invocation = self._last_invocation
        since = self._since
        app_row = self._app_row
        phase_row = self._phase_row
        demanded_row = self._demanded_row
        displayed_row = self._displayed_row
        dropped_row = self._dropped_row
        interaction_row = self._interaction_row
        cpu_done_row = self._cpu_done_row
        gpu_done_row = self._gpu_done_row
        background_lists = self._background_lists
        cluster_names = self._cluster_names
        util_scratch = self._util
        cur = self._cur
        min_limit = self._min_limit
        max_limit = self._max_limit
        temps = self._temps
        dynamic = self._dynamic
        leakage = self._leakage
        rest_w = self._rest_w
        soc_step = self._soc_step
        scaler_select = self._scaler.select_tick_batch
        scaler_state = self._scaler_state
        fps_events = self._fps_events
        fps_window_s = self._fps_window_s
        refresh_hz = self._refresh_hz
        begin_segment = self.recorder.begin_segment
        recorder_append = self.recorder.append_tick
        invoke_governor = self._invoke_governor
        fast_update = self._fast_update
        devices = self.devices
        tick_count = self._tick_count
        soc_time = self._soc_time_s

        profiler = active_profiler()
        if profiler is not None:
            # Same opt-in stage wrapping as the scalar engine, over the same
            # six stages: results pass through untouched, so the loop below
            # is identical either way.
            workload_ticks = [
                profiler.wrap("workload", fn) for fn in workload_ticks
            ]
            batch_rates = profiler.wrap("pipeline", batch_rates)
            queue_steps = [profiler.wrap("pipeline", fn) for fn in queue_steps]
            batch_finish = profiler.wrap("pipeline", batch_finish)
            soc_step = profiler.wrap("power_thermal", soc_step)
            scaler_select = profiler.wrap("scaler", scaler_select)
            invoke_governor = profiler.wrap("governor", invoke_governor)
            fast_update = [
                None if fn is None else profiler.wrap("governor", fn)
                for fn in fast_update
            ]
            recorder_append = profiler.wrap("recorder", recorder_append)

        try:
            for seg_ticks, active_list, active_mask in self._lane_schedule(budgets):
                # Per-segment occupancy: how full the batch lanes actually ran.
                metrics().observe("batch.lane_occupancy", float(len(active_list)))
                metrics().inc(
                    "batch.device_ticks", float(seg_ticks) * len(active_list)
                )
                # The ticks on which some active lane records.
                row_ticks = begin_segment(tick_count, seg_ticks, active_list)
                # Freeze lanes that just went inactive: zero the reused
                # frontend rows once so the shared FPS window and governor
                # counters stop accruing for them.
                for d in range(n):
                    if not active_mask[d]:
                        demanded_row[d] = 0
                        displayed_row[d] = 0
                        dropped_row[d] = 0
                        cpu_done_row[d] = 0.0
                        gpu_done_row[d] = 0.0
                        for k in range(n_clusters):
                            background_lists[k][d] = 0.0
                for _ in range(seg_ticks):
                    # Shared VSync clock: one edge count for every device.
                    edge_count = pipeline.advance_time(dt)

                    # Per-device stage budgets from the current OPP indices
                    # (vectorised; bit-identical to the scalar rate computation).
                    rates, cpu_rate, gpu_rate = batch_rates(cur)
                    cpu_budgets = (cpu_rate * dt).tolist()
                    gpu_budgets = (gpu_rate * dt).tolist()

                    # Per-device frontend: workload demand, session hooks, frame
                    # queue drain (utilisation math is vectorised afterwards).
                    prev_background = _SENTINEL
                    background_values: List[float] = [0.0] * n_clusters
                    for d in active_list:
                        demand = workload_ticks[d](dt)
                        app_name = demand.app_name
                        if app_name != current_app[d]:
                            governor = governors[d]
                            if current_app[d] is not None:
                                governor.on_session_end(current_app[d])
                            current_app[d] = app_name
                            governor.on_session_start(app_name)
                            invocation_period[d] = governor.invocation_period_s
                        frames = demand.frames
                        displayed, rejected, cpu_done, gpu_done, _ = queue_steps[d](
                            frames, cpu_budgets[d], gpu_budgets[d], edge_count
                        )
                        cpu_done_row[d] = cpu_done
                        gpu_done_row[d] = gpu_done
                        background = demand.background_work_mwu
                        if background is not prev_background:
                            # Devices replaying shared demand objects (e.g. the
                            # same trace) resolve the mapping once per tick.
                            prev_background = background
                            if background:
                                get = background.get
                                background_values = [
                                    get(cluster_names[k], 0.0)
                                    for k in range(n_clusters)
                                ]
                            else:
                                background_values = [0.0] * n_clusters
                        for k in range(n_clusters):
                            background_lists[k][d] = background_values[k]
                        app_row[d] = app_name
                        phase_row[d] = demand.phase_name
                        demanded_row[d] = len(frames)
                        displayed_row[d] = displayed
                        dropped_row[d] = rejected
                        interaction_row[d] = demand.interaction_activity

                    work_rows = np.array(
                        (cpu_done_row, gpu_done_row, *background_lists)
                    )
                    batch_finish(
                        cur,
                        work_rows[0],
                        work_rows[1],
                        rates,
                        cpu_rate,
                        work_rows[2:],
                        dt,
                        util_scratch,
                    )
                    # Engine clamp of the pipeline utilisations (same bounds as
                    # the scalar loop's inlined Cluster.utilisation setter).
                    util = np.minimum(1.0, np.maximum(0.0, util_scratch))

                    cluster_power = soc_step(util, dt)
                    soc_time += dt

                    tick_count += 1
                    now = tick_count * dt
                    recording = tick_count in row_ticks
                    if recording:
                        # DVFS snapshot (OPP indices) before the scaler moves
                        # frequencies, as in the scalar engine.
                        frequency_rows = cur.copy()
                        max_limit_rows = max_limit.copy()

                    # Sliding-window FPS, vectorised over devices (expiry is
                    # time-driven and therefore shared).
                    counts = np.array(
                        (displayed_row, dropped_row, demanded_row), dtype=np.int64
                    )
                    displayed_arr = counts[0]
                    fps_events.append((now, displayed_arr))
                    total = self._fps_total + displayed_arr
                    cutoff = now - fps_window_s
                    while fps_events and fps_events[0][0] <= cutoff:
                        total = total - fps_events.popleft()[1]
                    self._fps_total = total
                    fps = total / fps_window_s
                    fps = np.where(fps < refresh_hz, fps, refresh_hz)
                    fps_list = fps.tolist()

                    if observe_any:
                        for d in active_list:
                            fn = observe[d]
                            if fn is not None:
                                fn(now, fps_list[d])

                    scaler_select(scaler_state, util, cur, min_limit, max_limit, now)

                    since += counts[1:]
                    due_devices = np.flatnonzero(
                        (
                            np.isnan(last_invocation)
                            | ((now - last_invocation) >= invocation_period - 1e-9)
                        )
                        & active_mask
                    ).tolist()
                    if due_devices:
                        slow_devices = [
                            d for d in due_devices if fast_update[d] is None
                        ]
                        if len(slow_devices) < len(due_devices):
                            # Observation-free governors: apply the policy
                            # vectorised, grouped by governor class.
                            groups = {}
                            for d in due_devices:
                                update = fast_update[d]
                                if update is not None:
                                    group = groups.setdefault(
                                        type(governors[d]), (update, [])
                                    )
                                    group[1].append(d)
                            for update, lanes in groups.values():
                                update(
                                    lanes, cur, min_limit, max_limit, self._top_indices
                                )
                        if slow_devices:
                            # Batched column extraction: one transpose per array
                            # instead of per-element NumPy scalar reads per device.
                            dynamic_cols = dynamic.T.tolist()
                            leakage_cols = leakage.T.tolist()
                            temps_cols = temps.T.tolist()
                            cur_cols = cur.T.tolist()
                            min_limit_cols = min_limit.T.tolist()
                            max_limit_cols = max_limit.T.tolist()
                            util_cols = util.T.tolist()
                            last_cols = last_invocation.tolist()
                            dropped_cols, demanded_cols = since.tolist()
                            for d in slow_devices:
                                invoke_governor(
                                    d,
                                    now,
                                    fps_list[d],
                                    soc_time,
                                    dynamic_cols[d],
                                    leakage_cols[d],
                                    temps_cols[d],
                                    cur_cols[d],
                                    min_limit_cols[d],
                                    max_limit_cols[d],
                                    util_cols[d],
                                    last_cols[d],
                                    dropped_cols[d],
                                    demanded_cols[d],
                                )
                            # Governors may have adjusted cluster state; sync the
                            # due lanes back into the arrays in one batched write.
                            sync = [
                                [devices[d].soc._cluster_list[k] for d in slow_devices]
                                for k in range(n_clusters)
                            ]
                            cur[:, slow_devices] = [
                                [c._current_index for c in row] for row in sync
                            ]
                            min_limit[:, slow_devices] = [
                                [c._min_limit_index for c in row] for row in sync
                            ]
                            max_limit[:, slow_devices] = [
                                [c._max_limit_index for c in row] for row in sync
                            ]
                        last_invocation[due_devices] = now
                        since[:, due_devices] = 0
                        invocation_period[due_devices] = [
                            governors[d].invocation_period_s for d in due_devices
                        ]

                    if recording:
                        dynamic_total = dynamic[0]
                        leakage_total = leakage[0]
                        for k in range(1, n_clusters):
                            dynamic_total = dynamic_total + dynamic[k]
                            leakage_total = leakage_total + leakage[k]
                        power_total = (dynamic_total + leakage_total) + rest_w
                        if agent_lanes:
                            target_row[agent_lanes] = [
                                agents[d].target_fps for d in agent_lanes
                            ]
                        recorder_append(
                            now,
                            app_row,
                            phase_row,
                            fps,
                            target_row,
                            counts,
                            power_total,
                            cluster_power,
                            temps,
                            frequency_rows,
                            max_limit_rows,
                            util,
                            interaction_row,
                        )
        finally:
            self._tick_count = tick_count
            self._soc_time_s = soc_time

    def _soc_step(self, util, dt: float):
        """Power -> heat -> thermal -> throttle for every lane, in place.

        The batched mirror of :meth:`SocSimulator.step_tick`, one whole-array
        call per stage.  Returns the ``(clusters, devices)`` cluster power
        (dynamic + leakage) that also heats the nodes.
        """
        temps = self._temps
        cur = self._cur
        self._power_model.evaluate_flat_batch(
            self._power_tables, cur, util, temps, self._dynamic, self._leakage
        )
        cluster_power = self._dynamic + self._leakage
        heat = self._heat
        heat.fill(0.0)
        # Every cluster has a node of its own (PlatformSpec enforces it), so
        # the rows are distinct and this is the scalar's `heat += power` per
        # cluster.
        heat[self._node_rows] += cluster_power
        if self._device_node_index is not None:
            heat[self._device_node_index] += 0.5 * self._rest_w
        thermal = self._thermal
        if 1e-12 < dt <= thermal.MAX_SUBSTEP_S:
            thermal.euler_substep_batch(temps, heat, dt)
        else:
            thermal.step_flat_batch(temps, heat, dt)
        if self._thermal_throttle:
            np.copyto(
                cur,
                self._min_limit,
                where=temps[self._node_rows] > self._max_chip_temperature_c,
            )
        return cluster_power

    def _invoke_governor(
        self,
        d: int,
        now: float,
        fps: float,
        soc_time: float,
        dynamic_col: List[float],
        leakage_col: List[float],
        temps_col: List[float],
        cur_col: List[int],
        min_limit_col: List[int],
        max_limit_col: List[int],
        util_col: List[float],
        last: float,
        dropped: int,
        demanded: int,
    ) -> None:
        """Governor invocation for one due device (the scalar engine's slow path).

        All column arguments are plain Python values extracted from the batch
        arrays (``tolist()`` round-trips are exact for float64).
        """
        n_clusters = self._n_clusters
        device = self.devices[d]
        soc = device.soc
        # Same Python-float fold as SocSimulator.total_power_w.
        total_power = (sum(dynamic_col) + sum(leakage_col)) + self._rest_w
        power_w, temperature_big, temperature_device = soc.sensors.read_flat(
            self._sensor_orders[d], total_power, temps_col, soc_time
        )

        # Sync this device's lane into its cluster objects for the governor.
        clusters = soc._cluster_list
        for k in range(n_clusters):
            cluster = clusters[k]
            cluster._current_index = cur_col[k]
            cluster._min_limit_index = min_limit_col[k]
            cluster._max_limit_index = max_limit_col[k]
            cluster._utilisation = util_col[k]

        names = self._cluster_names
        freq_tuples = self._freq_tuples
        observation = GovernorObservation(
            time_s=now,
            dt_s=(now - last if not math.isnan(last) else float(self._invocation_period[d])),
            fps=fps,
            utilisations=dict(zip(names, util_col)),
            frequencies_mhz=dict(
                zip(names, [freq_tuples[k][cur_col[k]] for k in range(n_clusters)])
            ),
            max_limits_mhz=dict(
                zip(names, [freq_tuples[k][max_limit_col[k]] for k in range(n_clusters)])
            ),
            power_w=power_w,
            temperature_big_c=temperature_big,
            temperature_device_c=temperature_device,
            frames_dropped=dropped,
            frames_demanded=demanded,
        )
        self.governors[d].update(observation, soc.clusters)
