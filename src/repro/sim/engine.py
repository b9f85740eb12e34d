"""The simulation engine: one VSync-period tick couples all substrates.

Per tick the engine performs, in order:

1. ask the workload for its demand (frames + background work),
2. render through the frame pipeline at the *current* cluster frequencies,
3. feed the resulting utilisations into the SoC and integrate power/thermal,
4. account displayed/dropped frames into the display's FPS counter,
5. give the policy governor its fast-path FPS observation (the Next agent's
   25 ms frame-window sampling hangs off this hook),
6. run the inner ``schedutil`` scaler, which picks each cluster's frequency
   within its current min/max limits, and
7. when the policy governor's invocation period has elapsed, assemble a
   :class:`~repro.governors.base.GovernorObservation` from the *sensed*
   (noisy) values and let the governor adjust limits/frequencies.

The engine records ground truth into a :class:`~repro.sim.recorder.Recorder`,
unless it is built with ``record=False``, as training episodes are: the
trained agent is all they produce.

Hot-loop kernel
---------------
The per-tick path runs against the compiled SoC kernel
(:meth:`~repro.soc.soc.SocSimulator.step_tick`) and the struct-of-arrays
recorder fast path (:meth:`~repro.sim.recorder.Recorder.append_tick`), so a
tick allocates no telemetry snapshot and no per-sample dict copies.  Full
``SocTelemetry``/``GovernorObservation`` snapshots are materialised only at
recorder ticks and governor-invocation boundaries.  Outputs are bit-identical
to the original allocating path (pinned by the golden-trace suite).
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from repro.governors.base import Governor, GovernorObservation
from repro.governors.schedutil import SchedutilScaler
from repro.obs.profile import active_profiler
from repro.graphics.display import Display
from repro.graphics.pipeline import FramePipeline, PipelineConfig
from repro.sim.clock import SimulationClock
from repro.sim.config import SimulationConfig
from repro.sim.recorder import Recorder
from repro.soc.cluster import ClusterKind
from repro.soc.platform import PlatformSpec
from repro.soc.soc import SocSimulator
from repro.workloads.app import TickWorkload
from repro.workloads.apps import make_app


class SessionWorkload:
    """Adapts a multi-segment session into the tick-able workload interface.

    Applications are instantiated lazily when their segment starts, each with
    its own derived seed, and the emitted :class:`TickWorkload` times are
    offset so they are monotonically increasing across the whole session.

    Segment boundaries are *integer tick counts* derived once per segment
    (``ceil(duration_s / dt_s)``, fractional ticks round up to whole VSync
    periods).  The previous implementation accumulated ``dt_s`` in floats and
    compared against ``duration_s - 1e-9``, which could gain or lose a tick
    per segment on long sessions; counting ticks makes boundaries exact for
    sessions of any length.
    """

    def __init__(self, segments: Sequence, seed: Optional[int] = None) -> None:
        if not segments:
            raise ValueError("a session workload needs at least one segment")
        self._segments = list(segments)
        self._seed = seed
        self._segment_index = 0
        self._segment_tick = 0
        self._segment_total_ticks: Optional[int] = None
        self._time_offset_s = 0.0
        self._current_app = None

    def _ensure_app(self):
        if self._current_app is None:
            segment = self._segments[self._segment_index]
            app_seed = None if self._seed is None else self._seed + self._segment_index * 7919
            self._current_app = make_app(segment.app_name, seed=app_seed)
        return self._current_app

    @property
    def exhausted(self) -> bool:
        """Whether every segment has been fully played."""
        return self._segment_index >= len(self._segments)

    def tick(self, dt_s: float) -> TickWorkload:
        """Produce the next tick of demand, advancing segments as needed."""
        if self.exhausted:
            return TickWorkload(
                time_s=self._time_offset_s,
                app_name="idle",
                phase_name="exhausted",
                frames=[],
                background_work_mwu={},
                interaction_activity=0.0,
            )
        segment = self._segments[self._segment_index]
        if self._segment_total_ticks is None:
            # Derive the boundary once per segment as a whole number of ticks:
            # exact multiples of dt_s stay exact, fractional durations round
            # up (a 2.5-tick segment plays 3 whole VSync periods).
            self._segment_total_ticks = max(
                1, math.ceil(segment.duration_s / dt_s - 1e-9)
            )
            self._segment_tick = 0
        app = self._ensure_app()
        tick = app.tick(dt_s)
        result = TickWorkload(
            time_s=self._time_offset_s + self._segment_tick * dt_s,
            app_name=tick.app_name,
            phase_name=tick.phase_name,
            frames=tick.frames,
            background_work_mwu=tick.background_work_mwu,
            interaction_activity=tick.interaction_activity,
        )
        self._segment_tick += 1
        if self._segment_tick >= self._segment_total_ticks:
            self._time_offset_s += self._segment_total_ticks * dt_s
            self._segment_tick = 0
            self._segment_total_ticks = None
            self._segment_index += 1
            self._current_app = None
        return result


class Simulation:
    """Couples a platform, a policy governor and a workload source."""

    def __init__(
        self,
        platform: PlatformSpec,
        governor: Governor,
        config: Optional[SimulationConfig] = None,
        scaler: Optional[SchedutilScaler] = None,
        record: bool = True,
    ) -> None:
        self.platform = platform
        self.governor = governor
        #: Whether ticks are recorded; a training episode, whose stream no
        #: one reads, runs with ``record=False`` and leaves the recorder empty.
        self.record = record
        self.config = config or SimulationConfig(refresh_hz=platform.display_refresh_hz)
        self.scaler = scaler or SchedutilScaler()

        sensor_rng = random.Random(self.config.seed + self.config.sensor_seed_offset)
        self.soc = SocSimulator(platform, rng=sensor_rng)
        if self.config.warm_start_temperature_c is not None:
            self.soc.thermal.reset(self.config.warm_start_temperature_c)

        self.pipeline = FramePipeline(
            config=self._pipeline_config(),
            refresh_hz=self.config.refresh_hz,
        )
        self.display = Display(refresh_hz=self.config.refresh_hz)
        self.clock = SimulationClock(dt_s=self.config.dt_s)
        self.recorder = Recorder(
            ambient_c=platform.ambient_c,
            hot_node=self._big_cluster_name() or platform.cluster_names[0],
        )
        # Register the fixed column layout so per-tick recording stores flat
        # value tuples against shared key tuples (struct-of-arrays).
        self.recorder.register_layout(
            cluster_keys=self.soc.cluster_name_keys(),
            node_keys=self.soc.node_name_keys(),
        )

        self._current_app: Optional[str] = None
        self._last_invocation_s: Optional[float] = None
        self._dropped_since_invocation = 0
        self._demanded_since_invocation = 0
        #: (name, cluster) pairs in platform order -- the hot loop iterates
        #: this list instead of rebuilding dict views every tick.
        self._cluster_items = list(self.soc.clusters.items())
        #: Pre-compiled per-cluster records for the fused scaler pass.
        self._scaler_compiled = self.scaler.compile_clusters(self.soc.clusters)

    # -- helpers --------------------------------------------------------------------

    def _big_cluster_name(self) -> Optional[str]:
        return self.platform.cluster_of_kind(ClusterKind.BIG_CPU)

    def _little_cluster_name(self) -> Optional[str]:
        return self.platform.cluster_of_kind(ClusterKind.LITTLE_CPU)

    def _gpu_cluster_name(self) -> Optional[str]:
        return self.platform.cluster_of_kind(ClusterKind.GPU)

    def _pipeline_config(self) -> PipelineConfig:
        big = self._big_cluster_name() or self.platform.cluster_names[0]
        little = self._little_cluster_name() or "__no_little__"
        gpu = self._gpu_cluster_name() or "__no_gpu__"
        return PipelineConfig(big_cluster=big, little_cluster=little, gpu_cluster=gpu)

    # -- main loop --------------------------------------------------------------------

    def run(self, workload, duration_s: Optional[float] = None) -> Recorder:
        """Run ``workload`` for ``duration_s`` (default: the config duration).

        ``workload`` is anything with a ``tick(dt_s) -> TickWorkload`` method:
        an :class:`~repro.workloads.app.AppModel`, a
        :class:`~repro.workloads.trace.TracePlayer` or a
        :class:`SessionWorkload`.
        """
        duration = duration_s if duration_s is not None else self.config.duration_s
        self._run_ticks(workload, self.clock.ticks_for(duration))
        return self.recorder

    def _run_ticks(self, workload, ticks: int) -> None:
        """The compiled tick loop: everything hot is bound to locals once."""
        config = self.config
        dt = config.dt_s
        record = self.record
        record_every = config.record_every_n_ticks
        governor = self.governor
        invocation_period = governor.invocation_period_s
        # Baseline governors inherit the no-op observe_tick; skip the 60 Hz
        # call for them entirely (the Next agent's frame window still gets
        # every tick).
        governor_observe = (
            governor.observe_tick
            if type(governor).observe_tick is not Governor.observe_tick
            else None
        )
        pipeline_tick = self.pipeline.tick
        soc = self.soc
        soc_clusters = soc.clusters
        soc_step = soc.step_tick
        soc_record_values = soc.record_values
        soc_dvfs_values = soc.dvfs_values
        clock = self.clock
        display = self.display
        display_record_fps = display.record_tick_fps
        scaler = self.scaler
        scaler_compiled = self._scaler_compiled
        scaler_select_tick = scaler.select_tick
        cluster_items = self._cluster_items
        recorder_append = self.recorder.append_tick
        workload_tick = workload.tick
        governor_agent = getattr(governor, "agent", None)
        current_app = self._current_app
        last_invocation = self._last_invocation_s
        dropped_since = self._dropped_since_invocation
        demanded_since = self._demanded_since_invocation
        governor_update = governor.update
        profiler = active_profiler()
        if profiler is not None:
            # Opt-in sampling profiler: rebind the stage callables through
            # timing wrappers that pass results through untouched, so the
            # loop below is identical whether profiling is on or off and the
            # disabled path costs one module-global read per call.
            workload_tick = profiler.wrap("workload", workload_tick)
            pipeline_tick = profiler.wrap("pipeline", pipeline_tick)
            soc_step = profiler.wrap("power_thermal", soc_step)
            scaler_select_tick = profiler.wrap("scaler", scaler_select_tick)
            governor_update = profiler.wrap("governor", governor_update)
            recorder_append = profiler.wrap("recorder", recorder_append)
        try:
            for _ in range(ticks):
                demand = workload_tick(dt)

                app_name = demand.app_name
                if app_name != current_app:
                    if current_app is not None:
                        governor.on_session_end(current_app)
                    current_app = app_name
                    governor.on_session_start(app_name)
                    invocation_period = governor.invocation_period_s

                frames = demand.frames
                result = pipeline_tick(
                    dt,
                    soc_clusters,
                    frames,
                    demand.background_work_mwu,
                )
                utilisations = result.utilisations
                for name, cluster in cluster_items:
                    # Inlined Cluster.utilisation setter (same clamp).
                    value = utilisations[name]
                    if value < 0.0:
                        value = 0.0
                    elif value > 1.0:
                        value = 1.0
                    cluster._utilisation = value
                soc_step(dt)
                tick_count = clock._ticks + 1
                clock._ticks = tick_count
                now = tick_count * dt

                will_record = record and tick_count % record_every == 0
                if will_record:
                    # Snapshot DVFS state *now*: the recorded sample reflects
                    # the frequencies/limits the tick was simulated at, before
                    # the inner scaler and the policy governor adjust them for
                    # the next tick.
                    frequency_values, max_limit_values = soc_dvfs_values()

                frames_displayed = result.frames_displayed
                frames_dropped = result.frames_dropped
                fps = display_record_fps(now, frames_displayed, frames_dropped)
                if governor_observe is not None:
                    governor_observe(now, fps)

                # Inner utilisation-driven frequency selection inside the limits.
                scaler_select_tick(scaler_compiled, utilisations, now)

                dropped_since += frames_dropped
                demanded_since += len(frames)

                due = (
                    last_invocation is None
                    or now - last_invocation >= invocation_period - 1e-9
                )
                if due:
                    # Everything snapshot-shaped (sensor sampling, the
                    # observation's dict copies) lives inside this branch so a
                    # governor with a long invocation period costs nothing on
                    # the ticks in between.
                    readings = soc.sample_sensors()
                    big_name = self._big_cluster_name()
                    if big_name is not None and big_name in readings.temperatures_c:
                        temperature_big = readings.temperatures_c[big_name]
                    else:
                        temperature_big = max(readings.temperatures_c.values())
                    observation = GovernorObservation(
                        time_s=now,
                        dt_s=(
                            now - last_invocation
                            if last_invocation is not None
                            else invocation_period
                        ),
                        fps=fps,
                        utilisations=dict(utilisations),
                        frequencies_mhz={
                            name: c.current_frequency_mhz for name, c in cluster_items
                        },
                        max_limits_mhz={
                            name: c.max_limit_frequency_mhz for name, c in cluster_items
                        },
                        power_w=readings.power_w,
                        temperature_big_c=temperature_big,
                        temperature_device_c=readings.device_temperature_c,
                        frames_dropped=dropped_since,
                        frames_demanded=demanded_since,
                    )
                    governor_update(observation, soc_clusters)
                    last_invocation = now
                    dropped_since = 0
                    demanded_since = 0
                    invocation_period = governor.invocation_period_s

                if will_record:
                    power_total, power_values, temperature_values, utilisation_values = (
                        soc_record_values()
                    )
                    recorder_append(
                        now,
                        app_name,
                        demand.phase_name,
                        fps,
                        0.0 if governor_agent is None else governor_agent.target_fps,
                        len(frames),
                        frames_displayed,
                        frames_dropped,
                        power_total,
                        power_values,
                        temperature_values,
                        frequency_values,
                        max_limit_values,
                        utilisation_values,
                        demand.interaction_activity,
                    )
        finally:
            self._current_app = current_app
            self._last_invocation_s = last_invocation
            self._dropped_since_invocation = dropped_since
            self._demanded_since_invocation = demanded_since
