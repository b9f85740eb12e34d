"""Workload trace recording and replay.

Comparing two governors fairly requires them to face the *same* demand: the
same frames, the same background work, arriving at the same times.  Because
the application models are stochastic, the reproduction records the demand of
a session once into a :class:`WorkloadTrace` and replays it against every
governor, which is the simulator equivalent of the paper's "similar session"
methodology (Figs. 1 and 3) and of running each app with the same usage
script (Figs. 7 and 8).

A trace is stored as columns in stdlib :mod:`array` buffers, not as one
:class:`~repro.workloads.app.TickWorkload` per tick.  Per tick it keeps the
time and the interaction activity (float64), app and phase codes into one
name table, an offset into the frame columns (each frame's CPU and GPU
work, float64) and a code into a table of the session's distinct
background mappings, of which a recorded session has a handful.  A 90 s
session then takes about 200 kB instead of 3 MB.  Every number is stored as
a float64, bit for bit.

The columns are the one form in which the simulation kernels read demand.
:func:`take_demand` turns any workload into ``(trace, first)`` for a run:
a :class:`TracePlayer` hands out its own trace, and any other workload is
recorded first.  Each tick of the run is then read with
:meth:`WorkloadTrace.demand_at`.  Indexing, iteration and
:class:`TracePlayer` still decode :class:`TickWorkload`\\ s for other
callers, and :meth:`WorkloadTrace.to_dict` gives the per-tick JSON form,
which can be archived and read back with :meth:`WorkloadTrace.from_dict`.
"""

from __future__ import annotations

import json
from array import array
from struct import Struct
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.graphics.pipeline import Frame, FrameSpec
from repro.workloads.app import AppModel, TickWorkload

#: Background mapping of an exhausted tick (read-only, shared).
_NO_BACKGROUND: Mapping[str, float] = MappingProxyType({})


class WorkloadTrace:
    """A recorded sequence of per-tick demands, stored as columns.

    Tick ``i`` demanded the frames ``frame_offsets[i]`` up to
    ``frame_offsets[i + 1]`` of ``frame_cpu_mwu`` and ``frame_gpu_mwu``.
    Its app and phase are ``names[app_codes[i]]`` and
    ``names[phase_codes[i]]``, and its background work is
    ``backgrounds[background_codes[i]]``, a read-only mapping that every
    tick with the same keys and float bits shares.  The columns only grow:
    :meth:`append` adds a tick, and nothing rewrites one.
    """

    def __init__(self, dt_s: float) -> None:
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        self.dt_s = dt_s
        self.time_s = array("d")
        self.interaction = array("d")
        self.app_codes = array("I")
        self.phase_codes = array("I")
        self.frame_offsets = array("I", [0])
        self.frame_cpu_mwu = array("d")
        self.frame_gpu_mwu = array("d")
        self.background_codes = array("I")
        self.names: List[str] = []
        self.backgrounds: List[Mapping[str, float]] = []
        self._name_codes: Dict[str, int] = {}
        #: Background keys -> (packer of their values, codes by packed bits).
        self._background_codes: Dict[tuple, Tuple[Struct, Dict[bytes, int]]] = {}

    def __len__(self) -> int:
        return len(self.time_s)

    def __iter__(self) -> Iterator[TickWorkload]:
        for index in range(len(self.time_s)):
            yield self.tick_at(index)

    def __getitem__(self, index: int) -> TickWorkload:
        return self.tick_at(range(len(self.time_s))[index])

    @property
    def duration_s(self) -> float:
        """Total duration covered by the trace."""
        return len(self.time_s) * self.dt_s

    @property
    def total_frames_demanded(self) -> int:
        """Total number of frames demanded across the trace."""
        return self.frame_offsets[-1]

    def app_names(self) -> List[str]:
        """Distinct application names appearing in the trace, in order."""
        return [self.names[code] for code in dict.fromkeys(self.app_codes)]

    # -- columns ---------------------------------------------------------------

    def append(self, tick: TickWorkload) -> None:
        """Append one tick of demand."""
        self.append_demand(
            tick.time_s,
            tick.app_name,
            tick.phase_name,
            tick.frames,
            tick.background_work_mwu,
            tick.interaction_activity,
        )

    def append_demand(
        self,
        time_s: float,
        app_name: str,
        phase_name: str,
        frames: Sequence[Frame],
        background_work_mwu: Mapping[str, float],
        interaction_activity: float,
    ) -> None:
        """Append one tick given as the fields of a :class:`TickWorkload`."""
        background = self._background_code(background_work_mwu)
        self.time_s.append(time_s)
        self.app_codes.append(self._name_code(app_name))
        self.phase_codes.append(self._name_code(phase_name))
        if frames:
            cpu = self.frame_cpu_mwu
            gpu = self.frame_gpu_mwu
            for cpu_work, gpu_work in frames:
                cpu.append(cpu_work)
                gpu.append(gpu_work)
            self.frame_offsets.append(len(cpu))
        else:
            self.frame_offsets.append(self.frame_offsets[-1])
        self.background_codes.append(background)
        self.interaction.append(interaction_activity)

    def _name_code(self, name: str) -> int:
        code = self._name_codes.get(name)
        if code is None:
            code = self._name_codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _background_code(self, background: Mapping[str, float]) -> int:
        # Keyed by exact float bits, so -0.0 and NaN payloads keep their own
        # entry (value equality would merge -0.0 into 0.0 and miss every NaN).
        keys = tuple(background)
        table = self._background_codes.get(keys)
        if table is None:
            table = self._background_codes[keys] = (Struct(f"{len(keys)}d"), {})
        packer, codes = table
        bits = packer.pack(*background.values())
        code = codes.get(bits)
        if code is None:
            code = codes[bits] = len(self.backgrounds)
            mapping = dict(zip(keys, packer.unpack(bits)))
            self.backgrounds.append(MappingProxyType(mapping))
        return code

    def demand_at(self, index: int) -> Tuple[str, str, Sequence[Frame], int, float]:
        """Tick ``index`` (non-negative) as the kernels read it.

        Returns ``(app, phase, frames, background, interaction)``: the app
        and phase names, the frames as ``(cpu, gpu)`` work pairs (an empty
        tuple when the tick demands none), the tick's code into
        :attr:`backgrounds` and its interaction activity.
        """
        names = self.names
        offsets = self.frame_offsets
        start = offsets[index]
        end = offsets[index + 1]
        return (
            names[self.app_codes[index]],
            names[self.phase_codes[index]],
            list(zip(self.frame_cpu_mwu[start:end], self.frame_gpu_mwu[start:end]))
            if start != end
            else (),
            self.background_codes[index],
            self.interaction[index],
        )

    def tick_at(self, index: int) -> TickWorkload:
        """Decode tick ``index`` (non-negative) from the columns."""
        app, phase, frames, background, interaction = self.demand_at(index)
        return TickWorkload(
            time_s=self.time_s[index],
            app_name=app,
            phase_name=phase,
            # The pairs passed FrameSpec's check when they were recorded.
            frames=[tuple.__new__(FrameSpec, frame) for frame in frames],
            background_work_mwu=self.backgrounds[background],
            interaction_activity=interaction,
        )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict:
        """Convert the trace to a JSON-serialisable dictionary."""
        names = self.names
        offsets = self.frame_offsets
        cpu = self.frame_cpu_mwu
        gpu = self.frame_gpu_mwu
        backgrounds = self.backgrounds
        return {
            "dt_s": self.dt_s,
            "ticks": [
                {
                    "time_s": self.time_s[index],
                    "app_name": names[self.app_codes[index]],
                    "phase_name": names[self.phase_codes[index]],
                    "interaction_activity": self.interaction[index],
                    "frames": [
                        [cpu[frame], gpu[frame]]
                        for frame in range(offsets[index], offsets[index + 1])
                    ],
                    "background_work_mwu": dict(
                        backgrounds[self.background_codes[index]]
                    ),
                }
                for index in range(len(self.time_s))
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        trace = cls(dt_s=data["dt_s"])
        for entry in data["ticks"]:
            trace.append_demand(
                entry["time_s"],
                entry["app_name"],
                entry["phase_name"],
                [FrameSpec(cpu, gpu) for cpu, gpu in entry["frames"]],
                entry["background_work_mwu"],
                entry["interaction_activity"],
            )
        return trace

    def to_json(self) -> str:
        """Serialise the trace to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        """Deserialise a trace from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def _record(
    trace: WorkloadTrace, workload, ticks: int, time_offset: float = 0.0
) -> None:
    """Append ``ticks`` ticks of ``workload``'s demand, ``time_offset`` later."""
    append = trace.append_demand
    tick = workload.tick
    dt_s = trace.dt_s
    for _ in range(ticks):
        demand = tick(dt_s)
        append(
            time_offset + demand.time_s,
            demand.app_name,
            demand.phase_name,
            demand.frames,
            demand.background_work_mwu,
            demand.interaction_activity,
        )


class TraceRecorder:
    """Records application demand into a :class:`WorkloadTrace`."""

    @staticmethod
    def record_app(app: AppModel, duration_s: float, dt_s: float) -> WorkloadTrace:
        """Run ``app`` open-loop for ``duration_s`` and return its demand trace."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        trace = WorkloadTrace(dt_s=dt_s)
        _record(trace, app, int(round(duration_s / dt_s)))
        return trace

    @staticmethod
    def record_segments(
        segments: Sequence,
        dt_s: float,
        seed: Optional[int] = None,
    ) -> WorkloadTrace:
        """Record a multi-segment session (see :mod:`repro.workloads.session`).

        ``segments`` is a sequence of objects with ``app_name`` and
        ``duration_s`` attributes (e.g. :class:`SessionSegment`).  Each
        segment plays as many ticks as in a live
        :class:`~repro.sim.engine.SessionWorkload`
        (:func:`~repro.workloads.session.segment_ticks`), and the next
        segment's times start ``duration_s`` later.
        """
        from repro.workloads.apps import make_app
        from repro.workloads.session import segment_ticks

        trace = WorkloadTrace(dt_s=dt_s)
        time_offset = 0.0
        for i, segment in enumerate(segments):
            app_seed = None if seed is None else seed + i * 7919
            app = make_app(segment.app_name, seed=app_seed)
            _record(trace, app, segment_ticks(segment.duration_s, dt_s), time_offset)
            time_offset += segment.duration_s
        return trace


class TracePlayer:
    """Replays a :class:`WorkloadTrace` with the same interface as an app model."""

    def __init__(self, trace: WorkloadTrace) -> None:
        if len(trace) == 0:
            raise ValueError("cannot replay an empty trace")
        self.trace = trace
        self._index = 0
        self._dt_s = trace.dt_s

    @property
    def name(self) -> str:
        """Name of the (first) application in the trace."""
        return self.trace.names[self.trace.app_codes[0]]

    @property
    def exhausted(self) -> bool:
        """Whether the trace has been fully replayed."""
        return self._index >= len(self.trace)

    def reset(self) -> None:
        """Restart playback from the beginning."""
        self._index = 0

    def tick(self, dt_s: float) -> TickWorkload:
        """Return the next tick of recorded demand.

        ``dt_s`` must match the trace's tick length; passing anything else is
        an error because the demand was discretised at recording time.
        """
        if abs(dt_s - self._dt_s) > 1e-9:
            raise ValueError(
                f"trace was recorded at dt={self._dt_s}s, cannot replay at dt={dt_s}s"
            )
        trace = self.trace
        index = self._index
        if index >= len(trace.time_s):
            # Replay the final tick's shape with no demand once exhausted.
            return TickWorkload(
                time_s=trace.time_s[-1] + self._dt_s,
                app_name=trace.names[trace.app_codes[-1]],
                phase_name="exhausted",
                frames=[],
                background_work_mwu=_NO_BACKGROUND,
                interaction_activity=0.0,
            )
        self._index = index + 1
        return trace.tick_at(index)


def take_demand(workload, ticks: int, dt_s: float) -> Tuple[WorkloadTrace, int]:
    """The demand of ``workload``'s next ``ticks`` ticks, as ``(trace, first)``.

    A run reads ticks ``first`` to ``first + ticks - 1`` of ``trace``, each
    with :meth:`WorkloadTrace.demand_at`.  A :class:`TracePlayer` with that
    many ticks left at ``dt_s`` hands out its own trace and position.  Any
    other workload (an app model, a :class:`~repro.sim.engine.SessionWorkload`,
    a player that would run out) is recorded through its own ``tick`` into
    a new trace.  Either way, ``workload`` ends where ``ticks`` calls of
    ``tick(dt_s)`` would have left it.
    """
    if (
        type(workload) is TracePlayer
        and abs(dt_s - workload._dt_s) <= 1e-9
        and workload._index + ticks <= len(workload.trace)
    ):
        first = workload._index
        workload._index = first + ticks
        return workload.trace, first
    trace = WorkloadTrace(dt_s=dt_s)
    _record(trace, workload, ticks)
    return trace, 0
