"""Time-series recording and summary statistics for simulation runs.

The recorder stores one :class:`SimulationSample` per (recorded) tick --
the experimenter's ground-truth view, equivalent to the logging harness the
paper ran alongside its on-device experiments -- and derives the aggregate
numbers the paper reports: average power, peak temperature, average FPS,
dropped frames and average PPDW.

Storage is *columnar* under one key layout per recorder: each scalar field
lives in its own flat list and each mapping field in one list per key of
the layout, so the simulation hot loop appends plain floats
(:meth:`Recorder.append_tick`) instead of building five dict copies and a
dataclass per tick.  The :class:`SimulationSample` view is reconstructed
lazily on access -- ``recorder.samples``, :meth:`resample` and the analysis
APIs are unchanged and the reconstructed samples compare equal
(bit-identically) to what an object-per-tick recorder stored.
:meth:`Recorder.content_hash` and :meth:`Recorder.summary` read the columns
directly and build no sample views; the hash formats every row through one
template of the layout and equals :func:`sample_stream_hash` over the views
byte for byte.

:class:`BatchRecorder` records the lanes of a batched run into NumPy
arrays, one set per lane segment, and hands one lane's columns to a
:class:`Recorder` without building a row object.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.core.ppdw import compute_ppdw


@dataclass(frozen=True)
class SimulationSample:
    """Ground truth captured at one simulation tick."""

    time_s: float
    app_name: str
    phase_name: str
    fps: float
    target_fps: float
    frames_demanded: int
    frames_displayed: int
    frames_dropped: int
    power_total_w: float
    power_per_cluster_w: Mapping[str, float]
    temperatures_c: Mapping[str, float]
    frequencies_mhz: Mapping[str, float]
    max_limits_mhz: Mapping[str, float]
    utilisations: Mapping[str, float]
    interaction_activity: float


@dataclass
class SummaryStatistics:
    """Aggregates over a recorded run (the numbers the paper's figures show)."""

    duration_s: float
    average_power_w: float
    peak_power_w: float
    average_fps: float
    fps_p10: float
    peak_temperature_c: Dict[str, float]
    average_temperature_c: Dict[str, float]
    total_frames_displayed: int
    total_frames_demanded: int
    total_frames_dropped: int
    average_ppdw: float
    average_target_fps: float
    energy_j: float

    @property
    def frame_delivery_ratio(self) -> float:
        """Displayed / demanded frames (1.0 when every demanded frame showed)."""
        if self.total_frames_demanded == 0:
            return 1.0
        return min(1.0, self.total_frames_displayed / self.total_frames_demanded)


def sample_stream_hash(samples: Iterable[SimulationSample]) -> str:
    """Canonical SHA-256 over every field of every sample.

    Mapping fields are serialised with sorted keys and floats through
    ``repr`` (shortest round-trip), so the hash is exact: two sample streams
    hash equal iff they are bit-identical, independent of dict key order.
    The golden-trace regression suite pins recorded streams with this.
    """
    h = hashlib.sha256()
    for s in samples:
        h.update(
            repr(
                (
                    s.time_s,
                    s.app_name,
                    s.phase_name,
                    s.fps,
                    s.target_fps,
                    s.frames_demanded,
                    s.frames_displayed,
                    s.frames_dropped,
                    s.power_total_w,
                    tuple(sorted((k, v) for k, v in s.power_per_cluster_w.items())),
                    tuple(sorted((k, v) for k, v in s.temperatures_c.items())),
                    tuple(sorted((k, v) for k, v in s.frequencies_mhz.items())),
                    tuple(sorted((k, v) for k, v in s.max_limits_mhz.items())),
                    tuple(sorted((k, v) for k, v in s.utilisations.items())),
                    s.interaction_activity,
                )
            ).encode("utf-8")
        )
    return h.hexdigest()


#: Mapping-valued sample fields, in the order of a recorder's key layout.
_MAPPING_FIELDS = (
    "power_per_cluster_w",
    "temperatures_c",
    "frequencies_mhz",
    "max_limits_mhz",
    "utilisations",
)

#: Runs an iterator to its end and keeps nothing: ``_drain(map(_append,
#: columns, values))`` appends one value to each column at C speed.
_drain = deque(maxlen=0).extend
_append = list.append

#: Rows formatted per ``str.join`` in :meth:`Recorder.content_hash` (bounds
#: the transient text to about half a megabyte).
_HASH_CHUNK_ROWS = 1024


@lru_cache(maxsize=256)
def _row_template(
    layout: Tuple[Tuple[str, ...], ...]
) -> Tuple[str, Tuple[Tuple[int, ...], ...]]:
    """``%``-template of one hashed row, and per mapping field its value order.

    ``layout`` holds the key tuple of each mapping field.  The template
    spells out ``repr`` of the row tuple :func:`sample_stream_hash` builds,
    with each mapping's keys sorted and inlined and a ``%r`` wherever a
    value goes, in row order: the nine scalar fields before the mappings,
    each mapping's values in sorted-key order, then
    ``interaction_activity``.  A key listed twice keeps its last value, as
    ``dict(zip(keys, values))`` does.
    """
    mappings = []
    orders = []
    for keys in layout:
        last = {key: index for index, key in enumerate(keys)}
        ordered = sorted(last)
        pairs = ["(" + repr(key).replace("%", "%%") + ", %r)" for key in ordered]
        if len(pairs) == 1:
            mappings.append("(" + pairs[0] + ",)")
        else:
            mappings.append("(" + ", ".join(pairs) + ")")
        orders.append(tuple(last[key] for key in ordered))
    template = "(" + "%r, " * 9 + ", ".join(mappings) + ", %r)"
    return template, tuple(orders)


class Recorder:
    """Accumulates samples (a list per column) and computes :class:`SummaryStatistics`."""

    def __init__(self, ambient_c: float = 21.0, hot_node: str = "big") -> None:
        self.ambient_c = ambient_c
        self.hot_node = hot_node
        # Scalar columns.
        self._time: List[float] = []
        self._app: List[str] = []
        self._phase: List[str] = []
        self._fps: List[float] = []
        self._target_fps: List[float] = []
        self._demanded: List[int] = []
        self._displayed: List[int] = []
        self._dropped: List[int] = []
        self._power_total: List[float] = []
        self._interaction: List[float] = []
        # The key layout, fixed by register_layout() or by the first
        # recorded sample: each mapping field's key tuple, in field order.
        self._layout: Dict[str, Tuple[str, ...]] = {}
        # Mapping columns: one values list per key of the layout, field
        # after field; ``_spans`` maps each field to its slice of them.
        self._key_columns: List[list] = []
        self._spans: Dict[str, slice] = {}
        # Lazily materialised SimulationSample views.
        self._materialised: List[SimulationSample] = []

    # -- appending ------------------------------------------------------------------

    def register_layout(
        self, cluster_keys: Sequence[str], node_keys: Sequence[str]
    ) -> None:
        """Fix the key layout: temperatures by node, other mappings by cluster."""
        cluster_keys = tuple(cluster_keys)
        self._use_layout(
            (cluster_keys, tuple(node_keys), cluster_keys, cluster_keys, cluster_keys)
        )

    def _use_layout(self, key_tuples: Sequence[Tuple[str, ...]]) -> None:
        layout = dict(zip(_MAPPING_FIELDS, key_tuples))
        if layout == self._layout:
            return
        if self._time:
            raise ValueError("cannot change the key layout of a non-empty recording")
        self._layout = layout
        start = 0
        for name, keys in layout.items():
            self._spans[name] = slice(start, start + len(keys))
            start += len(keys)
        self._key_columns = [[] for _ in range(start)]

    def append_tick(
        self,
        time_s: float,
        app_name: str,
        phase_name: str,
        fps: float,
        target_fps: float,
        frames_demanded: int,
        frames_displayed: int,
        frames_dropped: int,
        power_total_w: float,
        power_per_cluster_values: tuple,
        temperature_values: tuple,
        frequency_values: tuple,
        max_limit_values: tuple,
        utilisation_values: tuple,
        interaction_activity: float,
    ) -> None:
        """Hot-loop append: flat values against the registered key layout.

        Requires :meth:`register_layout`; the value tuples must be aligned
        with the registered cluster/node key order.
        """
        if not self._layout:
            raise ValueError("append_tick requires register_layout() first")
        self._time.append(time_s)
        self._app.append(app_name)
        self._phase.append(phase_name)
        self._fps.append(fps)
        self._target_fps.append(target_fps)
        self._demanded.append(frames_demanded)
        self._displayed.append(frames_displayed)
        self._dropped.append(frames_dropped)
        self._power_total.append(power_total_w)
        self._interaction.append(interaction_activity)
        _drain(
            map(
                _append,
                self._key_columns,
                (
                    *power_per_cluster_values,
                    *temperature_values,
                    *frequency_values,
                    *max_limit_values,
                    *utilisation_values,
                ),
            )
        )

    def record(self, sample: SimulationSample) -> None:
        """Append one sample (object-based path).

        The first sample fixes the key layout when none is registered; a
        sample whose mapping keys differ from the layout raises ``ValueError``.
        """
        mappings = [getattr(sample, name) for name in _MAPPING_FIELDS]
        if not self._layout:
            self._use_layout([tuple(mapping) for mapping in mappings])
        layout = self._layout.values()
        for name, keys, mapping in zip(_MAPPING_FIELDS, layout, mappings):
            if mapping.keys() != set(keys):
                raise ValueError(f"sample {name} keys differ from the layout {keys!r}")
        self._time.append(sample.time_s)
        self._app.append(sample.app_name)
        self._phase.append(sample.phase_name)
        self._fps.append(sample.fps)
        self._target_fps.append(sample.target_fps)
        self._demanded.append(sample.frames_demanded)
        self._displayed.append(sample.frames_displayed)
        self._dropped.append(sample.frames_dropped)
        self._power_total.append(sample.power_total_w)
        self._interaction.append(sample.interaction_activity)
        values = [mapping[k] for keys, mapping in zip(layout, mappings) for k in keys]
        _drain(map(_append, self._key_columns, values))

    def __len__(self) -> int:
        return len(self._time)

    # -- sample views ----------------------------------------------------------------

    @property
    def samples(self) -> List[SimulationSample]:
        """All samples as :class:`SimulationSample` views (materialised lazily)."""
        materialised = self._materialised
        start = len(materialised)
        count = len(self._time)
        if start < count:
            build = self._build_sample
            for i in range(start, count):
                materialised.append(build(i))
        return materialised

    def _mapping(self, name: str, i: int) -> Dict[str, float]:
        """Row ``i`` of a mapping field as a dict (a repeated key keeps its last value)."""
        columns = self._key_columns[self._spans[name]]
        return dict(zip(self._layout[name], [column[i] for column in columns]))

    def _build_sample(self, i: int) -> SimulationSample:
        mapping = self._mapping
        return SimulationSample(
            time_s=self._time[i],
            app_name=self._app[i],
            phase_name=self._phase[i],
            fps=self._fps[i],
            target_fps=self._target_fps[i],
            frames_demanded=self._demanded[i],
            frames_displayed=self._displayed[i],
            frames_dropped=self._dropped[i],
            power_total_w=self._power_total[i],
            power_per_cluster_w=mapping("power_per_cluster_w", i),
            temperatures_c=mapping("temperatures_c", i),
            frequencies_mhz=mapping("frequencies_mhz", i),
            max_limits_mhz=mapping("max_limits_mhz", i),
            utilisations=mapping("utilisations", i),
            interaction_activity=self._interaction[i],
        )

    def content_hash(self) -> str:
        """Canonical hash of the recorded stream (see :func:`sample_stream_hash`).

        Reads the columns directly: every row is formatted through the
        layout's :func:`_row_template`, so the digest equals
        ``sample_stream_hash(self.samples)`` without building any sample.
        """
        h = hashlib.sha256()
        template, orders = _row_template(tuple(self._layout.values()))
        format_row = template.__mod__
        columns = [
            self._time,
            self._app,
            self._phase,
            self._fps,
            self._target_fps,
            self._demanded,
            self._displayed,
            self._dropped,
            self._power_total,
        ]
        for name, order in zip(_MAPPING_FIELDS, orders):
            by_key = self._key_columns[self._spans[name]]
            columns.extend(by_key[index] for index in order)
        columns.append(self._interaction)
        for lo in range(0, len(self._time), _HASH_CHUNK_ROWS):
            rows = zip(*[column[lo : lo + _HASH_CHUNK_ROWS] for column in columns])
            h.update("".join(map(format_row, rows)).encode("utf-8"))
        return h.hexdigest()

    # -- column access ------------------------------------------------------------

    #: Scalar sample fields served straight from their columns.
    _SCALAR_COLUMNS = {
        "time_s": "_time",
        "app_name": "_app",
        "phase_name": "_phase",
        "fps": "_fps",
        "target_fps": "_target_fps",
        "frames_demanded": "_demanded",
        "frames_displayed": "_displayed",
        "frames_dropped": "_dropped",
        "power_total_w": "_power_total",
        "interaction_activity": "_interaction",
    }

    def column(self, name: str) -> List:
        """Extract one attribute across all samples."""
        attr = self._SCALAR_COLUMNS.get(name)
        if attr is not None:
            return list(getattr(self, attr))
        if name in _MAPPING_FIELDS:
            return [self._mapping(name, i) for i in range(len(self._time))]
        return [getattr(sample, name) for sample in self.samples]

    def _mapping_series(self, field_name: str, key: str, default: float) -> List[float]:
        """One key's column of a mapping field, not a copy (``default`` when absent)."""
        keys = self._layout.get(field_name, ())
        if key not in keys:
            return [default] * len(self._time)
        return self._key_columns[self._spans[field_name].start + keys.index(key)]

    def temperature_series(self, node: str) -> List[float]:
        """Temperature of ``node`` across all samples."""
        return list(self._mapping_series("temperatures_c", node, self.ambient_c))

    def frequency_series(self, cluster: str) -> List[float]:
        """Operating frequency of ``cluster`` across all samples."""
        return list(self._mapping_series("frequencies_mhz", cluster, 0.0))

    # -- summaries -----------------------------------------------------------------

    def summary(self) -> SummaryStatistics:
        """Aggregate the recorded run."""
        count = len(self._time)
        if count == 0:
            raise ValueError("cannot summarise an empty recording")
        duration = self._time[-1] - self._time[0]
        if count > 1 and duration > 0:
            dt = duration / (count - 1)
        else:
            dt = 0.0

        powers = self._power_total
        fps_values = self._fps
        sorted_fps = sorted(fps_values)
        p10_index = max(0, int(0.1 * (count - 1)))

        ambient = self.ambient_c
        node_series = {
            node: self._mapping_series("temperatures_c", node, ambient)
            for node in sorted(set(self._layout.get("temperatures_c", ())))
        }
        peak_temps = {node: max(series) for node, series in node_series.items()}
        avg_temps = {node: sum(series) / count for node, series in node_series.items()}

        hot_temps = node_series.get(self.hot_node)
        if hot_temps is None:
            hot_temps = self._mapping_series("temperatures_c", self.hot_node, ambient)
        ppdw_values = [
            compute_ppdw(
                fps=fps_values[i],
                power_w=powers[i],
                temperature_c=hot_temps[i],
                ambient_c=ambient,
            )
            for i in range(count)
        ]

        return SummaryStatistics(
            duration_s=duration,
            average_power_w=sum(powers) / count,
            peak_power_w=max(powers),
            average_fps=sum(fps_values) / count,
            fps_p10=sorted_fps[p10_index],
            peak_temperature_c=peak_temps,
            average_temperature_c=avg_temps,
            total_frames_displayed=sum(self._displayed),
            total_frames_demanded=sum(self._demanded),
            total_frames_dropped=sum(self._dropped),
            average_ppdw=sum(ppdw_values) / count,
            average_target_fps=sum(self._target_fps) / count,
            energy_j=sum(powers) * dt if dt > 0 else 0.0,
        )

    # -- resampled views -------------------------------------------------------------

    def resample(self, period_s: float) -> List[SimulationSample]:
        """Return roughly one sample per ``period_s`` (for plotting / traces)."""
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        times = self._time
        if not times:
            return []
        build = self._build_sample
        result: List[SimulationSample] = []
        next_time = times[0]
        for i in range(len(times)):
            if times[i] + 1e-9 >= next_time:
                result.append(build(i))
                next_time += period_s
        return result


class _Segment:
    """The rows one lane segment records, as ``(rows, fields, lanes)`` blocks."""

    def __init__(self, lanes: Sequence[int], row_ticks, owner: "BatchRecorder") -> None:
        import numpy as np

        rows = len(row_ticks)
        #: Device index -> its lane column in this segment's blocks.
        self.column_of = {device: column for column, device in enumerate(lanes)}
        #: Device-axis index of this segment's lanes in a full-width row, or
        #: None when every lane is active.
        self.take = None if len(lanes) == owner.n_devices else np.array(lanes)
        self.ticks = row_ticks
        self.times = np.empty(rows)
        self.floats = np.empty((rows, owner._float_fields, len(lanes)))
        self.ints = np.empty((rows, owner._int_fields, len(lanes)), dtype=np.int32)
        #: Rows written so far.
        self.filled = 0


class BatchRecorder:
    """Per-segment array recording over the lanes of a batched run.

    A batched run splits into segments with a constant set of active lanes
    (:meth:`~repro.sim.batch.BatchSimulation._lane_schedule`).
    :meth:`begin_segment` allocates one float64 and one int32 block per
    segment, sized to the ticks on which one of its lanes records and to
    those lanes only, so a lane that has ended keeps no rows.  Each recorded
    tick (:meth:`append_tick`) writes one row of both blocks: the float
    fields, and the frame counts, the app and phase names (as codes into one
    string table) and the frequencies and max limits (as OPP indices).
    :meth:`device_recorder` fills one lane's :class:`Recorder` from one
    ``tolist()`` per block, without building a row; float64 extraction is
    exact, so the lane's stream is bit-identical to the one a scalar
    simulation of that device records.
    """

    def __init__(
        self,
        n_devices: int,
        ambient_c: float,
        hot_node: str,
        cluster_keys: Sequence[str],
        node_keys: Sequence[str],
        record_every: Sequence[int],
        frequency_table,
        frequency_offsets,
    ) -> None:
        """``frequency_table`` holds every cluster's OPP frequencies in one
        flat array; ``frequency_offsets`` is the ``(clusters, 1)`` column of
        each cluster's first entry in it."""
        self.n_devices = n_devices
        self.ambient_c = ambient_c
        self.hot_node = hot_node
        self._cluster_keys = tuple(cluster_keys)
        self._node_keys = tuple(node_keys)
        self._record_every = [int(every) for every in record_every]
        self._frequency_table = frequency_table
        self._frequency_offsets = frequency_offsets
        clusters = len(self._cluster_keys)
        #: Fields of the float block: fps, target FPS, total power and
        #: interaction, then per-cluster power, per-node temperature and
        #: per-cluster utilisation.
        self._float_fields = 4 + 2 * clusters + len(self._node_keys)
        #: Fields of the int32 block (int32 holds every per-tick frame count,
        #: string code and OPP index exactly, in half the bytes of int64):
        #: frames displayed, dropped and demanded, app and phase codes, then
        #: per-cluster frequency and max-limit OPP indices.
        self._int_fields = 5 + 2 * clusters
        #: String table: name -> code, in first-seen order.
        self._names: Dict[str, int] = {}
        #: Per name field, the last full-width name row and its ``(1,
        #: devices)`` codes: a lane's names change only when its app or
        #: phase does.
        self._code_rows: Dict[str, tuple] = {}
        self._segments: List[_Segment] = []

    def __len__(self) -> int:
        return sum(segment.filled for segment in self._segments)

    def begin_segment(
        self, first_tick: int, ticks: int, lanes: Sequence[int]
    ) -> FrozenSet[int]:
        """Allocate the blocks of a segment that steps ``lanes`` for ``ticks`` ticks.

        ``first_tick`` is the tick count before the segment.  Returns the
        ticks on which at least one of the lanes records; each of them gets
        one row, written by :meth:`append_tick`.
        """
        import numpy as np

        tick_numbers = np.arange(first_tick + 1, first_tick + ticks + 1)
        due = np.zeros(ticks, dtype=bool)
        for every in {self._record_every[device] for device in lanes}:
            due |= tick_numbers % every == 0
        row_ticks = tick_numbers[due]
        self._segments.append(_Segment(lanes, row_ticks, self))
        return frozenset(row_ticks.tolist())

    def _code_row(self, field: str, names: List[str]):
        """The string-table codes of a full-width name row, ``(1, devices)``."""
        import numpy as np

        last = self._code_rows.get(field)
        if last is None or last[0] != names:
            table = self._names
            codes = np.array([[table.setdefault(name, len(table)) for name in names]])
            last = self._code_rows[field] = (list(names), codes)
        return last[1]

    def append_tick(
        self,
        time_s: float,
        app_names: List[str],
        phase_names: List[str],
        fps,
        target_fps,
        counts,
        power_total,
        power_rows,
        temperature_rows,
        frequency_rows,
        max_limit_rows,
        utilisation_rows,
        interaction: List[float],
    ) -> None:
        """Write the current segment's next row.

        Every argument spans the full device axis and is only read, so live
        simulation buffers may be passed.  Names and ``interaction`` are
        Python lists; ``fps``, ``target_fps`` and ``power_total`` are
        ``(devices,)`` arrays; ``counts`` is the ``(3, devices)`` array of
        frames displayed, dropped and demanded; ``frequency_rows`` and
        ``max_limit_rows`` are ``(clusters, devices)`` OPP indices; the other
        rows are ``(clusters, devices)`` or ``(nodes, devices)`` floats.
        """
        import numpy as np

        segment = self._segments[-1]
        row = segment.filled
        floats = (
            fps[None],
            target_fps[None],
            power_total[None],
            np.array((interaction,)),
            power_rows,
            temperature_rows,
            utilisation_rows,
        )
        ints = (
            counts,
            self._code_row("app", app_names),
            self._code_row("phase", phase_names),
            frequency_rows,
            max_limit_rows,
        )
        take = segment.take
        if take is None:
            np.concatenate(floats, out=segment.floats[row])
            np.concatenate(ints, out=segment.ints[row])
        else:
            segment.floats[row] = np.concatenate(floats)[:, take]
            segment.ints[row] = np.concatenate(ints)[:, take]
        segment.times[row] = time_s
        segment.filled = row + 1

    def device_recorder(self, device: int) -> Recorder:
        """One lane's rows, over every segment it ran in, as a scalar :class:`Recorder`.

        Only the rows of the lane's own recording cadence are taken, so the
        stream is exactly what a scalar run of that device records.
        """
        import numpy as np

        recorder = Recorder(ambient_c=self.ambient_c, hot_node=self.hot_node)
        recorder.register_layout(self._cluster_keys, self._node_keys)
        every = self._record_every[device]
        parts = []
        for segment in self._segments:
            column = segment.column_of.get(device)
            if column is not None:
                ticks = segment.ticks[: segment.filled]
                parts.append((segment, np.flatnonzero(ticks % every == 0), column))
        if not parts:
            return recorder
        recorder._time = np.concatenate(
            [segment.times[rows] for segment, rows, _ in parts]
        ).tolist()
        floats = np.concatenate(
            [segment.floats[rows, :, column] for segment, rows, column in parts]
        ).T.tolist()
        ints = np.concatenate(
            [segment.ints[rows, :, column] for segment, rows, column in parts]
        ).T
        clusters = len(self._cluster_keys)
        nodes = len(self._node_keys)
        (
            recorder._fps,
            recorder._target_fps,
            recorder._power_total,
            recorder._interaction,
        ) = floats[:4]
        (
            recorder._displayed,
            recorder._dropped,
            recorder._demanded,
            app_codes,
            phase_codes,
        ) = ints[:5].tolist()
        names = list(self._names)
        recorder._app = [names[code] for code in app_codes]
        recorder._phase = [names[code] for code in phase_codes]
        table = self._frequency_table
        offsets = self._frequency_offsets
        recorder._key_columns = [
            *floats[4 : 4 + clusters],
            *floats[4 + clusters : 4 + clusters + nodes],
            *table[ints[5 : 5 + clusters] + offsets].tolist(),
            *table[ints[5 + clusters :] + offsets].tolist(),
            *floats[4 + clusters + nodes :],
        ]
        return recorder
