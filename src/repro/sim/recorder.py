"""Time-series recording and summary statistics for simulation runs.

The recorder stores one :class:`SimulationSample` per (recorded) tick --
the experimenter's ground-truth view, equivalent to the logging harness the
paper ran alongside its on-device experiments -- and derives the aggregate
numbers the paper reports: average power, peak temperature, average FPS,
dropped frames and average PPDW.

Storage is *struct-of-arrays*: each scalar field lives in its own flat
column and each mapping field in a values column plus a (shared, interned)
key tuple per row, so the simulation hot loop appends plain floats and small
tuples instead of building five dict copies and a dataclass per tick
(:meth:`Recorder.append_tick`).  The :class:`SimulationSample` view is
reconstructed lazily on access -- ``recorder.samples``, :meth:`resample` and
the analysis APIs are unchanged and the reconstructed samples compare equal
(bit-identically) to what the previous object-per-tick recorder stored.
:meth:`Recorder.content_hash` and :meth:`Recorder.summary` read the columns
directly and build no sample views; the hash formats each row through one
cached template per mapping-key layout and equals
:func:`sample_stream_hash` over the views byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


#: Mapping-valued sample fields (each stored as a keys column + values column).
_MAPPING_FIELDS = (
    "power_per_cluster_w",
    "temperatures_c",
    "frequencies_mhz",
    "max_limits_mhz",
    "utilisations",
)

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
    """Accumulates samples (struct-of-arrays) and computes :class:`SummaryStatistics`."""

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
        # Mapping columns: one (keys, values) tuple pair per row per field.
        self._map_keys: Dict[str, List[Tuple[str, ...]]] = {
            name: [] for name in _MAPPING_FIELDS
        }
        self._map_vals: Dict[str, List[tuple]] = {name: [] for name in _MAPPING_FIELDS}
        # Interned key tuples (rows overwhelmingly share one layout per run).
        self._key_intern: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # Registered fixed layout for the engine fast path.
        self._cluster_keys: Optional[Tuple[str, ...]] = None
        self._node_keys: Optional[Tuple[str, ...]] = None
        # Lazily materialised SimulationSample views.
        self._materialised: List[SimulationSample] = []

    # -- appending ------------------------------------------------------------------

    def register_layout(
        self, cluster_keys: Sequence[str], node_keys: Sequence[str]
    ) -> None:
        """Fix the key layout for :meth:`append_tick` (cluster / node order)."""
        self._cluster_keys = self._intern(tuple(cluster_keys))
        self._node_keys = self._intern(tuple(node_keys))

    def _intern(self, keys: Tuple[str, ...]) -> Tuple[str, ...]:
        return self._key_intern.setdefault(keys, keys)

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
        cluster_keys = self._cluster_keys
        node_keys = self._node_keys
        if cluster_keys is None or node_keys is None:
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
        map_keys = self._map_keys
        map_vals = self._map_vals
        map_keys["power_per_cluster_w"].append(cluster_keys)
        map_vals["power_per_cluster_w"].append(power_per_cluster_values)
        map_keys["temperatures_c"].append(node_keys)
        map_vals["temperatures_c"].append(temperature_values)
        map_keys["frequencies_mhz"].append(cluster_keys)
        map_vals["frequencies_mhz"].append(frequency_values)
        map_keys["max_limits_mhz"].append(cluster_keys)
        map_vals["max_limits_mhz"].append(max_limit_values)
        map_keys["utilisations"].append(cluster_keys)
        map_vals["utilisations"].append(utilisation_values)

    def record(self, sample: SimulationSample) -> None:
        """Append one sample (object-based compatibility path)."""
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
        for name in _MAPPING_FIELDS:
            mapping = getattr(sample, name)
            keys = self._intern(tuple(mapping))
            self._map_keys[name].append(keys)
            self._map_vals[name].append(tuple(mapping[k] for k in keys))

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

    def _build_sample(self, i: int) -> SimulationSample:
        map_keys = self._map_keys
        map_vals = self._map_vals
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
            power_per_cluster_w=dict(
                zip(map_keys["power_per_cluster_w"][i], map_vals["power_per_cluster_w"][i])
            ),
            temperatures_c=dict(
                zip(map_keys["temperatures_c"][i], map_vals["temperatures_c"][i])
            ),
            frequencies_mhz=dict(
                zip(map_keys["frequencies_mhz"][i], map_vals["frequencies_mhz"][i])
            ),
            max_limits_mhz=dict(
                zip(map_keys["max_limits_mhz"][i], map_vals["max_limits_mhz"][i])
            ),
            utilisations=dict(zip(map_keys["utilisations"][i], map_vals["utilisations"][i])),
            interaction_activity=self._interaction[i],
        )

    def content_hash(self) -> str:
        """Canonical hash of the recorded stream (see :func:`sample_stream_hash`).

        Reads the columns directly: each run of rows sharing one
        mapping-key layout is formatted through that layout's
        :func:`_row_template`, so the digest equals
        ``sample_stream_hash(self.samples)`` without building any sample.
        """
        h = hashlib.sha256()
        key_columns = [self._map_keys[name] for name in _MAPPING_FIELDS]
        value_columns = [self._map_vals[name] for name in _MAPPING_FIELDS]
        scalar_columns = (
            self._time,
            self._app,
            self._phase,
            self._fps,
            self._target_fps,
            self._demanded,
            self._displayed,
            self._dropped,
            self._power_total,
        )
        start = 0
        for layout, run in groupby(zip(*key_columns)):
            run_stop = start + len(list(run))
            template, orders = _row_template(layout)
            format_row = template.__mod__
            for lo in range(start, run_stop, _HASH_CHUNK_ROWS):
                hi = min(lo + _HASH_CHUNK_ROWS, run_stop)
                columns = [column[lo:hi] for column in scalar_columns]
                for values, order in zip(value_columns, orders):
                    by_position = list(zip(*values[lo:hi]))
                    columns.extend(by_position[index] for index in order)
                columns.append(self._interaction[lo:hi])
                h.update("".join(map(format_row, zip(*columns))).encode("utf-8"))
            start = run_stop
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
            keys = self._map_keys[name]
            vals = self._map_vals[name]
            return [dict(zip(keys[i], vals[i])) for i in range(len(self._time))]
        return [getattr(sample, name) for sample in self.samples]

    def _mapping_series(self, field_name: str, key: str, default: float) -> List[float]:
        """One key of a mapping field across all rows (``default`` when absent)."""
        keys = self._map_keys[field_name]
        vals = self._map_vals[field_name]
        index_cache: Dict[Tuple[str, ...], Optional[int]] = {}
        series: List[float] = []
        for i in range(len(self._time)):
            row_keys = keys[i]
            idx = index_cache.get(row_keys, -2)
            if idx == -2:
                idx = row_keys.index(key) if key in row_keys else None
                index_cache[row_keys] = idx
            series.append(default if idx is None else vals[i][idx])
        return series

    def temperature_series(self, node: str) -> List[float]:
        """Temperature of ``node`` across all samples."""
        return self._mapping_series("temperatures_c", node, self.ambient_c)

    def frequency_series(self, cluster: str) -> List[float]:
        """Operating frequency of ``cluster`` across all samples."""
        return self._mapping_series("frequencies_mhz", cluster, 0.0)

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
        node_names: List[str] = sorted(
            {node for keys in set(self._map_keys["temperatures_c"]) for node in keys}
        )
        node_series = {
            node: self._mapping_series("temperatures_c", node, ambient)
            for node in node_names
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


class BatchRecorder:
    """Column-striped recording over a device axis.

    The scalar :class:`Recorder` already stores struct-of-arrays per tick;
    here the device axis is one more stride.  Float fields are appended as
    ``(devices,)`` / ``(clusters, devices)`` / ``(nodes, devices)`` NumPy
    rows per recorded tick, string and integer fields as per-tick Python
    lists.  :meth:`device_recorder` slices one device column out into a real
    :class:`Recorder`; float64 extraction via ``tolist()`` is exact, so the
    materialised per-device sample stream is bit-identical to the one a
    scalar simulation of that device records.
    """

    #: Columns appended as one per-device Python list per recorded tick.
    _LIST_COLUMNS = (
        "_app",
        "_phase",
        "_target_fps",
        "_demanded",
        "_displayed",
        "_dropped",
        "_interaction",
    )
    #: Columns appended as one NumPy row per recorded tick.
    _ARRAY_COLUMNS = (
        "_fps",
        "_power_total",
        "_power_rows",
        "_temp_rows",
        "_freq_rows",
        "_max_limit_rows",
        "_util_rows",
    )

    def __init__(
        self,
        n_devices: int,
        ambient_c: float,
        hot_node: str,
        cluster_keys: Sequence[str],
        node_keys: Sequence[str],
    ) -> None:
        self.n_devices = n_devices
        self.ambient_c = ambient_c
        self.hot_node = hot_node
        self._cluster_keys = tuple(cluster_keys)
        self._node_keys = tuple(node_keys)
        self._time: List[float] = []
        # Per-tick Python rows (ragged / non-float fields), one entry per device.
        self._app: List[List[str]] = []
        self._phase: List[List[str]] = []
        self._target_fps: List[List[float]] = []
        self._demanded: List[List[int]] = []
        self._displayed: List[List[int]] = []
        self._dropped: List[List[int]] = []
        self._interaction: List[List[float]] = []
        # Per-tick NumPy rows.
        self._fps: List = []  # (devices,)
        self._power_total: List = []  # (devices,)
        self._power_rows: List = []  # (clusters, devices)
        self._temp_rows: List = []  # (nodes, devices)
        self._freq_rows: List = []  # (clusters, devices)
        self._max_limit_rows: List = []  # (clusters, devices)
        self._util_rows: List = []  # (clusters, devices)
        # Per-row device mask: None means every device recorded this tick;
        # otherwise a tuple of the device indices whose lane was both active
        # and due under its own recording cadence (heterogeneous batches).
        self._row_mask: List[Optional[Tuple[int, ...]]] = []
        # Lane-major copies of the rows gathered so far (see _gather_columns)
        # and which lane recorded each row.
        self._lanes: Dict[str, Any] = {}
        self._recorded = None

    def __len__(self) -> int:
        return len(self._time)

    def append_tick(
        self,
        time_s: float,
        app_names: List[str],
        phase_names: List[str],
        fps,
        target_fps: List[float],
        frames_demanded: List[int],
        frames_displayed: List[int],
        frames_dropped: List[int],
        power_total,
        power_rows,
        temperature_rows,
        frequency_rows,
        max_limit_rows,
        utilisation_rows,
        interaction: List[float],
        device_mask: Optional[Tuple[int, ...]] = None,
    ) -> None:
        """Append one recorded tick.

        Array arguments must be owned by the recorder (pass copies of any
        live simulation buffer) and always span the full device axis;
        ``device_mask`` marks which device columns belong to this row
        (``None`` = all of them -- the homogeneous fast path).
        """
        self._time.append(time_s)
        self._row_mask.append(device_mask)
        self._app.append(app_names)
        self._phase.append(phase_names)
        self._fps.append(fps)
        self._target_fps.append(target_fps)
        self._demanded.append(frames_demanded)
        self._displayed.append(frames_displayed)
        self._dropped.append(frames_dropped)
        self._power_total.append(power_total)
        self._power_rows.append(power_rows)
        self._temp_rows.append(temperature_rows)
        self._freq_rows.append(frequency_rows)
        self._max_limit_rows.append(max_limit_rows)
        self._util_rows.append(utilisation_rows)
        self._interaction.append(interaction)

    def _gather_columns(self) -> None:
        """Turn the rows appended since the last gather into lane-major columns.

        Each Python column becomes one tuple per device and each NumPy
        column one ``(ticks, ..., devices)`` array, appended to what earlier
        gathers built.  A column's per-tick rows are released as soon as its
        gathered copy exists, so the two are never held side by side.  Also
        rebuilds ``_recorded``, the ``(ticks, devices)`` mask of which lane
        recorded each row (``None`` when every lane recorded every row).
        """
        import numpy as np

        if not self._fps:
            return  # no row appended since the last gather
        lanes = self._lanes
        for name in self._LIST_COLUMNS + self._ARRAY_COLUMNS:
            rows = getattr(self, name)
            setattr(self, name, [])
            if name in self._ARRAY_COLUMNS:
                column = np.stack(rows)
                if name in lanes:
                    column = np.concatenate((lanes[name], column))
            else:
                column = list(zip(*rows))
                if name in lanes:
                    column = [old + new for old, new in zip(lanes[name], column)]
            del rows
            lanes[name] = column
        masked = [
            (i, mask) for i, mask in enumerate(self._row_mask) if mask is not None
        ]
        if masked:
            recorded = np.ones((len(self._time), self.n_devices), dtype=bool)
            for i, mask in masked:
                recorded[i] = False
                recorded[i, list(mask)] = True
            self._recorded = recorded
        else:
            self._recorded = None

    def device_recorder(self, device: int) -> Recorder:
        """Materialise one device's column as a scalar :class:`Recorder`.

        Rows whose ``device_mask`` excludes ``device`` (the lane had
        finished, or its recording cadence was not due) are skipped, so the
        materialised stream is exactly what a scalar run of that device
        records.  Each column is gathered lane-major once per recorder (see
        :meth:`_gather_columns`); every call slices one lane out of it.
        """
        recorder = Recorder(ambient_c=self.ambient_c, hot_node=self.hot_node)
        recorder.register_layout(self._cluster_keys, self._node_keys)
        if not self._time:
            return recorder
        self._gather_columns()
        lanes = self._lanes
        if self._recorded is None:
            rows = slice(None)
            count = len(self._time)
            recorder._time = list(self._time)

            def take(lane):
                return list(lane)

        else:
            rows = self._recorded[:, device].nonzero()[0]
            indices = rows.tolist()
            count = len(indices)
            recorder._time = [self._time[i] for i in indices]

            def take(lane):
                return [lane[i] for i in indices]

        recorder._app = take(lanes["_app"][device])
        recorder._phase = take(lanes["_phase"][device])
        recorder._target_fps = take(lanes["_target_fps"][device])
        recorder._demanded = take(lanes["_demanded"][device])
        recorder._displayed = take(lanes["_displayed"][device])
        recorder._dropped = take(lanes["_dropped"][device])
        recorder._interaction = take(lanes["_interaction"][device])
        recorder._fps = lanes["_fps"][rows, device].tolist()
        recorder._power_total = lanes["_power_total"][rows, device].tolist()
        cluster_keys = recorder._cluster_keys
        node_keys = recorder._node_keys
        for name, keys, field in (
            ("_power_rows", cluster_keys, "power_per_cluster_w"),
            ("_temp_rows", node_keys, "temperatures_c"),
            ("_freq_rows", cluster_keys, "frequencies_mhz"),
            ("_max_limit_rows", cluster_keys, "max_limits_mhz"),
            ("_util_rows", cluster_keys, "utilisations"),
        ):
            recorder._map_keys[field] = [keys] * count
            # (keys, ticks) lists zipped into one values tuple per tick.
            by_key = lanes[name][rows, :, device].T.tolist()
            recorder._map_vals[field] = list(zip(*by_key))
        return recorder
