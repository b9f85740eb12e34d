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
windows, one set per lane segment, and folds each lane's rows into its
running v1 digest through the same template as the windows fill.  The
same fold continues the lane's running summary: exact running sums that
continue builtin ``sum`` (:func:`_running_sum`), running maxima and an FPS
histogram, so a lane keeps no per-row storage.  A batch lane's product is
its digest and its summary: :meth:`BatchRecorder.device_recorder` hands
out a :class:`Recorder` that holds both and refuses to return samples.
One helper, :func:`_summarise`, builds every summary from column
reductions, whether :meth:`Recorder.summary` takes them over its lists or
a batch lane kept them running.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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


def _fold_rows(digest, layout: Tuple[Tuple[str, ...], ...], columns: Sequence) -> None:
    """Fold rows, given as columns, into a v1 ``digest`` (a SHA-256 object).

    ``columns`` follows :meth:`Recorder.append_tick`: the nine scalar fields
    from ``time_s`` to ``power_total_w``, one column per key of ``layout``
    (field after field), then ``interaction_activity``.  Every row is
    formatted through the layout's :func:`_row_template`, so folding a
    stream piece by piece, in order, gives the digest of the whole stream.
    """
    template, orders = _row_template(layout)
    format_row = template.__mod__
    hashed = list(columns[:9])
    start = 9
    for keys, order in zip(layout, orders):
        hashed.extend(columns[start + index] for index in order)
        start += len(keys)
    hashed.append(columns[start])
    for lo in range(0, len(columns[0]), _HASH_CHUNK_ROWS):
        rows = zip(*[column[lo : lo + _HASH_CHUNK_ROWS] for column in hashed])
        digest.update("".join(map(format_row, rows)).encode("utf-8"))


#: Whether builtin ``sum`` compensates the rounding of a float sum
#: (Neumaier's algorithm, as CPython 3.12 and later do) or adds plainly, as
#: 3.9-3.11 do.  Decided once, by behaviour: only a compensated sum gets 2.0.
_SUM_COMPENSATES = sum([1.0, 1e100, 1.0, -1e100]) == 2.0


def _running_sum(state, values: List[float], compensated: bool):
    """Continue builtin ``sum`` of a float column over its next ``values``.

    ``state`` is None before the column's first value, and afterwards the
    ``(total, compensation)`` pair this returns.  Fed a column window by
    window, in order, the last state's :func:`_sum_value` is ``sum(column)``
    bit for bit, in the family of ``sum`` that ``compensated`` names:

    * plain: the first window enters as ``sum(values)``, whose int start
      turns a leading ``-0.0`` into ``0.0``, and every later one as
      ``sum(values, total)``;
    * compensated: CPython's loop, carried across windows.  The first value
      enters as ``0 + x``; each later ``x`` goes into the total, and the
      rounding error of that addition into the compensation.
    """
    if not values:
        return state
    if not compensated:
        return (sum(values) if state is None else sum(values, state[0])), 0.0
    items = iter(values)
    if state is None:
        total, compensation = 0 + next(items), 0.0
    else:
        total, compensation = state
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total, compensation


def _sum_value(state) -> float:
    """The sum of a column from its last :func:`_running_sum` state.

    As in CPython's compensated ``sum``, the compensation is added only when
    it is nonzero and finite: that keeps the sign of a ``-0.0`` total, and an
    infinite or overflowed total does not turn into NaN.  A plain state's
    compensation is 0.0.
    """
    total, compensation = state
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _running_max(peak, values: List[float]):
    """Continue builtin ``max`` of a column over its next ``values``.

    ``peak`` is None before the column's first value, and afterwards what
    this returns.  The maximum continues from ``peak`` through ``values``
    in order, as ``max`` over the whole column does: combining per-window
    maxima afterwards would differ once a NaN is present.
    """
    return max(values) if peak is None else max(chain((peak,), values))


def _ranked(counts: Mapping[float, int], index: int) -> float:
    """``sorted(values)[index]`` of the values that ``counts`` histograms.

    Exact for floats other than NaN and ``-0.0``: each of them equals only
    floats with its own bits, so merging equal values into one key loses
    nothing.
    """
    for value in sorted(counts):
        index -= counts[value]
        if index < 0:
            return value
    raise IndexError("histogram index out of range")


def _summarise(
    rows: int,
    times: Tuple[float, float],
    frames: Tuple[int, int, int],
    sums: Tuple[float, float, float, float],
    peak_power_w: float,
    temperatures: Dict[str, Tuple[float, float]],
    fps_at: Callable[[int], float],
) -> SummaryStatistics:
    """The summary of ``rows`` recorded rows, from their column reductions.

    ``times`` holds the first and last row time, ``frames`` the displayed,
    demanded and dropped totals, and ``sums`` builtin ``sum`` of FPS, total
    power, per-row PPDW and target FPS.  ``temperatures`` maps each thermal
    node, in sorted order, to the ``sum`` and the ``max`` of its column.
    ``fps_at(i)`` is ``sorted(fps)[i]``.
    """
    first_time, last_time = times
    duration = last_time - first_time
    if rows > 1 and duration > 0:
        dt = duration / (rows - 1)
    else:
        dt = 0.0
    fps_sum, power_sum, ppdw_sum, target_sum = sums
    displayed, demanded, dropped = frames
    return SummaryStatistics(
        duration_s=duration,
        average_power_w=power_sum / rows,
        peak_power_w=peak_power_w,
        average_fps=fps_sum / rows,
        fps_p10=fps_at(max(0, int(0.1 * (rows - 1)))),
        peak_temperature_c={node: peak for node, (_, peak) in temperatures.items()},
        average_temperature_c={
            node: total / rows for node, (total, _) in temperatures.items()
        },
        total_frames_displayed=displayed,
        total_frames_demanded=demanded,
        total_frames_dropped=dropped,
        average_ppdw=ppdw_sum / rows,
        average_target_fps=target_sum / rows,
        energy_j=power_sum * dt if dt > 0 else 0.0,
    )


class _FoldedLane:
    """What a batch lane keeps of its rows once they are folded.

    ``digest`` is the running v1 SHA-256 of the rows, ``rows`` their count
    and ``frames`` the displayed, demanded and dropped totals.  The rest is
    the lane's running summary, of fixed size whatever its length:
    ``sums`` holds the :func:`_running_sum` states of FPS, total power,
    PPDW, target FPS and each thermal node's temperature (in layout order),
    ``peaks`` the running ``max`` of total power and each node's
    temperature, and ``fps_counts`` the rows per FPS value.  A lane's FPS
    is a displayed-frame count over the FPS window, never NaN or ``-0.0``,
    so the histogram's sorted keys rank FPS as ``sorted`` does.
    """

    __slots__ = (
        "digest",
        "rows",
        "first_time_s",
        "last_time_s",
        "frames",
        "sums",
        "peaks",
        "fps_counts",
    )

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.rows = 0
        self.first_time_s = 0.0
        self.last_time_s = 0.0
        self.frames = (0, 0, 0)
        self.sums: Optional[List[tuple]] = None
        self.peaks: Optional[List[float]] = None
        self.fps_counts: Counter = Counter()

    def reduce(self, summed: List[List[float]], peaked: List[List[float]]) -> None:
        """Continue the running summary over the next rows of the lane.

        ``summed`` holds the rows' FPS, total power, PPDW, target FPS and
        node temperatures, and ``peaked`` their total power and node
        temperatures, each as a list of floats.
        """
        sums = self.sums or [None] * len(summed)
        self.sums = [
            _running_sum(state, column, _SUM_COMPENSATES)
            for state, column in zip(sums, summed)
        ]
        peaks = self.peaks or [None] * len(peaked)
        self.peaks = list(map(_running_max, peaks, peaked))
        self.fps_counts.update(summed[0])

    def snapshot(self) -> "_FoldedLane":
        """The digest and running summary so far, unchanged by later folds."""
        copy = _FoldedLane()
        copy.digest = self.digest.copy()
        copy.rows = self.rows
        copy.first_time_s = self.first_time_s
        copy.last_time_s = self.last_time_s
        copy.frames = self.frames
        copy.sums = list(self.sums)
        copy.peaks = list(self.peaks)
        copy.fps_counts = Counter(self.fps_counts)
        return copy

    def summary(self, nodes: Sequence[str]) -> SummaryStatistics:
        """The summary of the rows folded so far.

        ``nodes`` are the thermal node keys in layout order; a node listed
        twice reads its last column, as :meth:`Recorder.summary` does.
        """
        sums = [_sum_value(state) for state in self.sums]
        last = {node: index for index, node in enumerate(nodes)}
        counts = self.fps_counts
        return _summarise(
            self.rows,
            (self.first_time_s, self.last_time_s),
            self.frames,
            tuple(sums[:4]),
            self.peaks[0],
            {
                node: (sums[4 + last[node]], self.peaks[1 + last[node]])
                for node in sorted(last)
            },
            lambda index: _ranked(counts, index),
        )


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
        #: A batch lane folded as it was recorded (see
        #: :meth:`BatchRecorder.device_recorder`): its digest and running
        #: summary.  Such a recorder keeps no columns.
        self._folded: Optional[_FoldedLane] = None

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
        folded = self._folded
        return len(self._time) if folded is None else folded.rows

    def _require_rows(self) -> None:
        if self._folded is not None:
            raise ValueError(
                "a batch lane keeps only its digest and summary, not its rows; "
                "run the device on the scalar kernel (Simulation) for samples"
            )

    # -- sample views ----------------------------------------------------------------

    @property
    def samples(self) -> List[SimulationSample]:
        """All samples as :class:`SimulationSample` views (materialised lazily)."""
        self._require_rows()
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
        A folded batch lane returns the digest its rows were folded into.
        """
        if self._folded is not None:
            return self._folded.digest.hexdigest()
        digest = hashlib.sha256()
        _fold_rows(
            digest,
            tuple(self._layout.values()),
            [
                self._time,
                self._app,
                self._phase,
                self._fps,
                self._target_fps,
                self._demanded,
                self._displayed,
                self._dropped,
                self._power_total,
                *self._key_columns,
                self._interaction,
            ],
        )
        return digest.hexdigest()

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
        self._require_rows()
        attr = self._SCALAR_COLUMNS.get(name)
        if attr is not None:
            return list(getattr(self, attr))
        if name in _MAPPING_FIELDS:
            return [self._mapping(name, i) for i in range(len(self._time))]
        return [getattr(sample, name) for sample in self.samples]

    def _mapping_series(self, field_name: str, key: str, default: float) -> List[float]:
        """One key's column of a mapping field, not a copy (``default`` when absent).

        A key that the layout lists twice reads its last column, the value
        that the recorded samples (``dict(zip(keys, values))``) keep.
        """
        keys = self._layout.get(field_name, ())
        if key not in keys:
            return [default] * len(self)
        last = len(keys) - 1 - keys[::-1].index(key)
        return self._key_columns[self._spans[field_name].start + last]

    def temperature_series(self, node: str) -> List[float]:
        """Temperature of ``node`` across all samples."""
        self._require_rows()
        return list(self._mapping_series("temperatures_c", node, self.ambient_c))

    def frequency_series(self, cluster: str) -> List[float]:
        """Operating frequency of ``cluster`` across all samples."""
        self._require_rows()
        return list(self._mapping_series("frequencies_mhz", cluster, 0.0))

    # -- summaries -----------------------------------------------------------------

    def summary(self) -> SummaryStatistics:
        """Aggregate the recorded run."""
        if self._folded is not None:
            return self._folded.summary(self._layout["temperatures_c"])
        count = len(self._time)
        if count == 0:
            raise ValueError("cannot summarise an empty recording")
        powers = self._power_total
        fps_values = self._fps

        ambient = self.ambient_c
        node_series = {
            node: self._mapping_series("temperatures_c", node, ambient)
            for node in sorted(set(self._layout.get("temperatures_c", ())))
        }
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

        return _summarise(
            count,
            (self._time[0], self._time[-1]),
            (sum(self._displayed), sum(self._demanded), sum(self._dropped)),
            (sum(fps_values), sum(powers), sum(ppdw_values), sum(self._target_fps)),
            max(powers),
            {node: (sum(series), max(series)) for node, series in node_series.items()},
            lambda index: sorted(fps_values)[index],
        )

    # -- resampled views -------------------------------------------------------------

    def resample(self, period_s: float) -> List[SimulationSample]:
        """Return roughly one sample per ``period_s`` (for plotting / traces)."""
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self._require_rows()
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


#: The largest value an int16 block holds.  Every frame count, name code and
#: OPP index is checked against it before it enters a block, never wrapped.
_INT16_MAX = 2**15 - 1


class _Segment:
    """The rows one lane segment records, one window at a time.

    Each block holds a window of ``min(rows, _HASH_CHUNK_ROWS)`` rows.
    ``floats`` and ``ints`` are ``(window, fields, lanes)`` blocks.  The
    demand groups' fields are ``group_ints`` (app and phase codes, frames
    demanded), ``(window, 3, groups)``, and ``interaction``, ``(window,
    groups)``.  ``targets`` is ``(window, agent lanes)``.  The window holds
    the segment's rows ``folded`` to ``filled``; once every row of the
    segment is written and folded, the blocks are released.
    """

    def __init__(
        self,
        lanes: Sequence[int],
        groups: Sequence[Sequence[int]],
        row_ticks,
        owner: "BatchRecorder",
    ) -> None:
        import numpy as np

        rows = min(len(row_ticks), _HASH_CHUNK_ROWS)
        agents = [device for device in lanes if device in owner._agent_lanes]
        #: Device index -> its lane column in this segment's blocks.
        self.column_of = {device: column for column, device in enumerate(lanes)}
        #: Device index -> the column of its demand group.
        self.group_of = {
            device: group for group, members in enumerate(groups) for device in members
        }
        #: Agent lane -> its column of ``targets``.
        self.target_of = {device: column for column, device in enumerate(agents)}
        #: Device-axis index of this segment's lanes in a full-width row, or
        #: None when every lane is active.
        self.take = None if len(lanes) == owner.n_devices else np.array(lanes)
        self.target_take = np.array(agents, dtype=np.intp)
        #: The tick of each of the segment's rows.
        self.ticks = row_ticks
        self.times = np.empty(rows)
        self.floats = np.empty((rows, owner._float_fields, len(lanes)))
        self.ints = np.empty((rows, owner._int_fields, len(lanes)), dtype=np.int16)
        self.group_ints = np.empty((rows, 3, len(groups)), dtype=np.int16)
        self.interaction = np.empty((rows, len(groups)))
        self.targets = np.empty((rows, len(agents)))
        #: Rows written so far.
        self.filled = 0
        #: Rows folded into the lanes' digests so far.
        self.folded = 0

    def release(self) -> None:
        """Drop the blocks of a segment whose rows are all folded."""
        self.times = self.floats = self.ints = None
        self.group_ints = self.interaction = self.targets = None


class BatchRecorder:
    """Per-segment window recording over the lanes of a batched run, folded as it goes.

    A batched run splits into segments with a constant set of active lanes
    (:meth:`~repro.sim.batch.BatchSimulation._lane_schedule`).
    :meth:`begin_segment` allocates the blocks of a segment: one window of
    up to :data:`_HASH_CHUNK_ROWS` of the ticks on which one of its lanes
    records, for those lanes only, so a lane that has ended keeps no rows.
    Each recorded tick (:meth:`append_tick`) writes one row of every block:

    * per lane, a float64 block (FPS, total power, per-cluster power,
      per-node temperature, per-cluster utilisation) and an int16 block
      (frames displayed and dropped, then per-cluster frequency and
      max-limit OPP indices): 112 B per lane-row on a platform with three
      clusters and four thermal nodes;
    * per demand group (the lanes that read one trace from one position,
      see :meth:`~repro.sim.batch.BatchSimulation.run`), the app and phase
      names as codes into one string table and the frames demanded, as
      int16, and the interaction as a float64: 14 B per group-row;
    * per agent lane, its target FPS.  Every other lane records 0.0, which
      the fold fills in without storing it.

    A full window is folded before its next row is written, and every
    pending row on the first :meth:`device_recorder` call after a run.  The
    fold takes each lane's rows at its own cadence, in row order, through
    :func:`_fold_rows` into the lane's running v1 SHA-256, so the digest is
    byte for byte what a scalar run of that device records.  The same fold
    continues the lane's running summary (:class:`_FoldedLane`): running
    sums that continue builtin ``sum``, running maxima and an FPS
    histogram, so :meth:`Recorder.summary` of the lane equals a scalar
    run's while the lane keeps no per-row storage.  Segments fold in
    order, so a lane folds an earlier segment's rows before a later one's.
    A run with fewer than :data:`_HASH_CHUNK_ROWS` rows per segment folds
    nothing until it is read.

    int16 holds each value exactly, or the value raises ``ValueError``: the
    OPP table is checked when the recorder is built and the string table
    when it grows, and frame counts as they enter a row (a lane's rejected
    frames are at most its group's demanded frames, and its displayed frames
    at most the tick's VSync edges).  float64 extraction is exact, so every
    folded value is the one a scalar simulation of that device records.
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
        agent_lanes: Iterable[int] = (),
    ) -> None:
        """``frequency_table`` holds every cluster's OPP frequencies in one
        flat array; ``frequency_offsets`` is the ``(clusters, 1)`` column of
        each cluster's first entry in it.  ``agent_lanes`` are the lanes
        whose target FPS is recorded."""
        if len(frequency_table) > _INT16_MAX + 1:
            raise ValueError(
                f"{len(frequency_table)} OPPs: the recorder's int16 OPP "
                f"indices reach {_INT16_MAX + 1}"
            )
        self.n_devices = n_devices
        self.ambient_c = ambient_c
        self.hot_node = hot_node
        self._cluster_keys = tuple(cluster_keys)
        self._node_keys = tuple(node_keys)
        clusters = self._cluster_keys
        #: The hashed key layout, as :meth:`Recorder.register_layout` fixes it.
        self._layout = (clusters, self._node_keys, clusters, clusters, clusters)
        nodes = self._node_keys
        #: The float-block field of the hot node's temperature (its last
        #: column when listed twice), or None when the layout lacks it.
        self._hot_field = (
            1 + len(clusters) + len(nodes) - nodes[::-1].index(hot_node)
            if hot_node in nodes
            else None
        )
        self._record_every = [int(every) for every in record_every]
        self._frequency_table = frequency_table
        self._frequency_offsets = frequency_offsets
        self._agent_lanes = frozenset(agent_lanes)
        #: Fields of the float block: fps and total power, then per-cluster
        #: power, per-node temperature and per-cluster utilisation.
        self._float_fields = 2 + 2 * len(clusters) + len(self._node_keys)
        #: Fields of the int16 block: frames displayed and dropped, then
        #: per-cluster frequency and max-limit OPP indices.
        self._int_fields = 2 + 2 * len(clusters)
        #: String table: name -> code, in first-seen order.
        self._names: Dict[str, int] = {}
        #: The last group app and phase names and their ``(2, groups)``
        #: codes: a group's names change only when its app or phase does.
        self._last_codes: tuple = ((), (), None)
        self._segments: List[_Segment] = []
        #: Device index -> its folded rows, from its first fold on.
        self._lanes: Dict[int, _FoldedLane] = {}

    def __len__(self) -> int:
        return sum(segment.filled for segment in self._segments)

    def begin_segment(
        self,
        first_tick: int,
        ticks: int,
        lanes: Sequence[int],
        groups: Sequence[Sequence[int]],
    ) -> FrozenSet[int]:
        """Allocate the blocks of a segment that steps ``lanes`` for ``ticks`` ticks.

        ``first_tick`` is the tick count before the segment, and ``groups``
        partitions ``lanes`` into demand groups, in the order in which
        :meth:`append_tick` lists them.  Returns the ticks on which at least
        one of the lanes records; each of them gets one row, written by
        :meth:`append_tick`.
        """
        import numpy as np

        tick_numbers = np.arange(first_tick + 1, first_tick + ticks + 1)
        due = np.zeros(ticks, dtype=bool)
        for every in {self._record_every[device] for device in lanes}:
            due |= tick_numbers % every == 0
        row_ticks = tick_numbers[due]
        self._segments.append(_Segment(lanes, groups, row_ticks, self))
        return frozenset(row_ticks.tolist())

    def _codes(self, apps: List[str], phases: List[str]):
        """String-table codes of the groups' app and phase names, ``(2, groups)``."""
        import numpy as np

        last = self._last_codes
        if last[0] != apps or last[1] != phases:
            table = self._names
            codes = [
                [table.setdefault(name, len(table)) for name in names]
                for names in (apps, phases)
            ]
            if len(table) > _INT16_MAX + 1:
                raise ValueError(
                    f"{len(table)} names: the recorder's int16 name codes "
                    f"reach {_INT16_MAX + 1}"
                )
            last = self._last_codes = (list(apps), list(phases), np.array(codes))
        return last[2]

    def append_tick(
        self,
        time_s: float,
        group_apps: List[str],
        group_phases: List[str],
        group_demanded: List[int],
        group_interaction: List[float],
        edge_count: int,
        fps,
        target_fps,
        counts,
        power_total,
        power_rows,
        temperature_rows,
        frequency_rows,
        max_limit_rows,
        utilisation_rows,
    ) -> None:
        """Write the current segment's next row, folding its window first when full.

        The four group arguments are Python lists with one entry per demand
        group of the segment: app and phase names, frames demanded and
        interaction.  ``edge_count`` is the tick's VSync edge count.  Every
        other argument spans the full device axis and is only read, so live
        simulation buffers may be passed: ``fps``, ``target_fps`` (read on
        agent lanes only) and ``power_total`` are ``(devices,)`` arrays;
        ``counts`` is the ``(3, devices)`` array of frames displayed, dropped
        and demanded, whose last row the groups already hold;
        ``frequency_rows`` and ``max_limit_rows`` are ``(clusters, devices)``
        OPP indices; the other rows are ``(clusters, devices)`` or ``(nodes,
        devices)`` floats.
        """
        import numpy as np

        if edge_count > _INT16_MAX or max(group_demanded) > _INT16_MAX:
            raise ValueError(
                f"{max(group_demanded)} frames demanded and {edge_count} VSync "
                f"edges in one tick: the recorder's int16 frame counts reach "
                f"{_INT16_MAX}"
            )
        segment = self._segments[-1]
        row = segment.filled - segment.folded
        if row == len(segment.times):
            self._fold()
            row = 0
        floats = (
            fps[None],
            power_total[None],
            power_rows,
            temperature_rows,
            utilisation_rows,
        )
        ints = (counts[:2], frequency_rows, max_limit_rows)
        take = segment.take
        if take is None:
            np.concatenate(floats, out=segment.floats[row])
            np.concatenate(ints, out=segment.ints[row])
        else:
            segment.floats[row] = np.concatenate(floats)[:, take]
            segment.ints[row] = np.concatenate(ints)[:, take]
        np.concatenate(
            (self._codes(group_apps, group_phases), (group_demanded,)),
            out=segment.group_ints[row],
        )
        segment.interaction[row] = group_interaction
        if segment.target_of:
            segment.targets[row] = target_fps[segment.target_take]
        segment.times[row] = time_s
        segment.filled += 1

    def _fold(self) -> None:
        """Fold every written, unfolded row, segment by segment in run order.

        A segment whose rows are then all written and folded releases its
        blocks.
        """
        for segment in self._segments:
            if segment.filled > segment.folded:
                self._fold_window(segment)
                segment.folded = segment.filled
                if segment.folded == len(segment.ticks):
                    segment.release()

    def _fold_window(self, segment: _Segment) -> None:
        """Fold the rows in ``segment``'s window into each of its lanes."""
        import numpy as np

        clusters = len(self._cluster_keys)
        nodes = len(self._node_keys)
        # Fields of the float block: each node's temperature.
        temperatures = slice(2 + clusters, 2 + clusters + nodes)
        hot = self._hot_field
        ambient = self.ambient_c
        names = list(self._names)
        table = self._frequency_table
        offsets = self._frequency_offsets
        ticks = segment.ticks[segment.folded : segment.filled]
        due = {}
        for device, column in segment.column_of.items():
            every = self._record_every[device]
            rows = due.get(every)
            if rows is None:
                rows = due[every] = np.flatnonzero(ticks % every == 0)
            if len(rows) == 0:
                continue
            group = segment.group_of[device]
            ints = segment.ints[rows, :, column].T
            values = segment.floats[rows, :, column].T.tolist()
            displayed, dropped = ints[:2].tolist()
            app_codes, phase_codes, demanded = (
                segment.group_ints[rows, :, group].T.tolist()
            )
            times = segment.times[rows].tolist()
            target = segment.target_of.get(device)
            if target is None:
                target_values = [0.0] * len(times)
            else:
                target_values = segment.targets[rows, target].tolist()
            lane = self._lanes.get(device)
            if lane is None:
                lane = self._lanes[device] = _FoldedLane()
                lane.first_time_s = times[0]
            _fold_rows(
                lane.digest,
                self._layout,
                [
                    times,
                    [names[code] for code in app_codes],
                    [names[code] for code in phase_codes],
                    values[0],
                    target_values,
                    demanded,
                    displayed,
                    dropped,
                    values[1],
                    *values[2 : 2 + clusters + nodes],
                    *table[ints[2 : 2 + clusters] + offsets].tolist(),
                    *table[ints[2 + clusters :] + offsets].tolist(),
                    *values[2 + clusters + nodes :],
                    segment.interaction[rows, group].tolist(),
                ],
            )
            lane.rows += len(times)
            lane.last_time_s = times[-1]
            lane.frames = tuple(
                total + sum(counts)
                for total, counts in zip(lane.frames, (displayed, demanded, dropped))
            )
            ppdw = list(
                map(
                    compute_ppdw,
                    values[0],
                    values[1],
                    repeat(ambient) if hot is None else values[hot],
                    repeat(ambient),
                )
            )
            node_values = values[temperatures]
            lane.reduce(
                [values[0], values[1], ppdw, target_values, *node_values],
                [values[1], *node_values],
            )

    def device_recorder(self, device: int) -> Recorder:
        """One lane's digest and summary as a scalar :class:`Recorder`.

        Folds every pending row of the batch first.  The recorder's
        :meth:`~Recorder.content_hash` and :meth:`~Recorder.summary` equal
        those of a scalar run of that device, and its length is the lane's
        row count; it holds a copy of the lane's digest and running summary,
        not its rows, and reading samples raises ``ValueError``.  A later
        run of a homogeneous batch folds on into the lane and leaves this
        recorder as it is.
        """
        self._fold()
        recorder = Recorder(ambient_c=self.ambient_c, hot_node=self.hot_node)
        recorder.register_layout(self._cluster_keys, self._node_keys)
        lane = self._lanes.get(device)
        if lane is not None:
            recorder._folded = lane.snapshot()
        return recorder
