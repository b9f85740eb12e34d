"""The ``schedutil`` (EAS) frequency scaler and its no-op policy wrapper.

The paper's primary baseline is Android's only stock governor on the Note 9
kernel: ``schedutil``, driven by Energy Aware Scheduling.  Its defining
behaviour is that the frequency of every cluster follows *utilisation* with a
25 % headroom (``next_f = 1.25 * f_curr * util``), ramps up immediately and
ramps down after a short rate-limit window.  Crucially it knows nothing about
frames: during an application loading phase or a background-heavy music
session the utilisation -- and therefore frequency, power and temperature --
stays high even though the user-visible frame rate is near zero.  That gap is
exactly what the Next agent exploits.

Two classes live here:

* :class:`SchedutilScaler` -- the per-tick frequency selection *within the
  current limits*.  The simulation engine always runs one, whatever policy
  governor is active, because that is how a ``maxfreq``-capping agent like
  Next coexists with the stock governor on real devices.
* :class:`SchedutilGovernor` -- the policy layer for the stock configuration:
  it simply keeps all limits wide open.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.governors.base import Governor, GovernorObservation
from repro.soc.cluster import Cluster, ClusterKind
from repro.soc.frequency import flat_table


@dataclass
class SchedutilConfig:
    """Tunables of the utilisation-driven frequency scaler.

    Attributes
    ----------
    headroom:
        Capacity margin applied to the utilisation signal; the kernel uses
        1.25 ("util is 80 % of capacity at the chosen frequency").
    up_rate_limit_s:
        Minimum time between two frequency increases.
    down_rate_limit_s:
        Minimum time between two frequency decreases; the kernel default is
        longer than the up limit which biases the governor towards staying
        high -- reproduced here because the bias matters for power.
    io_boost:
        Utilisation floor applied while the cluster sees any work at all,
        mimicking the scheduler's iowait/boost behaviour on interactive
        workloads.
    touch_boost_fraction:
        Input/touch boost: the frequency floor (as a fraction of the
        cluster's maximum frequency) applied to CPU clusters while they see
        activity.  Stock Android vendor kernels (including the Note 9's)
        boost the CPU clusters to -- or close to -- their top frequency on
        touch input, which is why Fig. 1 of the paper shows the big cluster
        near 2.3-2.7 GHz even while the frame rate is low.  Set to 0 to
        disable.  The boost is always clamped by the cluster's ``maxfreq``
        limit, which is exactly the lever the Next agent uses to defeat it.
    touch_boost_hold_s:
        How long the boost floor persists after the last activity.
    touch_boost_util_threshold:
        Minimum utilisation that counts as activity for boosting purposes.
    boost_gpu:
        Whether the boost floor also applies to the GPU cluster (off by
        default; Mali's devfreq governor does not input-boost).
    """

    headroom: float = 1.25
    up_rate_limit_s: float = 0.0
    down_rate_limit_s: float = 0.1
    io_boost: float = 0.0
    touch_boost_fraction: float = 0.95
    touch_boost_hold_s: float = 1.0
    touch_boost_util_threshold: float = 0.04
    boost_gpu: bool = False

    def __post_init__(self) -> None:
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")
        if self.up_rate_limit_s < 0 or self.down_rate_limit_s < 0:
            raise ValueError("rate limits must be non-negative")
        if not 0.0 <= self.io_boost <= 1.0:
            raise ValueError("io_boost must be in [0, 1]")
        if not 0.0 <= self.touch_boost_fraction <= 1.0:
            raise ValueError("touch_boost_fraction must be in [0, 1]")
        if self.touch_boost_hold_s < 0:
            raise ValueError("touch_boost_hold_s must be non-negative")
        if not 0.0 <= self.touch_boost_util_threshold <= 1.0:
            raise ValueError("touch_boost_util_threshold must be in [0, 1]")


class SchedutilScaler:
    """Per-tick utilisation-driven frequency selection within cluster limits."""

    def __init__(self, config: Optional[SchedutilConfig] = None) -> None:
        self.config = config or SchedutilConfig()
        self._last_up_time_s: Dict[str, float] = {}
        self._last_down_time_s: Dict[str, float] = {}
        self._last_activity_time_s: Dict[str, float] = {}
        # The boost floor index only depends on the cluster's OPP table and
        # the (static) config, so it is computed once per cluster, not every
        # tick (hot-loop: the scaler runs for every cluster on every tick).
        self._boost_index_cache: Dict[str, int] = {}

    def reset(self) -> None:
        """Forget rate-limit and boost history."""
        self._last_up_time_s.clear()
        self._last_down_time_s.clear()
        self._last_activity_time_s.clear()

    def _cached_boost_index(self, cluster: Cluster) -> int:
        """OPP index of the boost frequency floor for ``cluster`` (memoised)."""
        name = cluster.name
        index = self._boost_index_cache.get(name)
        if index is None:
            table = cluster.opp_table
            boost_freq = self.config.touch_boost_fraction * table.max_frequency_mhz
            index = table.ceil_index(boost_freq)
            self._boost_index_cache[name] = index
        return index

    def _boost_floor_index(self, cluster: Cluster, utilisation: float, now_s: float) -> int:
        """OPP index of the input-boost frequency floor (0 when not boosting)."""
        cfg = self.config
        if cfg.touch_boost_fraction <= 0:
            return 0
        if cluster.kind is ClusterKind.GPU and not cfg.boost_gpu:
            return 0
        name = cluster.name
        if utilisation >= cfg.touch_boost_util_threshold:
            self._last_activity_time_s[name] = now_s
        last_activity = self._last_activity_time_s.get(name)
        if last_activity is None or now_s - last_activity > cfg.touch_boost_hold_s:
            return 0
        return self._cached_boost_index(cluster)

    def select(
        self,
        cluster: Cluster,
        utilisation: float,
        now_s: float,
    ) -> int:
        """Pick and apply the OPP for ``cluster`` given its ``utilisation``.

        Returns the OPP index actually applied (after limit clamping).
        """
        cfg = self.config
        utilisation = min(1.0, max(0.0, utilisation))
        if utilisation > 0:
            utilisation = max(utilisation, cfg.io_boost)
        table = cluster.opp_table
        # schedutil: next_freq = headroom * current_freq * util, then pick the
        # lowest OPP at or above that frequency.
        target_freq = cfg.headroom * cluster.current_frequency_mhz * utilisation
        target_index = table.ceil_index(target_freq) if target_freq > 0 else 0
        target_index = max(target_index, self._boost_floor_index(cluster, utilisation, now_s))
        current = cluster.current_index

        name = cluster.name
        if target_index > current:
            last_up = self._last_up_time_s.get(name)
            if last_up is not None and now_s - last_up < cfg.up_rate_limit_s:
                return current
            applied = cluster.set_frequency_index(target_index)
            if applied != current:
                self._last_up_time_s[name] = now_s
            return applied
        if target_index < current:
            last_down = self._last_down_time_s.get(name)
            if last_down is not None and now_s - last_down < cfg.down_rate_limit_s:
                return current
            applied = cluster.set_frequency_index(target_index)
            if applied != current:
                self._last_down_time_s[name] = now_s
            return applied
        return current

    def select_all(
        self,
        clusters: Mapping[str, Cluster],
        utilisations: Mapping[str, float],
        now_s: float,
    ) -> Dict[str, int]:
        """Apply :meth:`select` to every cluster; returns applied indices."""
        return {
            name: self.select(cluster, utilisations.get(name, 0.0), now_s)
            for name, cluster in clusters.items()
        }

    # -- compiled hot path -------------------------------------------------------

    def compile_clusters(
        self, clusters: Mapping[str, Cluster]
    ) -> List[Tuple[str, Cluster, Tuple[float, ...], int, bool, int]]:
        """Precompute per-cluster records for :meth:`select_tick`.

        Each record is ``(name, cluster, frequencies, top_index, boostable,
        boost_index)``: everything :meth:`select` re-derives per call that is
        in fact constant for a given cluster and scaler config.
        """
        cfg = self.config
        compiled = []
        for name, cluster in clusters.items():
            boostable = cfg.touch_boost_fraction > 0 and (
                cluster.kind is not ClusterKind.GPU or cfg.boost_gpu
            )
            compiled.append(
                (
                    name,
                    cluster,
                    cluster._freqs,
                    len(cluster._freqs) - 1,
                    boostable,
                    self._cached_boost_index(cluster),
                )
            )
        return compiled

    def select_tick(
        self,
        compiled: List[Tuple[str, Cluster, Tuple[float, ...], int, bool, int]],
        utilisations: Mapping[str, float],
        now_s: float,
    ) -> None:
        """One fused frequency-selection pass over pre-compiled clusters.

        Behaviourally identical to calling :meth:`select` per cluster (same
        decisions, same rate-limit/boost state updates, same float sequence);
        the per-call layers -- ``ceil_index``/``clamp_index`` wrappers, the
        boost-floor recomputation, the per-cluster method dispatch -- are
        flattened out because this runs for every cluster on every tick.
        """
        cfg = self.config
        headroom = cfg.headroom
        io_boost = cfg.io_boost
        up_rate_limit = cfg.up_rate_limit_s
        down_rate_limit = cfg.down_rate_limit_s
        boost_threshold = cfg.touch_boost_util_threshold
        boost_hold = cfg.touch_boost_hold_s
        last_up = self._last_up_time_s
        last_down = self._last_down_time_s
        last_activity = self._last_activity_time_s
        get_utilisation = utilisations.get
        for name, cluster, freqs, top_index, boostable, boost_index in compiled:
            utilisation = get_utilisation(name, 0.0)
            if utilisation < 0.0:
                utilisation = 0.0
            elif utilisation > 1.0:
                utilisation = 1.0
            if utilisation > 0 and utilisation < io_boost:
                utilisation = io_boost
            target_freq = headroom * freqs[cluster._current_index] * utilisation
            if target_freq > 0:
                target_index = bisect_left(freqs, target_freq)
                if target_index > top_index:
                    target_index = top_index
            else:
                target_index = 0
            if boostable:
                if utilisation >= boost_threshold:
                    last_activity[name] = now_s
                    if boost_index > target_index:
                        target_index = boost_index
                else:
                    activity = last_activity.get(name)
                    if activity is not None and now_s - activity <= boost_hold:
                        if boost_index > target_index:
                            target_index = boost_index
            current = cluster._current_index
            if target_index > current:
                up_time = last_up.get(name)
                if up_time is not None and now_s - up_time < up_rate_limit:
                    continue
                if cluster.set_frequency_index(target_index) != current:
                    last_up[name] = now_s
            elif target_index < current:
                down_time = last_down.get(name)
                if down_time is not None and now_s - down_time < down_rate_limit:
                    continue
                if cluster.set_frequency_index(target_index) != current:
                    last_down[name] = now_s

    # -- batched hot path (device-population kernel) -----------------------------

    def compile_batch(
        self, clusters: Mapping[str, Cluster], n_devices: int
    ) -> "BatchScalerState":
        """Precompute the per-cluster records and state arrays for a batch."""
        return BatchScalerState(self.compile_clusters(clusters), n_devices, self.config)

    def select_tick_batch(
        self,
        state: "BatchScalerState",
        utilisation_rows,
        current_rows,
        min_limit_rows,
        max_limit_rows,
        now_s: float,
    ) -> None:
        """Batched :meth:`select_tick` over a device axis.

        ``utilisation_rows`` / ``current_rows`` / limit rows are
        ``(clusters, devices)`` arrays; ``current_rows`` is updated in place.
        Every step is one whole-array call over all clusters and lanes.  Per
        lane the decision sequence is exactly :meth:`select_tick`'s: the
        utilisation clamp and io-boost floor, ``headroom * f_curr * util``,
        the clamped ``bisect_left`` and its ``target_freq > 0`` guard as one
        search (see :class:`BatchScalerState`), the touch-boost floor with
        hold window, the up/down rate limits, and the limit-window clamp of
        ``Cluster.set_frequency_index``.
        """
        import numpy as np

        cfg = self.config
        io_boost = cfg.io_boost
        utilisation = np.minimum(1.0, np.maximum(0.0, utilisation_rows))
        if io_boost > 0.0:
            utilisation = np.where(
                (utilisation > 0) & (utilisation < io_boost), io_boost, utilisation
            )
        target_freq = state.headroom_frequencies[current_rows + state.offsets] * utilisation
        target_index = (state.ceil_table >= target_freq[:, None, :]).argmax(axis=1)
        if state.any_boostable:
            last_activity = state.last_activity
            active = (utilisation >= cfg.touch_boost_util_threshold) & state.boostable
            np.copyto(last_activity, now_s, where=active)
            boosted = (
                active
                | (state.boostable & ((now_s - last_activity) <= cfg.touch_boost_hold_s))
            ) & (state.boost_index > target_index)
            np.copyto(target_index, state.boost_index, where=boosted)
        applied = np.maximum(min_limit_rows, np.minimum(max_limit_rows, target_index))
        # Row 0 of ``moves`` is "step up", row 1 "step down", each unless its
        # rate limit holds it back.
        moves = state.moves
        np.greater(target_index, current_rows, out=moves[0])
        np.less(target_index, current_rows, out=moves[1])
        moves &= ~((now_s - state.last_moved) < state.rate_limits)
        np.copyto(state.last_moved, now_s, where=moves & (applied != current_rows))
        np.copyto(current_rows, applied, where=moves[0] | moves[1])


class BatchScalerState:
    """Per-batch state of :meth:`SchedutilScaler.select_tick_batch`.

    Holds the compiled per-cluster constants as ``(clusters, 1)`` columns
    that broadcast over the device axis, the OPP tables -- flat with
    per-cluster offsets, as frequencies and as the scalar scaler's
    ``headroom * f`` products (Python floats, so bit-identical), and as the
    ``(clusters, opps, 1)`` ``ceil_table`` -- plus the rate-limit and boost
    timestamps as float arrays: ``last_moved`` is ``(2, clusters,
    devices)``, row 0 the last step up and row 1 the last step down, with
    ``rate_limits`` their ``(2, 1, 1)`` limits and ``moves`` a reused mask
    of the same shape.  A timestamp of ``-inf``
    encodes the scalar scaler's "no entry in the dict" state: every ``now -
    timestamp`` comparison then behaves exactly like the scalar ``None``
    checks (``inf < limit`` is false, ``inf <= hold`` is false).

    ``ceil_table`` row ``k`` is cluster ``k``'s frequencies with the top one
    replaced by ``+inf`` (and padded with ``+inf``), so the position of its
    first entry ``>= target`` is :meth:`SchedutilScaler.select_tick`'s
    ``min(bisect_left(freqs, target), top_index)``.  It is also that
    method's 0 for a target that is not positive: every OPP frequency is
    (``FrequencyPoint`` checks it), so such a target -- or a NaN, which
    compares false everywhere -- finds position 0.  Float comparisons are
    exact.
    """

    __slots__ = (
        "flat_frequencies",
        "headroom_frequencies",
        "offsets",
        "ceil_table",
        "any_boostable",
        "boostable",
        "boost_index",
        "rate_limits",
        "last_moved",
        "last_activity",
        "moves",
    )

    def __init__(self, compiled, n_devices: int, config: SchedutilConfig) -> None:
        import numpy as np

        tables = [record[2] for record in compiled]
        width = max(len(frequencies) for frequencies in tables)
        self.flat_frequencies, self.offsets = flat_table(tables)
        self.headroom_frequencies, _ = flat_table(
            [[config.headroom * f for f in frequencies] for frequencies in tables]
        )
        self.ceil_table = np.array(
            [
                list(frequencies[:-1]) + [np.inf] * (width - len(frequencies) + 1)
                for frequencies in tables
            ],
            dtype=np.float64,
        )[:, :, None]
        self.any_boostable = any(record[4] for record in compiled)
        self.boostable = np.array([record[4] for record in compiled], dtype=bool)[
            :, None
        ]
        self.boost_index = np.array(
            [record[5] for record in compiled], dtype=np.int64
        )[:, None]
        self.rate_limits = np.array(
            [config.up_rate_limit_s, config.down_rate_limit_s], dtype=np.float64
        )[:, None, None]
        n_clusters = len(compiled)
        self.last_moved = np.full((2, n_clusters, n_devices), -np.inf)
        self.last_activity = np.full((n_clusters, n_devices), -np.inf)
        self.moves = np.zeros((2, n_clusters, n_devices), dtype=bool)


class SchedutilGovernor(Governor):
    """Stock Android policy: no frequency limits, scaler follows utilisation."""

    invocation_period_s = 0.1
    observation_free = True

    def __init__(self) -> None:
        super().__init__(name="schedutil")

    def update(self, observation: GovernorObservation, clusters: Dict[str, Cluster]) -> None:
        """Keep every cluster's limits wide open (the scaler does the rest)."""
        for cluster in clusters.values():
            if cluster.max_limit_index != len(cluster.opp_table) - 1 or cluster.min_limit_index != 0:
                cluster.reset_limits()

    def update_batch(self, devices, current_rows, min_limit_rows, max_limit_rows, top_indices) -> None:
        """Vectorised :meth:`update`: limits wide open on every due lane."""
        for k in range(len(top_indices)):
            min_limit_rows[k][devices] = 0
            max_limit_rows[k][devices] = top_indices[k]
