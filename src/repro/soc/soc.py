"""Facade tying clusters, power model, thermal network and sensors together.

:class:`SocSimulator` is the single object the simulation engine talks to.
Per simulation tick the engine:

1. tells each cluster its utilisation for the tick (computed by the frame
   pipeline / workload model),
2. calls :meth:`SocSimulator.step_tick` with the tick length, which evaluates
   the power model, injects the heat into the thermal network and advances it,
3. reads :meth:`SocSimulator.sample_sensors` whenever a governor or the agent
   needs an observation.

Frequency changes are requested through the cluster objects (directly by the
baseline governors, or through ``maxfreq`` limits by the ``Next`` agent).

Hot-loop kernel
---------------
At construction the platform is compiled into an indexed representation:
clusters in a flat list, per-cluster power coefficient tuples, the thermal
node index of every cluster and preallocated heat/power buffers.
:meth:`step_tick` advances power and thermal state over those flat buffers
with zero per-tick dict or dataclass allocation.  Full
:class:`SocTelemetry`/:class:`~repro.soc.power.PowerBreakdown` snapshots are
*lazy*: they are materialised only when :meth:`telemetry` is called (the
engine does so at recorder ticks and governor-invocation boundaries), while
the scalar total :attr:`total_power_w` stays cheap every tick.  The kernel
keeps every float operation in the same sequence as the original dict-based
path, so recorded outputs are bit-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.soc.cluster import Cluster
from repro.soc.platform import PlatformSpec
from repro.soc.power import (
    LEAKAGE_REFERENCE_TEMPERATURE_C,
    PowerBreakdown,
    SocPowerModel,
)
from repro.soc.sensors import SensorHub, SensorReadings
from repro.soc.thermal import ThermalNetwork


@dataclass(frozen=True)
class SocTelemetry:
    """Ground-truth state of the SoC after one simulation step.

    This is what the *recorder* stores (the experimenter's view).  Governors
    and the agent should use :meth:`SocSimulator.sample_sensors` instead,
    which goes through the noisy sensor path.
    """

    time_s: float
    power: PowerBreakdown
    temperatures_c: Mapping[str, float]
    frequencies_mhz: Mapping[str, float]
    max_limits_mhz: Mapping[str, float]
    utilisations: Mapping[str, float]

    @property
    def total_power_w(self) -> float:
        """Total platform power in watts."""
        return self.power.total_w

    def temperature_c(self, node: str) -> float:
        """Ground-truth temperature of one thermal node."""
        return self.temperatures_c[node]


class SocSimulator:
    """Simulated MPSoC: clusters + power + thermal + sensors."""

    def __init__(
        self,
        platform: PlatformSpec,
        rng: Optional[random.Random] = None,
        thermal_throttle: bool = True,
    ) -> None:
        self.platform = platform
        self._rng = rng if rng is not None else random.Random(0)
        self.clusters: Dict[str, Cluster] = platform.build_clusters()
        self.power_model = SocPowerModel(
            platform.cluster_specs,
            rest_of_platform_power_w=platform.rest_of_platform_power_w,
        )
        self.thermal = ThermalNetwork(
            platform.thermal_nodes,
            platform.thermal_couplings,
            ambient_c=platform.ambient_c,
        )
        self.sensors = SensorHub(
            list(platform.thermal_nodes),
            rng=self._rng,
        )
        self.thermal_throttle = thermal_throttle
        self._time_s = 0.0
        self._last_power: Optional[PowerBreakdown] = None

        # -- compiled per-platform kernel state ---------------------------------
        #: Cluster names in platform order (the iteration order of every
        #: original dict-based loop, frozen once).
        self._cluster_names: Tuple[str, ...] = tuple(self.clusters)
        self._cluster_list: List[Cluster] = [self.clusters[n] for n in self._cluster_names]
        #: Thermal node index of each cluster (every cluster has a node of the
        #: same name -- enforced by PlatformSpec.__post_init__).
        self._cluster_node_index: Tuple[int, ...] = tuple(
            self.thermal.node_index(name) for name in self._cluster_names
        )
        self._power_coefficients = self.power_model.compile_coefficients(self._cluster_names)
        device_nodes = set(self.thermal.node_names)
        self._device_index: Optional[int] = (
            self.thermal.node_index("device") if "device" in device_nodes else None
        )
        n_clusters = len(self._cluster_list)
        #: Preallocated kernel buffers (reused every tick, never reallocated).
        self._cluster_temps: List[float] = [0.0] * n_clusters
        self._dynamic_w: List[float] = [0.0] * n_clusters
        self._leakage_w: List[float] = [0.0] * n_clusters
        self._heat_in: List[float] = [0.0] * len(self.thermal.node_names)
        #: Whether the dynamic/leakage buffers hold the power of the last step.
        self._power_buffers_valid = False
        self._max_chip_temperature_c = platform.max_chip_temperature_c
        #: Fully fused per-cluster kernel records:
        #: ``(k, cluster, node_index, capacitance_nf, cores, leak_w_per_v, leak_coeff)``.
        self._kernel_records = tuple(
            (
                k,
                self._cluster_list[k],
                self._cluster_node_index[k],
                self._power_coefficients[k][0],
                self._power_coefficients[k][1],
                self._power_coefficients[k][2],
                self._power_coefficients[k][3],
            )
            for k in range(n_clusters)
        )
        self._max_substep_s = ThermalNetwork.MAX_SUBSTEP_S

    # -- time -------------------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since construction or the last reset."""
        return self._time_s

    def reset(self) -> None:
        """Reset time, temperatures, sensors and frequency limits."""
        self._time_s = 0.0
        self.thermal.reset()
        self.sensors.reset()
        self._last_power = None
        self._power_buffers_valid = False
        for cluster in self.clusters.values():
            cluster.reset_limits()
            cluster.set_frequency_index(0)
            cluster.utilisation = 0.0

    # -- cluster access ----------------------------------------------------------

    def cluster(self, name: str) -> Cluster:
        """Return a cluster by name."""
        return self.clusters[name]

    @property
    def cluster_names(self) -> list:
        """All cluster names in platform order."""
        return list(self.clusters)

    def set_utilisations(self, utilisations: Mapping[str, float]) -> None:
        """Set the utilisation of each cluster for the upcoming step."""
        for name, value in utilisations.items():
            self.clusters[name].utilisation = value

    # -- stepping ----------------------------------------------------------------

    def step(self, dt_s: float) -> SocTelemetry:
        """Advance power and thermal state by ``dt_s`` and snapshot the SoC.

        Kept for callers that want the telemetry of every step; the
        simulation engine uses :meth:`step_tick` plus a lazy
        :meth:`telemetry` call at recorder ticks instead.
        """
        self.step_tick(dt_s)
        return self.telemetry()

    def step_tick(self, dt_s: float) -> None:
        """Advance power and thermal state by ``dt_s`` (compiled hot path).

        Runs entirely over the preallocated flat buffers: no dict, dataclass
        or list is allocated per tick.  Results are bit-identical to the
        original mapping-based stepping (same float operations in the same
        order), which the golden-trace suite pins down.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        thermal = self.thermal
        node_temps = thermal._temps
        dynamic = self._dynamic_w
        leakage = self._leakage_w
        heat_in = self._heat_in
        for i in range(len(heat_in)):
            heat_in[i] = 0.0
        # One fused pass per cluster: power evaluation (same float sequence as
        # SocPowerModel.evaluate_flat / ClusterPowerModel) straight into the
        # heat buffer.
        exp = math.exp
        for k, cluster, node_idx, cap_nf, cores, leak_w_per_v, leak_coeff in (
            self._kernel_records
        ):
            index = cluster._current_index
            frequency = cluster._freqs[index]
            voltage = cluster._volts[index]
            utilisation = cluster._utilisation
            if utilisation < 0.0:
                utilisation = 0.0
            elif utilisation > 1.0:
                utilisation = 1.0
            per_core_full = cap_nf * frequency * voltage ** 2 * 1e-3
            dynamic_w = per_core_full * cores * utilisation
            delta_t = node_temps[node_idx] - LEAKAGE_REFERENCE_TEMPERATURE_C
            leakage_w = leak_w_per_v * voltage * cores * exp(leak_coeff * delta_t)
            dynamic[k] = dynamic_w
            leakage[k] = leakage_w
            heat_in[node_idx] += dynamic_w + leakage_w
        # A fraction of the rest-of-platform power (display backlight, PMIC)
        # heats the device body directly.
        if self._device_index is not None:
            heat_in[self._device_index] += 0.5 * self.power_model.rest_of_platform_power_w

        if 1e-12 < dt_s <= self._max_substep_s:
            # Common case (one VSync period): a single Euler sub-step, without
            # the subdivision loop (min(MAX_SUBSTEP_S, dt_s) == dt_s).
            thermal._euler_substep(heat_in, dt_s)
        else:
            thermal.step_flat(heat_in, dt_s)
        self._time_s += dt_s
        self._last_power = None
        self._power_buffers_valid = True

        if self.thermal_throttle:
            limit = self._max_chip_temperature_c
            clusters = self._cluster_list
            node_index = self._cluster_node_index
            for k in range(len(clusters)):
                if node_temps[node_index[k]] > limit:
                    clusters[k].set_frequency_index(0)

    # -- observation --------------------------------------------------------------

    @property
    def total_power_w(self) -> float:
        """Total platform power of the last step (cheap scalar, no snapshot)."""
        if not self._power_buffers_valid:
            return self.telemetry().total_power_w
        return (
            sum(self._dynamic_w) + sum(self._leakage_w)
        ) + self.power_model.rest_of_platform_power_w

    def dvfs_values(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Current (frequencies, maxfreq limits) tuples in platform order.

        One fused call for the recorder's pre-scaler DVFS snapshot.
        """
        clusters = self._cluster_list
        return (
            tuple([c._freqs[c._current_index] for c in clusters]),
            tuple([c._freqs[c._max_limit_index] for c in clusters]),
        )

    def record_values(self) -> Tuple[float, Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]:
        """Fused recorder snapshot: total power, per-cluster power, temps, utils.

        Everything the recorder fast path needs that is stable between the
        SoC step and the end of the tick, read in one call from the kernel
        buffers (bit-identical to the lazy telemetry values).
        """
        dynamic = self._dynamic_w
        leakage = self._leakage_w
        if not self._power_buffers_valid:
            power = self._evaluate_power_now()
            names = self._cluster_names
            total = power.total_w
            per_cluster = tuple(power.cluster_total_w(name) for name in names)
        else:
            total = (sum(dynamic) + sum(leakage)) + self.power_model.rest_of_platform_power_w
            per_cluster = tuple(
                [dynamic[k] + leakage[k] for k in range(len(dynamic))]
            )
        return (
            total,
            per_cluster,
            tuple(self.thermal._temps),
            tuple([c._utilisation for c in self._cluster_list]),
        )

    def cluster_name_keys(self) -> Tuple[str, ...]:
        """Cluster names in platform order (recorder column layout)."""
        return self._cluster_names

    def node_name_keys(self) -> Tuple[str, ...]:
        """Thermal node names in index order (recorder column layout)."""
        return tuple(self.thermal.node_names)

    def _evaluate_power_now(self) -> PowerBreakdown:
        """Mapping-based power evaluation at the current state (cold path)."""
        temps = self.thermal.temperatures_c()
        cluster_temps = {
            name: temps.get(name, self.platform.ambient_c) for name in self.clusters
        }
        return self.power_model.evaluate(self.clusters, cluster_temps)

    def telemetry(self) -> SocTelemetry:
        """Ground-truth snapshot of the current SoC state (lazy, allocating).

        Materialised only where a full snapshot is needed -- recorder ticks
        and governor-invocation boundaries -- not every simulation tick.
        """
        temps = self.thermal.temperatures_c()
        if self._last_power is None:
            if self._power_buffers_valid:
                names = self._cluster_names
                dynamic = self._dynamic_w
                leakage = self._leakage_w
                self._last_power = PowerBreakdown(
                    dynamic_w={name: dynamic[k] for k, name in enumerate(names)},
                    leakage_w={name: leakage[k] for k, name in enumerate(names)},
                    rest_of_platform_w=self.power_model.rest_of_platform_power_w,
                )
            else:
                self._last_power = self._evaluate_power_now()
        return SocTelemetry(
            time_s=self._time_s,
            power=self._last_power,
            temperatures_c=temps,
            frequencies_mhz={
                name: c.current_frequency_mhz for name, c in self.clusters.items()
            },
            max_limits_mhz={
                name: c.max_limit_frequency_mhz for name, c in self.clusters.items()
            },
            utilisations={name: c.utilisation for name, c in self.clusters.items()},
        )

    def sample_sensors(self) -> SensorReadings:
        """Sample the (noisy, periodic) sensors at the current time."""
        return self.sensors.read(
            true_power_w=self.total_power_w,
            true_temperatures_c=self.thermal.temperatures_c(),
            now_s=self._time_s,
        )

    # -- convenience --------------------------------------------------------------

    @property
    def ambient_c(self) -> float:
        """Ambient temperature of the platform."""
        return self.thermal.ambient_c

    def big_cluster_name(self) -> Optional[str]:
        """Name of the big CPU cluster, if the platform has one."""
        from repro.soc.cluster import ClusterKind

        return self.platform.cluster_of_kind(ClusterKind.BIG_CPU)

    def gpu_cluster_name(self) -> Optional[str]:
        """Name of the GPU cluster, if the platform has one."""
        from repro.soc.cluster import ClusterKind

        return self.platform.cluster_of_kind(ClusterKind.GPU)
