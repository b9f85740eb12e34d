"""Analytic power model for the simulated MPSoC.

The Galaxy Note 9 exposes power through on-board fuel-gauge and rail sensors;
the paper reads "power consumption" as one of the ``Next`` agent's state
inputs.  The simulator replaces the sensors with the classic CMOS power
decomposition:

* dynamic power ``P_dyn = C_eff * f * V^2 * u`` per busy core, where ``u`` is
  the core's utilisation over the evaluation interval,
* leakage power ``P_leak = I_leak(T) * V`` per core, with an exponential
  temperature dependence, and
* a constant rest-of-platform floor (display, DRAM, modem, sensors).

The coefficients live in :class:`repro.soc.cluster.ClusterSpec` so that each
platform can be calibrated independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, NamedTuple, Sequence

from repro.soc.cluster import Cluster, ClusterSpec
from repro.soc.frequency import flat_table

#: Reference junction temperature (Celsius) at which the leakage coefficient
#: of a cluster spec is defined.
LEAKAGE_REFERENCE_TEMPERATURE_C = 25.0


@dataclass(frozen=True)
class PowerBreakdown:
    """Power of the SoC at one instant, decomposed per cluster.

    Attributes
    ----------
    dynamic_w:
        Dynamic (switching) power per cluster in watts.
    leakage_w:
        Static (leakage) power per cluster in watts.
    rest_of_platform_w:
        Constant platform floor in watts.
    """

    dynamic_w: Mapping[str, float]
    leakage_w: Mapping[str, float]
    rest_of_platform_w: float

    def cluster_total_w(self, name: str) -> float:
        """Total power of one cluster (dynamic + leakage) in watts."""
        return self.dynamic_w[name] + self.leakage_w[name]

    @property
    def clusters_total_w(self) -> float:
        """Total power of all clusters in watts."""
        return sum(self.dynamic_w.values()) + sum(self.leakage_w.values())

    @property
    def total_w(self) -> float:
        """Total platform power (clusters + rest of platform) in watts."""
        return self.clusters_total_w + self.rest_of_platform_w


class ClusterPowerModel:
    """Power model of a single cluster."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec

    def dynamic_power_w(self, frequency_mhz: float, voltage_v: float, utilisation: float) -> float:
        """Dynamic power of the whole cluster in watts.

        ``utilisation`` is the fraction of cluster capacity that was busy; it
        is interpreted as the busy fraction spread across the cores of the
        cluster, so a utilisation of 0.25 on a four core cluster is one fully
        busy core.
        """
        utilisation = min(1.0, max(0.0, utilisation))
        # capacitance_nf [nF] * f [MHz] * 1e6 [Hz/MHz] * 1e-9 [F/nF] = 1e-3 C*f
        # so power in watts is C*f*V^2 * 1e-3 per fully-busy core.
        per_core_full = self.spec.capacitance_nf * frequency_mhz * voltage_v ** 2 * 1e-3
        return per_core_full * self.spec.core_count * utilisation

    def leakage_power_w(self, voltage_v: float, temperature_c: float) -> float:
        """Leakage power of the whole cluster in watts at ``temperature_c``."""
        delta_t = temperature_c - LEAKAGE_REFERENCE_TEMPERATURE_C
        scale = math.exp(self.spec.leakage_temp_coeff * delta_t)
        return self.spec.leakage_w_per_v * voltage_v * self.spec.core_count * scale

    def total_power_w(
        self, frequency_mhz: float, voltage_v: float, utilisation: float, temperature_c: float
    ) -> float:
        """Total cluster power (dynamic + leakage) in watts."""
        return self.dynamic_power_w(frequency_mhz, voltage_v, utilisation) + self.leakage_power_w(
            voltage_v, temperature_c
        )

    def max_power_w(self, opp_index: int, temperature_c: float = 85.0) -> float:
        """Power at a given OPP with the cluster fully busy (worst case)."""
        freq = self.spec.opp_table.frequency_at(opp_index)
        volt = self.spec.opp_table.voltage_at(opp_index)
        return self.total_power_w(freq, volt, 1.0, temperature_c)


class BatchPowerTables(NamedTuple):
    """Flat per-OPP power tables of one platform (see
    :meth:`SocPowerModel.compile_batch_tables`)."""

    #: ``(cap_nf * f * v ** 2 * 1e-3) * cores`` per OPP, every cluster's in turn.
    dynamic_coeff: Any
    #: ``(leak_w_per_v * v) * cores`` per OPP, laid out like ``dynamic_coeff``.
    leakage_base: Any
    #: ``(clusters, 1)`` start of each cluster's OPPs in the flat tables.
    offsets: Any
    #: ``(clusters, 1)`` leakage temperature coefficients.
    leak_coeff: Any
    #: Thermal node row of each cluster: an index array, or a slice when
    #: the rows are consecutive.
    node_rows: Any


def _row_index(rows: Sequence[int]):
    """``rows`` as a slice when they are consecutive, else as an index array."""
    import numpy as np

    first = rows[0]
    if list(rows) == list(range(first, first + len(rows))):
        return slice(first, first + len(rows))
    return np.array(rows, dtype=np.int64)


class SocPowerModel:
    """Power model of the full SoC (all clusters plus the platform floor)."""

    def __init__(
        self,
        cluster_specs: Mapping[str, ClusterSpec],
        rest_of_platform_power_w: float = 0.0,
    ) -> None:
        if rest_of_platform_power_w < 0:
            raise ValueError("rest_of_platform_power_w must be non-negative")
        self._models: Dict[str, ClusterPowerModel] = {
            name: ClusterPowerModel(spec) for name, spec in cluster_specs.items()
        }
        self.rest_of_platform_power_w = rest_of_platform_power_w

    def compile_batch_tables(
        self, clusters: Sequence[Cluster], cluster_node_index: Sequence[int]
    ) -> "BatchPowerTables":
        """Flat OPP-indexed power tables for :meth:`evaluate_flat_batch`.

        The per-OPP coefficients are precomputed with plain Python floats
        through exactly the scalar kernel's expressions (``(cap_nf * f * v **
        2 * 1e-3) * cores`` and ``(leak_w_per_v * v) * cores``), so indexing
        a table reproduces the scalar partial products bit for bit.  Every
        cluster's table is concatenated into one flat array, with a ``(clusters,
        1)`` offset column, so one gather reads all clusters;
        ``cluster_node_index`` gives each cluster's thermal node row (kept
        as a slice when the rows are consecutive, as on both registered
        platforms, so reading them is a view rather than a gather).
        """
        import numpy as np

        specs = [self._models[cluster.name].spec for cluster in clusters]
        dynamic_coeff, offsets = flat_table(
            [
                [
                    spec.capacitance_nf * frequency * voltage ** 2 * 1e-3 * spec.core_count
                    for frequency, voltage in zip(cluster._freqs, cluster._volts)
                ]
                for cluster, spec in zip(clusters, specs)
            ]
        )
        leakage_base, _ = flat_table(
            [
                [spec.leakage_w_per_v * voltage * spec.core_count for voltage in cluster._volts]
                for cluster, spec in zip(clusters, specs)
            ]
        )
        return BatchPowerTables(
            dynamic_coeff,
            leakage_base,
            offsets,
            np.array([spec.leakage_temp_coeff for spec in specs], dtype=np.float64)[:, None],
            _row_index(cluster_node_index),
        )

    def evaluate_flat_batch(
        self,
        tables: "BatchPowerTables",
        current_index_rows,
        utilisation_rows,
        node_temperature_rows,
        dynamic_out,
        leakage_out,
    ) -> None:
        """Batched form of the fused power pass of ``SocSimulator.step_tick``.

        All row arguments are ``(clusters, devices)``-shaped (temperatures are
        ``(nodes, devices)``); lane ``d`` is one device.  Every step is one
        whole-array call over all clusters.  Per lane the float sequence
        matches :meth:`~repro.soc.soc.SocSimulator.step_tick` exactly: the
        dynamic partial product and the leakage base come from the
        precomputed per-OPP tables (same Python-float products, see
        :meth:`compile_batch_tables`) and the leakage exponential is
        evaluated with :func:`math.exp` per element, one ``map`` over the
        flattened arguments -- ``numpy.exp`` is *not* guaranteed to round
        identically to libm, so it must not be used here.
        """
        import numpy as np

        index = current_index_rows + tables.offsets
        utilisation = np.minimum(1.0, np.maximum(0.0, utilisation_rows))
        np.multiply(tables.dynamic_coeff[index], utilisation, out=dynamic_out)
        argument = tables.leak_coeff * (
            node_temperature_rows[tables.node_rows] - LEAKAGE_REFERENCE_TEMPERATURE_C
        )
        scale = np.fromiter(
            map(math.exp, argument.ravel().tolist()),
            dtype=np.float64,
            count=argument.size,
        ).reshape(argument.shape)
        np.multiply(tables.leakage_base[index], scale, out=leakage_out)

    def evaluate(
        self,
        clusters: Mapping[str, Cluster],
        temperatures_c: Mapping[str, float],
    ) -> PowerBreakdown:
        """Evaluate power for the current state of each cluster.

        Parameters
        ----------
        clusters:
            Live cluster objects carrying frequency, voltage and utilisation.
        temperatures_c:
            Current junction temperature of each cluster's thermal node.

        Returns
        -------
        PowerBreakdown
            Per-cluster dynamic and leakage power plus the platform floor.
        """
        dynamic: Dict[str, float] = {}
        leakage: Dict[str, float] = {}
        for name, cluster in clusters.items():
            model = self._models[name]
            dynamic[name] = model.dynamic_power_w(
                cluster.current_frequency_mhz,
                cluster.current_voltage_v,
                cluster.utilisation,
            )
            leakage[name] = model.leakage_power_w(
                cluster.current_voltage_v, temperatures_c[name]
            )
        return PowerBreakdown(
            dynamic_w=dynamic,
            leakage_w=leakage,
            rest_of_platform_w=self.rest_of_platform_power_w,
        )

    def peak_power_w(self, temperature_c: float = 85.0) -> float:
        """Worst-case platform power: every cluster at top OPP, fully busy."""
        total = self.rest_of_platform_power_w
        for model in self._models.values():
            top = len(model.spec.opp_table) - 1
            total += model.max_power_w(top, temperature_c)
        return total

    def min_active_power_w(self, temperature_c: float = 30.0) -> float:
        """Best-case active power: every cluster at its lowest OPP and idle."""
        total = self.rest_of_platform_power_w
        for model in self._models.values():
            freq = model.spec.opp_table.frequency_at(0)
            volt = model.spec.opp_table.voltage_at(0)
            total += model.total_power_w(freq, volt, 0.0, temperature_c)
        return total
