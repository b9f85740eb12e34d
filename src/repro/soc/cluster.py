"""Processing-element clusters with cluster-wise DVFS.

The Exynos 9810 exposes three DVFS domains: the big CPU cluster (4x Mongoose
M3), the LITTLE CPU cluster (4x Cortex-A55) and the Mali-G72 GPU.  The
``Next`` agent never selects an operating frequency directly; it sets the
``maxfreq`` limit of a cluster and lets the underlying utilisation governor
pick any OPP between ``minfreq`` and ``maxfreq``.  :class:`Cluster` models
exactly that contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.soc.frequency import OppTable


class ClusterKind(enum.Enum):
    """Functional role of a cluster inside the MPSoC."""

    BIG_CPU = "big_cpu"
    LITTLE_CPU = "little_cpu"
    GPU = "gpu"

    @property
    def is_cpu(self) -> bool:
        """Whether the cluster executes CPU work (as opposed to GPU work)."""
        return self in (ClusterKind.BIG_CPU, ClusterKind.LITTLE_CPU)


@dataclass
class ClusterSpec:
    """Static description of a cluster.

    Attributes
    ----------
    name:
        Human readable identifier, e.g. ``"big"``.
    kind:
        Functional role (big CPU, LITTLE CPU or GPU).
    opp_table:
        The cluster's DVFS table.
    core_count:
        Number of identical processing elements in the cluster.
    capacitance_nf:
        Effective switching capacitance per core in nanofarad.  Dynamic power
        of the cluster is ``C * f * V^2`` summed over busy cores.
    leakage_w_per_v:
        Leakage current coefficient: static power at the reference
        temperature is ``leakage_w_per_v * V`` per core.
    leakage_temp_coeff:
        Exponential temperature coefficient of leakage (per kelvin).
    perf_per_mhz:
        Relative work executed per MHz per core, normalised so that the big
        CPU core is 1.0.  Captures the IPC gap between big and LITTLE cores.
    """

    name: str
    kind: ClusterKind
    opp_table: OppTable
    core_count: int = 4
    capacitance_nf: float = 1.0
    leakage_w_per_v: float = 0.05
    leakage_temp_coeff: float = 0.012
    perf_per_mhz: float = 1.0

    def __post_init__(self) -> None:
        if self.core_count <= 0:
            raise ValueError("core_count must be positive")
        if self.capacitance_nf <= 0:
            raise ValueError("capacitance_nf must be positive")
        if self.perf_per_mhz <= 0:
            raise ValueError("perf_per_mhz must be positive")

    @property
    def max_capacity(self) -> float:
        """Cluster compute capacity at the top OPP (arbitrary work units/s).

        One work unit corresponds to what a big core executes in one cycle at
        ``perf_per_mhz == 1.0``, so capacity is expressed in mega-work-units
        per second and scales linearly with frequency and core count.
        """
        return self.opp_table.max_frequency_mhz * self.perf_per_mhz * self.core_count


class Cluster:
    """A DVFS domain with min/max frequency limits and an operating point.

    The cluster tracks three indices into its OPP table:

    * ``current_index`` -- the OPP the hardware is running at right now,
    * ``max_limit_index`` -- the ``maxfreq`` limit (what ``Next`` actuates),
    * ``min_limit_index`` -- the ``minfreq`` limit (left at 0 by default).

    Setting a limit never raises an exception for out-of-range requests: the
    request is clamped, mirroring the behaviour of sysfs frequency limits on
    Android where writes are coerced into the permitted range.
    """

    def __init__(self, spec: ClusterSpec, initial_index: Optional[int] = None) -> None:
        self.spec = spec
        self._table = spec.opp_table
        # Flat OPP columns: the simulation hot loop reads frequency/voltage by
        # index every tick, so the dataclass indirection of FrequencyPoint is
        # hoisted out once here (same values, cheap tuple indexing).
        self._freqs: Tuple[float, ...] = tuple(p.frequency_mhz for p in self._table.points)
        self._volts: Tuple[float, ...] = tuple(p.voltage_v for p in self._table.points)
        self._min_limit_index = 0
        self._max_limit_index = len(self._table) - 1
        if initial_index is None:
            initial_index = len(self._table) - 1
        self._current_index = self._table.clamp_index(initial_index)
        self._utilisation = 0.0

    # -- identity --------------------------------------------------------------

    @property
    def name(self) -> str:
        """Cluster name from the spec."""
        return self.spec.name

    @property
    def kind(self) -> ClusterKind:
        """Cluster kind from the spec."""
        return self.spec.kind

    @property
    def opp_table(self) -> OppTable:
        """The cluster's OPP table."""
        return self._table

    # -- operating point -------------------------------------------------------

    @property
    def current_index(self) -> int:
        """Index of the OPP the cluster currently runs at."""
        return self._current_index

    @property
    def current_frequency_mhz(self) -> float:
        """Current operating frequency in MHz."""
        return self._freqs[self._current_index]

    @property
    def current_voltage_v(self) -> float:
        """Current supply voltage in volts."""
        return self._volts[self._current_index]

    @property
    def utilisation(self) -> float:
        """Most recent utilisation of the cluster in [0, 1]."""
        return self._utilisation

    @utilisation.setter
    def utilisation(self, value: float) -> None:
        self._utilisation = min(1.0, max(0.0, float(value)))

    def set_frequency_index(self, index: int) -> int:
        """Request an operating point; it is clamped into the limit window.

        Returns the index actually applied.
        """
        index = self._table.clamp_index(index)
        index = max(self._min_limit_index, min(self._max_limit_index, index))
        self._current_index = index
        return index

    # -- limits (the Next actuation surface) ------------------------------------

    @property
    def min_limit_index(self) -> int:
        """Index of the current ``minfreq`` limit."""
        return self._min_limit_index

    @property
    def max_limit_index(self) -> int:
        """Index of the current ``maxfreq`` limit."""
        return self._max_limit_index

    @property
    def max_limit_frequency_mhz(self) -> float:
        """Frequency in MHz of the current ``maxfreq`` limit."""
        return self._freqs[self._max_limit_index]

    @property
    def min_limit_frequency_mhz(self) -> float:
        """Frequency in MHz of the current ``minfreq`` limit."""
        return self._freqs[self._min_limit_index]

    def set_max_limit_index(self, index: int) -> int:
        """Set ``maxfreq`` by OPP index (clamped; keeps limits consistent)."""
        index = self._table.clamp_index(index)
        self._max_limit_index = max(index, self._min_limit_index)
        if self._current_index > self._max_limit_index:
            self._current_index = self._max_limit_index
        return self._max_limit_index

    def set_min_limit_index(self, index: int) -> int:
        """Set ``minfreq`` by OPP index (clamped; keeps limits consistent)."""
        index = self._table.clamp_index(index)
        self._min_limit_index = min(index, self._max_limit_index)
        if self._current_index < self._min_limit_index:
            self._current_index = self._min_limit_index
        return self._min_limit_index

    def set_max_limit_mhz(self, frequency_mhz: float) -> float:
        """Set ``maxfreq`` to the fastest OPP not exceeding ``frequency_mhz``."""
        self.set_max_limit_index(self._table.floor_index(frequency_mhz))
        return self.max_limit_frequency_mhz

    def reset_limits(self) -> None:
        """Remove both frequency limits (full OPP range available)."""
        self._min_limit_index = 0
        self._max_limit_index = len(self._table) - 1

    # -- capacity --------------------------------------------------------------

    def capacity_at_index(self, index: int) -> float:
        """Compute capacity (mega work units / s) at a given OPP index."""
        freq = self._table.frequency_at(index)
        return freq * self.spec.perf_per_mhz * self.spec.core_count

    @property
    def current_capacity(self) -> float:
        """Compute capacity at the current OPP."""
        return self._freqs[self._current_index] * self.spec.perf_per_mhz * self.spec.core_count

    @property
    def max_capacity(self) -> float:
        """Compute capacity at the unconstrained top OPP."""
        return self.spec.max_capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(name={self.name!r}, freq={self.current_frequency_mhz:.0f} MHz, "
            f"max_limit={self.max_limit_frequency_mhz:.0f} MHz, util={self._utilisation:.2f})"
        )
