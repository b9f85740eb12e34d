"""Operating performance points (OPPs) and frequency tables.

A processing-element cluster on a mobile MPSoC exposes a discrete set of
operating frequencies.  Each frequency implies a supply voltage, and the
(frequency, voltage) pair is conventionally called an OPP.  The paper's
platform (Exynos 9810) performs *cluster-wise* DVFS: the whole cluster always
runs at a single OPP.

This module provides :class:`FrequencyPoint` (one OPP) and :class:`OppTable`
(the ordered set of OPPs of one cluster) together with the index arithmetic
needed by both the baseline governors and the Q-learning agent (step up, step
down, clamp to a ``maxfreq`` limit, ...).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class FrequencyPoint:
    """A single operating performance point of a cluster.

    Attributes
    ----------
    frequency_mhz:
        Clock frequency in MHz.
    voltage_v:
        Supply voltage in volts required to sustain the frequency.
    """

    frequency_mhz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_mhz}")
        if self.voltage_v <= 0:
            raise ValueError(f"voltage must be positive, got {self.voltage_v}")

    @property
    def frequency_hz(self) -> float:
        """Frequency in Hz."""
        return self.frequency_mhz * 1e6

    @property
    def frequency_ghz(self) -> float:
        """Frequency in GHz."""
        return self.frequency_mhz / 1e3


def interpolate_voltages(
    frequencies_mhz: Sequence[float],
    v_min: float,
    v_max: float,
    curvature: float = 1.0,
) -> List[float]:
    """Assign a voltage to each frequency via a monotone interpolation.

    Public voltage tables of commercial SoCs are rarely disclosed, so the
    reproduction derives a plausible voltage curve from the minimum and
    maximum rail voltages.  ``curvature`` > 1 bends the curve so that the top
    frequencies pay a super-linear voltage premium, which is what real silicon
    exhibits and what makes race-to-idle at the top OPPs power-inefficient.

    Parameters
    ----------
    frequencies_mhz:
        Frequencies to assign voltages to (any order).
    v_min, v_max:
        Voltage at the lowest and highest frequency respectively.
    curvature:
        Exponent applied to the normalised frequency before interpolation.

    Returns
    -------
    list of float
        Voltages in the same order as ``frequencies_mhz``.
    """
    if v_min <= 0 or v_max <= 0:
        raise ValueError("voltages must be positive")
    if v_max < v_min:
        raise ValueError("v_max must be >= v_min")
    if curvature <= 0:
        raise ValueError("curvature must be positive")
    lo = min(frequencies_mhz)
    hi = max(frequencies_mhz)
    span = hi - lo
    voltages = []
    for f in frequencies_mhz:
        if span == 0:
            x = 1.0
        else:
            x = (f - lo) / span
        voltages.append(v_min + (v_max - v_min) * (x ** curvature))
    return voltages


@dataclass
class OppTable:
    """Ordered table of operating performance points for one cluster.

    The table is stored sorted by ascending frequency.  Indices used
    throughout the library always refer to this ascending order, i.e. index 0
    is the slowest OPP and ``len(table) - 1`` the fastest.
    """

    points: Tuple[FrequencyPoint, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("an OPP table needs at least one frequency point")
        ordered = tuple(sorted(self.points, key=lambda p: p.frequency_mhz))
        freqs = [p.frequency_mhz for p in ordered]
        if len(set(freqs)) != len(freqs):
            raise ValueError("duplicate frequencies in OPP table")
        object.__setattr__(self, "points", ordered)
        self._frequencies = [p.frequency_mhz for p in self.points]

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        frequencies_mhz: Iterable[float],
        v_min: float,
        v_max: float,
        curvature: float = 1.0,
    ) -> "OppTable":
        """Build a table from bare frequencies with an interpolated V/f curve."""
        freqs = list(frequencies_mhz)
        volts = interpolate_voltages(freqs, v_min=v_min, v_max=v_max, curvature=curvature)
        return cls(points=tuple(FrequencyPoint(f, v) for f, v in zip(freqs, volts)))

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[FrequencyPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> FrequencyPoint:
        return self.points[index]

    # -- lookups ---------------------------------------------------------------

    @property
    def frequencies_mhz(self) -> List[float]:
        """All frequencies, ascending, in MHz."""
        return list(self._frequencies)

    @property
    def min_frequency_mhz(self) -> float:
        """Lowest frequency of the table."""
        return self._frequencies[0]

    @property
    def max_frequency_mhz(self) -> float:
        """Highest frequency of the table."""
        return self._frequencies[-1]

    def index_of(self, frequency_mhz: float) -> int:
        """Return the index of an exact table frequency.

        Raises
        ------
        ValueError
            If ``frequency_mhz`` is not an exact entry of the table.
        """
        idx = bisect.bisect_left(self._frequencies, frequency_mhz)
        if idx < len(self._frequencies) and self._frequencies[idx] == frequency_mhz:
            return idx
        raise ValueError(f"{frequency_mhz} MHz is not an OPP of this table")

    def nearest_index(self, frequency_mhz: float) -> int:
        """Index of the OPP whose frequency is closest to ``frequency_mhz``."""
        idx = bisect.bisect_left(self._frequencies, frequency_mhz)
        if idx == 0:
            return 0
        if idx >= len(self._frequencies):
            return len(self._frequencies) - 1
        before = self._frequencies[idx - 1]
        after = self._frequencies[idx]
        return idx if (after - frequency_mhz) < (frequency_mhz - before) else idx - 1

    def floor_index(self, frequency_mhz: float) -> int:
        """Index of the fastest OPP not exceeding ``frequency_mhz``.

        Clamps to index 0 when ``frequency_mhz`` is below the slowest OPP.
        """
        idx = bisect.bisect_right(self._frequencies, frequency_mhz) - 1
        return max(0, idx)

    def ceil_index(self, frequency_mhz: float) -> int:
        """Index of the slowest OPP at or above ``frequency_mhz``.

        Clamps to the top index when ``frequency_mhz`` exceeds the fastest OPP.
        """
        idx = bisect.bisect_left(self._frequencies, frequency_mhz)
        return min(len(self._frequencies) - 1, idx)

    def clamp_index(self, index: int) -> int:
        """Clamp an arbitrary integer index into the valid range of the table."""
        return max(0, min(len(self._frequencies) - 1, index))

    def step(self, index: int, delta: int) -> int:
        """Move ``delta`` OPP steps from ``index``, clamped to the table."""
        return self.clamp_index(index + delta)

    def frequency_at(self, index: int) -> float:
        """Frequency in MHz of the OPP at ``index``."""
        return self.points[self.clamp_index(index)].frequency_mhz

    def voltage_at(self, index: int) -> float:
        """Voltage in volts of the OPP at ``index``."""
        return self.points[self.clamp_index(index)].voltage_v

    def normalised_frequency(self, index: int) -> float:
        """Frequency at ``index`` divided by the table maximum (0 < x <= 1)."""
        return self.frequency_at(index) / self.max_frequency_mhz


def flat_table(rows: Sequence[Sequence[float]]):
    """One NumPy gather table for per-cluster rows of per-OPP values.

    Returns ``(flat, offsets)``: ``rows`` concatenated as float64, and a
    ``(rows, 1)`` column of each row's start, so ``flat[index_rows +
    offsets]`` reads every cluster's entry of a ``(clusters, lanes)`` OPP
    index array in one call.  NumPy is imported here, not at module level:
    only the batch kernel builds these tables.
    """
    import numpy as np

    offsets = []
    position = 0
    for row in rows:
        offsets.append(position)
        position += len(row)
    flat = np.array([value for row in rows for value in row], dtype=np.float64)
    return flat, np.array(offsets, dtype=np.int64)[:, None]
