"""VSync edge generation.

Android synchronises rendering and scan-out through VSync.  With a 60 Hz
panel a VSync pulse arrives every 16.67 ms; the compositor latches whichever
back buffer holds a completed frame into the front buffer on that edge.  If
no back buffer completed since the previous edge the panel re-scans the old
front buffer and the frame is counted as dropped (the "lag or stutter" the
paper describes).

The clock here only produces edge times: the frames, their back buffers
and the latch live in :class:`repro.graphics.pipeline.FrameQueue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class VsyncClock:
    """Generates VSync edge times for a fixed refresh rate.

    Attributes
    ----------
    refresh_hz:
        Panel refresh rate; 60 Hz on the paper's device.
    """

    refresh_hz: float = 60.0

    def __post_init__(self) -> None:
        if self.refresh_hz <= 0:
            raise ValueError("refresh_hz must be positive")
        self._next_edge_s = self.period_s

    @property
    def period_s(self) -> float:
        """VSync period in seconds (16.67 ms at 60 Hz)."""
        return 1.0 / self.refresh_hz

    @property
    def next_edge_s(self) -> float:
        """Time of the next VSync edge in seconds."""
        return self._next_edge_s

    def edges_until(self, time_s: float) -> List[float]:
        """Return (and consume) all VSync edges at or before ``time_s``."""
        edges: List[float] = []
        while self._next_edge_s <= time_s + 1e-12:
            edges.append(self._next_edge_s)
            self._next_edge_s += self.period_s
        return edges

    def reset(self) -> None:
        """Restart the edge generator from time zero."""
        self._next_edge_s = self.period_s
