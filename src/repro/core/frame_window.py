"""The frame window: user-interaction analysis via the mode of the frame rate.

Section IV-A: the agent samples the frame rate every 25 ms over a 4 s
*frame window* (160 samples) and takes the statistical mode of those samples
as the target FPS -- "the most possible frame rate suitable to provide the
desirable QoS for the user during that session".  The mode, unlike a mean, is
robust to the bursty structure of interactive sessions: a window containing a
scroll burst at 58 FPS and a reading pause near 0 FPS has a mode at one of
the two plateaus rather than a meaningless value in between.

The paper also quantises the frame-rate axis to keep the Q-table small;
30 levels gave the best training-time/quality trade-off on the Note 9
(Section IV-B and Fig. 6).  :func:`quantise_fps` implements that operation
and is reused by the state discretiser.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple


def quantise_fps(fps: float, levels: int, max_fps: float = 60.0) -> int:
    """Quantise a frame rate into one of ``levels`` discrete bins.

    The bins partition ``[0, max_fps]`` uniformly; the returned value is the
    bin index in ``[0, levels]`` (the top edge maps to ``levels`` so that the
    full frame rate keeps its own level, mirroring the paper's observation
    that 60 FPS needs no quantisation at 60 Hz).

    Parameters
    ----------
    fps:
        Frame rate to quantise (values above ``max_fps`` are clamped).
    levels:
        Number of quantisation levels (>= 1).
    max_fps:
        Upper end of the representable range (display refresh rate).
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if max_fps <= 0:
        raise ValueError("max_fps must be positive")
    clamped = min(max_fps, max(0.0, fps))
    return int(round(clamped / max_fps * levels))


def dequantise_fps(level: int, levels: int, max_fps: float = 60.0) -> float:
    """Map a quantisation level back to the centre FPS value it represents."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    level = min(levels, max(0, level))
    return level / levels * max_fps


@dataclass(frozen=True)
class FrameWindowConfig:
    """Configuration of the frame window monitor.

    Attributes
    ----------
    sample_period_s:
        How often the frame rate is sampled (25 ms in the paper).
    window_s:
        Length of the frame window (4 s in the paper, i.e. 160 samples).
    quantisation_levels:
        Frame-rate quantisation applied before the mode is computed (30 in
        the paper's best configuration).
    max_fps:
        Display refresh rate bounding the frame rate.
    """

    sample_period_s: float = 0.025
    window_s: float = 4.0
    quantisation_levels: int = 30
    max_fps: float = 60.0

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.window_s <= self.sample_period_s:
            raise ValueError("window_s must exceed sample_period_s")
        if self.quantisation_levels < 1:
            raise ValueError("quantisation_levels must be at least 1")
        if self.max_fps <= 0:
            raise ValueError("max_fps must be positive")

    @property
    def samples_per_window(self) -> int:
        """Number of samples one full window holds (160 in the paper)."""
        return int(round(self.window_s / self.sample_period_s))


class FrameWindowMonitor:
    """Collects frame-rate samples and produces the target FPS (window mode).

    The window keeps a count per quantised level as samples enter and
    leave, so a read of the mode walks the distinct levels present, not all
    160 samples.
    """

    def __init__(self, config: Optional[FrameWindowConfig] = None) -> None:
        self.config = config or FrameWindowConfig()
        self._samples: Deque[int] = deque(maxlen=self.config.samples_per_window)
        #: Samples per level in the window, kept as samples enter and leave
        #: (a level whose count drops to zero is removed).
        self._counts: Dict[int, int] = {}
        self._last_sample_time_s: Optional[float] = None
        self._raw_last_fps: float = 0.0

    # -- sampling ---------------------------------------------------------------

    def observe(self, time_s: float, fps: float) -> bool:
        """Offer an FPS observation at ``time_s``.

        The monitor keeps its own 25 ms cadence: observations arriving faster
        than ``sample_period_s`` are ignored, so the caller may simply forward
        every simulation tick.  Returns ``True`` when a sample was recorded.

        Time running *backwards* means the session clock restarted (a new
        training episode, or an agent restored from an artifact entering a
        fresh evaluation run): the sample is accepted and the cadence
        restarts from the new clock, instead of rejecting every observation
        until the new clock catches up with the old one.
        """
        self._raw_last_fps = fps
        if (
            self._last_sample_time_s is not None
            and 0.0 <= time_s - self._last_sample_time_s < self.config.sample_period_s - 1e-9
        ):
            return False
        self._last_sample_time_s = time_s
        level = quantise_fps(fps, self.config.quantisation_levels, self.config.max_fps)
        samples = self._samples
        counts = self._counts
        if len(samples) == samples.maxlen:
            evicted = samples[0]
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
        samples.append(level)
        counts[level] = counts.get(level, 0) + 1
        return True

    # -- results ----------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Samples currently held in the window."""
        return len(self._samples)

    @property
    def is_full(self) -> bool:
        """Whether the window has accumulated its full 4 s of samples."""
        return len(self._samples) == self._samples.maxlen

    @property
    def last_fps(self) -> float:
        """The most recent raw FPS observation."""
        return self._raw_last_fps

    def mode_level(self) -> int:
        """Quantised mode of the current window (0 when the window is empty).

        Ties are broken towards the *higher* level so that the agent never
        under-serves the user when two frame-rate plateaus are equally common.
        """
        mode = 0
        best = 0
        for level, count in self._counts.items():
            if count > best or (count == best and level > mode):
                mode = level
                best = count
        return mode

    def target_fps(self) -> float:
        """The target FPS: the de-quantised mode of the frame window."""
        return dequantise_fps(
            self.mode_level(), self.config.quantisation_levels, self.config.max_fps
        )

    def histogram(self) -> Tuple[Tuple[int, int], ...]:
        """(level, count) pairs of the current window, sorted by level."""
        return tuple(sorted(self._counts.items()))

    def reset(self) -> None:
        """Drop all samples (used when the foreground application changes)."""
        self._samples.clear()
        self._counts = {}
        self._last_sample_time_s = None
        self._raw_last_fps = 0.0

    # -- serialisation ------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable monitor state (window contents and cadence)."""
        return {
            "samples": list(self._samples),
            "last_sample_time_s": self._last_sample_time_s,
            "raw_last_fps": self._raw_last_fps,
        }

    def load_state_dict(self, data: dict) -> None:
        """Restore the monitor from :meth:`state_dict` output."""
        self._samples.clear()
        self._samples.extend(int(level) for level in data.get("samples", ()))
        # Count what the deque kept: only the last ``maxlen`` of a longer list.
        self._counts = dict(Counter(self._samples))
        last = data.get("last_sample_time_s")
        self._last_sample_time_s = None if last is None else float(last)
        self._raw_last_fps = float(data.get("raw_last_fps", 0.0))
