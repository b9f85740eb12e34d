"""User interaction model.

The central observation of the paper is that the *user* -- not the
application -- determines the frame-rate requirement: a feed only needs new
frames while the finger scrolls it, a music app needs essentially none while
the phone lies on the desk, and a game needs a steady stream during combat.

:class:`InteractionGenerator` produces an *activity* signal in ``[0, 1]``
that interaction-driven phases multiply into their frame demand.  The signal
is a two-state (engaged / paused) renewal process with smoothing: during an
engaged burst the user scrolls or taps and activity rises towards the
profile's ``engaged_level``; between bursts it decays towards
``paused_level``.  Burst and pause durations are exponential with
profile-specific means, which reproduces the bursty FPS traces in Fig. 1 of
the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class InteractionProfile:
    """How intensely a user interacts while an app (or phase) is in use.

    Attributes
    ----------
    engaged_level:
        Activity level reached during an interaction burst (0..1).
    paused_level:
        Activity level between bursts (0..1).
    burst_mean_s:
        Mean duration of an interaction burst (finger down / scrolling).
    pause_mean_s:
        Mean duration of a pause between bursts (reading, thinking).
    smoothing_time_s:
        First-order smoothing constant for the activity signal, modelling
        fling animations that keep producing frames briefly after the finger
        lifts.
    """

    engaged_level: float = 1.0
    paused_level: float = 0.05
    burst_mean_s: float = 2.0
    pause_mean_s: float = 3.0
    smoothing_time_s: float = 0.4

    def __post_init__(self) -> None:
        for value, name in (
            (self.engaged_level, "engaged_level"),
            (self.paused_level, "paused_level"),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.paused_level > self.engaged_level:
            raise ValueError("paused_level must not exceed engaged_level")
        if self.burst_mean_s <= 0 or self.pause_mean_s <= 0:
            raise ValueError("burst and pause means must be positive")
        if self.smoothing_time_s < 0:
            raise ValueError("smoothing_time_s must be non-negative")

    def scaled(self, intensity: float) -> "InteractionProfile":
        """Deterministic intensity transform of this profile (opt-in).

        ``intensity`` scales how heavily the user leans on the device:
        activity levels are multiplied by it (clamped to [0, 1]), bursts
        lengthen and pauses shorten proportionally.  ``scaled(1.0)`` returns
        ``self`` unchanged, so defaults -- and every golden hash recorded
        against them -- are unaffected; heterogeneous fleets derive per-device
        profiles from one base via their
        :attr:`~repro.core.federated.FleetSpec.device_intensities`.
        """
        if not intensity > 0:
            raise ValueError("intensity must be positive")
        if intensity == 1.0:
            return self
        engaged = min(1.0, self.engaged_level * intensity)
        return InteractionProfile(
            engaged_level=engaged,
            paused_level=min(engaged, self.paused_level * intensity),
            burst_mean_s=self.burst_mean_s * intensity,
            pause_mean_s=self.pause_mean_s / intensity,
            smoothing_time_s=self.smoothing_time_s,
        )


#: A reasonable default: short scroll bursts separated by reading pauses.
DEFAULT_PROFILE = InteractionProfile()

#: Continuous engagement (games): the user never stops providing input.
CONTINUOUS_PROFILE = InteractionProfile(
    engaged_level=1.0,
    paused_level=0.85,
    burst_mean_s=20.0,
    pause_mean_s=2.0,
    smoothing_time_s=0.2,
)

#: Passive consumption (video): occasional taps, content drives itself.
PASSIVE_PROFILE = InteractionProfile(
    engaged_level=0.6,
    paused_level=0.02,
    burst_mean_s=1.0,
    pause_mean_s=20.0,
    smoothing_time_s=0.5,
)


class InteractionGenerator:
    """Generates the activity signal for interaction-driven frame demand."""

    def __init__(
        self,
        profile: InteractionProfile = DEFAULT_PROFILE,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.profile = profile
        self._rng = rng if rng is not None else random.Random(0)
        self._engaged = True
        self._state_time_left_s = self._sample_state_duration()
        self._activity = profile.paused_level

    def _sample_state_duration(self) -> float:
        mean = self.profile.burst_mean_s if self._engaged else self.profile.pause_mean_s
        return self._rng.expovariate(1.0 / mean)

    @property
    def engaged(self) -> bool:
        """Whether the user is currently in an interaction burst."""
        return self._engaged

    @property
    def activity(self) -> float:
        """Current smoothed activity level in [0, 1]."""
        return self._activity

    def step(self, dt_s: float) -> float:
        """Advance the interaction process by ``dt_s`` and return the activity."""
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        remaining = dt_s
        while remaining > 1e-12:
            advance = min(remaining, self._state_time_left_s)
            target = (
                self.profile.engaged_level if self._engaged else self.profile.paused_level
            )
            tau = self.profile.smoothing_time_s
            if tau <= 1e-9:
                self._activity = target
            else:
                # First-order low-pass towards the target level.
                alpha = min(1.0, advance / tau)
                self._activity += alpha * (target - self._activity)
            self._state_time_left_s -= advance
            remaining -= advance
            if self._state_time_left_s <= 1e-12:
                self._engaged = not self._engaged
                self._state_time_left_s = self._sample_state_duration()
        return self._activity

    def reset(self) -> None:
        """Restart the process in the engaged state with fresh durations."""
        self._engaged = True
        self._state_time_left_s = self._sample_state_duration()
        self._activity = self.profile.paused_level
