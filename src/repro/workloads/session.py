"""Usage-session generation following the statistics quoted in the paper.

The introduction of the paper cites Deloitte / RescueTime market research: an
average user picks up the phone 52 times per workday, 70 % of the sessions
last under 2 minutes, 25 % between 2 and 10 minutes and 5 % longer than
10 minutes, for a total of about 4 h 16 min of daily usage.  The evaluation
then uses sessions of 1.5 to 5 minutes per application (5 minutes for games).

:class:`UsageStatistics` captures those numbers, :class:`SessionSegment` is
one (app, duration) block and :class:`SessionGenerator` samples single- and
multi-app sessions from them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.apps import APP_LIBRARY, GAME_APPS


@dataclass(frozen=True)
class UsageStatistics:
    """Session-length statistics from the market research cited in the paper.

    Attributes
    ----------
    short_fraction / medium_fraction / long_fraction:
        Probability that a session is shorter than 2 minutes, between 2 and
        10 minutes, or longer than 10 minutes.
    short_range_s / medium_range_s / long_range_s:
        Uniform sampling ranges (seconds) for each class.
    pickups_per_day:
        Average number of phone pick-ups during a workday.
    daily_usage_s:
        Average total daily usage (4 h 16 min in the cited study).
    """

    short_fraction: float = 0.70
    medium_fraction: float = 0.25
    long_fraction: float = 0.05
    short_range_s: Tuple[float, float] = (20.0, 120.0)
    medium_range_s: Tuple[float, float] = (120.0, 600.0)
    long_range_s: Tuple[float, float] = (600.0, 1800.0)
    pickups_per_day: int = 52
    daily_usage_s: float = 4 * 3600 + 16 * 60

    def __post_init__(self) -> None:
        total = self.short_fraction + self.medium_fraction + self.long_fraction
        if abs(total - 1.0) > 1e-6:
            raise ValueError("session class fractions must sum to 1")
        for lo, hi in (self.short_range_s, self.medium_range_s, self.long_range_s):
            if lo <= 0 or hi < lo:
                raise ValueError("invalid session duration range")

    def sample_session_duration_s(self, rng: random.Random) -> float:
        """Sample one session duration according to the class fractions."""
        r = rng.random()
        if r < self.short_fraction:
            lo, hi = self.short_range_s
        elif r < self.short_fraction + self.medium_fraction:
            lo, hi = self.medium_range_s
        else:
            lo, hi = self.long_range_s
        return rng.uniform(lo, hi)


@dataclass(frozen=True)
class SessionSegment:
    """One application block inside a usage session."""

    app_name: str
    duration_s: float

    def __post_init__(self) -> None:
        if self.app_name not in APP_LIBRARY:
            raise ValueError(f"unknown app {self.app_name!r}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")


def segment_ticks(duration_s: float, dt_s: float) -> int:
    """Whole ticks that a session segment of ``duration_s`` plays.

    Exact multiples of ``dt_s`` stay exact, and a fractional count rounds up
    to whole VSync periods: a 2.5-tick segment plays 3 ticks.  A segment
    plays at least one tick.  A live :class:`~repro.sim.engine.SessionWorkload`
    and a recorded session
    (:meth:`~repro.workloads.trace.TraceRecorder.record_segments`) both
    count ticks with this rule.
    """
    return max(1, math.ceil(duration_s / dt_s - 1e-9))


@dataclass(frozen=True)
class Session:
    """A sequence of application segments used by the experiment runners."""

    segments: Tuple[SessionSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a session needs at least one segment")

    @property
    def total_duration_s(self) -> float:
        """Total duration of the session in seconds."""
        return sum(segment.duration_s for segment in self.segments)

    @property
    def app_names(self) -> List[str]:
        """Application names in order of use."""
        return [segment.app_name for segment in self.segments]


#: The mixed session used for Fig. 1 and Fig. 3 of the paper: home screen,
#: then Facebook, then Spotify, roughly 3.5 minutes total.
FIGURE1_SESSION = Session(
    segments=(
        SessionSegment("home", 30.0),
        SessionSegment("facebook", 90.0),
        SessionSegment("spotify", 90.0),
    )
)


#: Sessions referred to by name on the apps/sessions axis of a scenario
#: matrix (see :mod:`repro.experiments.matrix`).
NAMED_SESSIONS: Dict[str, Session] = {
    "fig1": FIGURE1_SESSION,
}


def session_matrix(
    app_names: Sequence[str],
    duration_s: float = 90.0,
    game_duration_s: Optional[float] = None,
) -> Dict[str, Session]:
    """One fixed-duration single-app :class:`Session` per application.

    This is the helper that expands the apps axis of a scenario matrix into
    pre-registered sessions: every cell that shares an app faces a session of
    identical length, so replications differ only in their seed.  Games get
    ``game_duration_s`` (defaulting to ``duration_s``), mirroring the paper's
    longer gaming sessions.
    """
    if not app_names:
        raise ValueError("app_names must not be empty")
    if len(set(app_names)) != len(app_names):
        raise ValueError("app_names must be unique")
    game_duration_s = game_duration_s if game_duration_s is not None else duration_s
    return {
        name: Session(
            segments=(
                SessionSegment(
                    name, game_duration_s if name in GAME_APPS else duration_s
                ),
            )
        )
        for name in app_names
    }


class SessionGenerator:
    """Samples usage sessions from the paper's statistics."""

    def __init__(
        self,
        statistics: Optional[UsageStatistics] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.statistics = statistics or UsageStatistics()
        self._rng = random.Random(seed)

    def single_app_session(
        self, app_name: str, duration_s: Optional[float] = None
    ) -> Session:
        """A session that uses one app, with the paper's evaluation durations.

        Games run for 5 minutes; other apps run between 1.5 and 3 minutes,
        exactly as described in the experimental setup of Section V.
        """
        if duration_s is None:
            if app_name in GAME_APPS:
                duration_s = 300.0
            else:
                duration_s = self._rng.uniform(90.0, 180.0)
        return Session(segments=(SessionSegment(app_name, duration_s),))

    def mixed_session(
        self,
        app_names: Optional[Sequence[str]] = None,
        total_duration_s: Optional[float] = None,
    ) -> Session:
        """A multi-app session splitting a sampled duration across apps."""
        if app_names is None:
            population = list(APP_LIBRARY)
            count = self._rng.randint(2, 4)
            app_names = self._rng.sample(population, count)
        if total_duration_s is None:
            total_duration_s = self.statistics.sample_session_duration_s(self._rng)
        weights = [self._rng.uniform(0.5, 1.5) for _ in app_names]
        total_weight = sum(weights)
        segments = tuple(
            SessionSegment(name, max(10.0, total_duration_s * w / total_weight))
            for name, w in zip(app_names, weights)
        )
        return Session(segments=segments)

    def day_of_sessions(self, count: Optional[int] = None) -> List[Session]:
        """Sample a workday worth of sessions (defaults to 52 pick-ups)."""
        if count is None:
            count = self.statistics.pickups_per_day
        if count <= 0:
            raise ValueError("count must be positive")
        return [self.mixed_session() for _ in range(count)]
