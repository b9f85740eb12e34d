"""Property tests for ``SessionWorkload`` segment boundaries.

:class:`repro.sim.engine.SessionWorkload` steps a multi-segment session
live (the scenario-matrix harness records its sessions instead, with
:meth:`~repro.workloads.trace.TraceRecorder.record_segments`); these
properties guarantee that a session's demand stream is well-formed however
the segments are sliced:
time is monotonically increasing across segment boundaries, no tick is lost
or duplicated when one app hands over to the next, and a drained session
degrades to the documented idle workload.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import SessionWorkload
from repro.workloads.session import SessionSegment
from repro.workloads.trace import TraceRecorder

DT_S = 1.0 / 60.0

APP_CHOICES = ("home", "facebook", "spotify", "web_browser")

# Segment plans: 1-3 distinct apps, each playing an exact number of ticks.
segment_plans = st.lists(
    st.sampled_from(APP_CHOICES), min_size=1, max_size=3, unique=True
).flatmap(
    lambda apps: st.tuples(
        st.just(apps),
        st.lists(
            st.integers(min_value=1, max_value=40),
            min_size=len(apps),
            max_size=len(apps),
        ),
    )
)


def _build(apps, tick_counts, seed=0):
    segments = [
        SessionSegment(app, ticks * DT_S) for app, ticks in zip(apps, tick_counts)
    ]
    return SessionWorkload(segments, seed=seed)


@settings(max_examples=40, deadline=None)
@given(plan=segment_plans)
def test_time_is_strictly_monotonic_across_segments(plan):
    apps, tick_counts = plan
    workload = _build(apps, tick_counts)
    times = []
    while not workload.exhausted:
        times.append(workload.tick(DT_S).time_s)
    assert all(later > earlier for earlier, later in zip(times, times[1:]))
    # ...and the step size never deviates from one VSync period.
    for earlier, later in zip(times, times[1:]):
        assert later - earlier == pytest.approx(DT_S)


@settings(max_examples=40, deadline=None)
@given(plan=segment_plans)
def test_no_tick_lost_or_duplicated_at_boundaries(plan):
    apps, tick_counts = plan
    workload = _build(apps, tick_counts)
    emitted = []
    while not workload.exhausted:
        emitted.append(workload.tick(DT_S).app_name)
    assert len(emitted) == sum(tick_counts)
    # Every segment contributes exactly its tick budget, in order.
    expected = [app for app, ticks in zip(apps, tick_counts) for _ in range(ticks)]
    assert emitted == expected


@settings(max_examples=40, deadline=None)
@given(plan=segment_plans)
def test_post_exhausted_tick_is_documented_idle_workload(plan):
    apps, tick_counts = plan
    workload = _build(apps, tick_counts)
    while not workload.exhausted:
        last_time = workload.tick(DT_S).time_s
    for _ in range(3):  # stays idle however often it is ticked
        idle = workload.tick(DT_S)
        assert idle.app_name == "idle"
        assert idle.phase_name == "exhausted"
        assert idle.frames == []
        assert idle.background_work_mwu == {}
        assert idle.interaction_activity == 0.0
        assert idle.time_s > last_time


def test_fractional_segment_duration_rounds_up_to_whole_ticks():
    # A segment of 2.5 ticks still plays whole VSync periods: 3 of them.
    workload = SessionWorkload([SessionSegment("home", 2.5 * DT_S)], seed=1)
    count = 0
    while not workload.exhausted:
        workload.tick(DT_S)
        count += 1
    assert count == 3


# Fractional plans: each segment plays whole ticks plus a fraction of one,
# so it ends between two VSync edges.
fractional_plans = st.lists(
    st.tuples(
        st.sampled_from(APP_CHOICES),
        st.integers(min_value=0, max_value=12),
        st.sampled_from([0.25, 0.5, 0.75]) | st.floats(min_value=0.01, max_value=0.99),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(plan=fractional_plans, seed=st.integers(min_value=0, max_value=2**16))
@example(plan=[("facebook", 2, 0.5), ("spotify", 3, 0.5)], seed=0)
def test_recorded_session_plays_the_live_ticks(plan, seed):
    """A recorded session plays the ticks that the live session plays.

    Same count, and per tick the same app, phase and frames: the 2.5-tick
    ``facebook`` segment followed by a 3.5-tick ``spotify`` one plays 3 and
    4 ticks either way.
    """
    segments = [
        SessionSegment(app, (whole + fraction) * DT_S) for app, whole, fraction in plan
    ]
    live = SessionWorkload(segments, seed=seed)
    played = []
    while not live.exhausted:
        tick = live.tick(DT_S)
        played.append((tick.app_name, tick.phase_name, list(tick.frames)))
    trace = TraceRecorder.record_segments(segments, dt_s=DT_S, seed=seed)
    recorded = [(tick.app_name, tick.phase_name, list(tick.frames)) for tick in trace]
    assert recorded == played


def test_empty_segments_rejected():
    with pytest.raises(ValueError):
        SessionWorkload([])


# ---------------------------------------------------------------------------
# Long sessions: boundaries must be exact past the 10-minute mark.
#
# The pre-kernel implementation accumulated ``dt_s`` in floats and compared
# against ``duration_s - 1e-9``; over tens of thousands of ticks the rounding
# error can cross that epsilon and a segment gains or loses a tick.  Segment
# boundaries are now integer tick counts derived once per segment, so the
# budget is exact at any session length.
# ---------------------------------------------------------------------------


def test_long_session_boundaries_are_exact_past_ten_minutes():
    # 610 s (past the paper's 10-minute "long session" class) + 75.3 s.
    plan = [("home", 36_600), ("spotify", 4_519)]
    segments = [SessionSegment(app, ticks * DT_S) for app, ticks in plan]
    workload = SessionWorkload(segments, seed=3)
    emitted = {"home": 0, "spotify": 0}
    while not workload.exhausted:
        emitted[workload.tick(DT_S).app_name] += 1
    assert emitted == {app: ticks for app, ticks in plan}


def test_very_long_single_segment_has_exact_tick_budget():
    ticks = 72_001  # 20 minutes and one tick
    workload = SessionWorkload([SessionSegment("home", ticks * DT_S)], seed=5)
    count = 0
    while not workload.exhausted:
        workload.tick(DT_S)
        count += 1
    assert count == ticks


@settings(max_examples=15, deadline=None)
@given(
    plan=st.lists(
        st.sampled_from(APP_CHOICES), min_size=1, max_size=3, unique=True
    ).flatmap(
        lambda apps: st.tuples(
            st.just(apps),
            st.lists(
                st.integers(min_value=1, max_value=2_000),
                min_size=len(apps),
                max_size=len(apps),
            ),
        )
    )
)
def test_no_tick_lost_or_duplicated_on_larger_segments(plan):
    apps, tick_counts = plan
    workload = _build(apps, tick_counts)
    emitted = []
    while not workload.exhausted:
        emitted.append(workload.tick(DT_S).app_name)
    expected = [app for app, ticks in zip(apps, tick_counts) for _ in range(ticks)]
    assert emitted == expected
