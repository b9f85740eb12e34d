"""The running reductions a batch lane keeps instead of its summary columns.

A batch lane folds its summary as it folds its digest, a window of rows at
a time (:class:`repro.sim.recorder._FoldedLane`).  Each reduction must give
what :meth:`~repro.sim.recorder.Recorder.summary` computes over the whole
column, bit for bit:

* a running sum equals builtin ``sum`` of the column.  CPython 3.12 and
  later compensate a float sum (Neumaier's algorithm) and 3.9-3.11 add
  plainly, so the running interpreter's family is checked against
  ``sum`` itself, and both families against a literal transcription of
  CPython's loop;
* a running maximum equals ``max`` of the column, NaN included;
* the FPS histogram ranks values as ``sorted`` does.

The reductions are pure Python and need no NumPy, so these run on every
interpreter.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.recorder import (
    _SUM_COMPENSATES,
    _ranked,
    _running_max,
    _running_sum,
    _sum_value,
)

MAX = 1.7976931348623157e308
SPECIAL = (
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    MAX,
    -MAX,
    1.0,
    1e100,
    -1e100,
)

floats = st.sampled_from(SPECIAL) | st.floats() | st.floats(-1e3, 1e3)
columns = st.lists(floats, min_size=1, max_size=60)


def bits(value):
    """A float's bits; every NaN is one value (``repr`` prints them alike)."""
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def cpython_sum(values, start=0, compensated=_SUM_COMPENSATES):
    """``sum(values, start)``, transcribed from CPython's
    ``builtin_sum_impl``: 3.12+'s compensated float loop, or 3.9-3.11's
    plain one.

    An int total adds as an int and hands over to the float loop at the
    first float, as ``total + x``; the float loop starts with no
    compensation.
    """
    total, compensation = start, 0.0
    for x in values:
        if compensated and isinstance(total, float):
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        else:
            total = total + x
    if compensated and compensation and math.isfinite(compensation):
        total += compensation
    return total


@st.composite
def windowed(draw, values=columns, min_window=0):
    """A column and its cut into consecutive windows."""
    column = draw(values)
    cuts = draw(st.lists(st.integers(0, len(column)), max_size=6))
    edges = [0, *sorted(cuts), len(column)]
    windows = [column[a:b] for a, b in zip(edges, edges[1:])]
    return column, [window for window in windows if len(window) >= min_window]


def fold_sum(windows, compensated=_SUM_COMPENSATES):
    state = None
    for window in windows:
        state = _running_sum(state, window, compensated)
    return _sum_value(state)


class TestRunningSum:
    @given(windowed())
    @settings(max_examples=400, deadline=None)
    @example(([1.0, 1e100, 1.0, -1e100], [[1.0, 1e100], [1.0, -1e100]]))
    @example(([-0.0, -0.0], [[-0.0], [-0.0]]))
    @example(([MAX, MAX, -MAX], [[MAX], [MAX, -MAX]]))
    def test_equals_builtin_sum_of_the_whole_column(self, case):
        """The running interpreter's family: fed in any windows, the
        running sum is builtin ``sum`` of the whole list."""
        column, windows = case
        assert bits(fold_sum(windows)) == bits(sum(column))

    @given(columns, floats, st.lists(st.integers(-(10**6), 10**6), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_transcription_is_the_running_interpreters_sum(self, column, start, ints):
        """The transcription that pins the other family is itself exact
        for the family this interpreter runs: floats from the int start
        or from a float start, and ints, which stay ints."""
        assert bits(cpython_sum(column)) == bits(sum(column))
        assert bits(cpython_sum(column, start)) == bits(sum(column, start))
        assert type(cpython_sum(ints)) is int and cpython_sum(ints) == sum(ints)

    @pytest.mark.parametrize("compensated", [False, True])
    @given(case=windowed())
    @settings(max_examples=300, deadline=None)
    def test_each_family_equals_its_cpython_loop(self, compensated, case):
        """Both families, whichever ``sum`` this interpreter has."""
        column, windows = case
        assert bits(fold_sum(windows, compensated)) == bits(
            cpython_sum(column, compensated=compensated)
        )

    def test_the_families_differ_where_only_compensation_recovers(self):
        column = [1.0, 1e100, 1.0, -1e100]
        assert fold_sum([column[:2], column[2:]], compensated=True) == 2.0
        assert fold_sum([column[:2], column[2:]], compensated=False) == 0.0
        assert _SUM_COMPENSATES == (sum(column) == 2.0)

    def test_a_leading_negative_zero_sums_to_positive_zero(self):
        for compensated in (False, True):
            assert bits(fold_sum([[-0.0], [-0.0]], compensated)) == bits(0.0)


class TestRunningMax:
    @given(columns, st.sampled_from([None, "start", "middle", "end"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_max_of_the_whole_column(self, column, nan_at, data):
        """Fed in any windows, with a NaN at the start, middle or end."""
        if nan_at is not None:
            index = {"start": 0, "middle": len(column) // 2, "end": len(column)}
            at = index[nan_at]
            column = [*column[:at], math.nan, *column[at:]]
        cuts = data.draw(st.lists(st.integers(1, len(column)), max_size=6))
        edges = sorted({0, *cuts, len(column)})
        peak = None
        for a, b in zip(edges, edges[1:]):
            peak = _running_max(peak, column[a:b])
        assert bits(peak) == bits(max(column))

    def test_a_nan_that_opens_a_window_is_skipped_as_max_skips_it(self):
        """Combining per-window maxima would give 1.0 here."""
        peak = _running_max(_running_max(None, [1.0]), [math.nan, 2.0])
        assert peak == max([1.0, math.nan, 2.0]) == 2.0


class TestFpsHistogram:
    @given(
        st.lists(
            st.floats(min_value=0.0, allow_nan=False).map(lambda x: x + 0.0)
            | st.integers(0, 60).map(float),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_rank_equals_sorted(self, values):
        counts = Counter(values)
        ordered = sorted(values)
        for index in range(len(values)):
            assert bits(_ranked(counts, index)) == bits(ordered[index])
        with pytest.raises(IndexError):
            _ranked(counts, len(values))
