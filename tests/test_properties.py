"""Property-based tests (hypothesis) on the library's core invariants."""

import json
import random
from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ActionSpace
from repro.core.frame_window import (
    FrameWindowConfig,
    FrameWindowMonitor,
    dequantise_fps,
    quantise_fps,
)
from repro.core.ppdw import compute_ppdw, compute_reward
from repro.core.qlearning import QLearningConfig, QLearningCore
from repro.graphics.display import FpsCounter
from repro.graphics.pipeline import FramePipeline, FrameSpec
from repro.soc.cluster import Cluster, ClusterKind, ClusterSpec
from repro.soc.frequency import OppTable
from repro.soc.platform import exynos9810
from repro.soc.power import ClusterPowerModel
from repro.soc.thermal import ThermalNetwork, ThermalNodeSpec


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

frequencies = st.lists(
    st.floats(min_value=100.0, max_value=4000.0, allow_nan=False),
    min_size=2,
    max_size=12,
    unique=True,
)

fps_values = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
powers = st.floats(min_value=0.01, max_value=20.0, allow_nan=False)
temperatures = st.floats(min_value=21.0, max_value=110.0, allow_nan=False)


# ---------------------------------------------------------------------------
# OPP tables and clusters
# ---------------------------------------------------------------------------

@given(frequencies)
def test_opp_table_sorted_and_lookups_consistent(freqs):
    table = OppTable.from_frequencies(freqs, v_min=0.6, v_max=1.1)
    ordered = table.frequencies_mhz
    assert ordered == sorted(ordered)
    for index, frequency in enumerate(ordered):
        assert table.index_of(frequency) == index
        assert table.floor_index(frequency) == index
        assert table.ceil_index(frequency) == index
        assert table.nearest_index(frequency) == index


@given(frequencies, st.floats(min_value=50.0, max_value=5000.0, allow_nan=False))
def test_floor_ceil_bracket_any_frequency(freqs, query):
    table = OppTable.from_frequencies(freqs, v_min=0.6, v_max=1.1)
    floor_index = table.floor_index(query)
    ceil_index = table.ceil_index(query)
    assert 0 <= floor_index < len(table)
    assert 0 <= ceil_index < len(table)
    if table.min_frequency_mhz <= query <= table.max_frequency_mhz:
        assert table.frequency_at(floor_index) <= query + 1e-9
        assert table.frequency_at(ceil_index) >= query - 1e-9


@given(frequencies, st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
def test_cluster_limits_always_consistent(freqs, max_request, min_request):
    table = OppTable.from_frequencies(freqs, v_min=0.6, v_max=1.1)
    spec = ClusterSpec(name="c", kind=ClusterKind.BIG_CPU, opp_table=table)
    cluster = Cluster(spec)
    cluster.set_max_limit_index(max_request)
    cluster.set_min_limit_index(min_request)
    assert 0 <= cluster.min_limit_index <= cluster.max_limit_index <= len(table) - 1
    assert cluster.min_limit_index <= cluster.current_index <= cluster.max_limit_index


# ---------------------------------------------------------------------------
# Power model
# ---------------------------------------------------------------------------

@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    temperatures,
)
def test_power_monotone_in_utilisation(util_low, util_high, temperature):
    platform = exynos9810()
    model = ClusterPowerModel(platform.cluster_specs["big"])
    low, high = sorted((util_low, util_high))
    p_low = model.total_power_w(2704.0, 1.08, low, temperature)
    p_high = model.total_power_w(2704.0, 1.08, high, temperature)
    assert p_high >= p_low >= 0.0


@given(st.integers(min_value=0, max_value=17), st.integers(min_value=0, max_value=17))
def test_power_monotone_in_opp_index(index_a, index_b):
    platform = exynos9810()
    spec = platform.cluster_specs["big"]
    model = ClusterPowerModel(spec)
    low, high = sorted((index_a, index_b))
    p_low = model.max_power_w(low, temperature_c=50.0)
    p_high = model.max_power_w(high, temperature_c=50.0)
    assert p_high >= p_low


# ---------------------------------------------------------------------------
# Thermal network
# ---------------------------------------------------------------------------

@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.1, max_value=120.0),
)
@settings(max_examples=40)
def test_thermal_never_below_ambient_and_bounded(power_w, duration_s):
    nodes = {
        "chip": ThermalNodeSpec("chip", capacitance_j_per_k=3.0, conductance_to_ambient_w_per_k=0.05),
        "body": ThermalNodeSpec("body", capacitance_j_per_k=40.0, conductance_to_ambient_w_per_k=0.2),
    }
    network = ThermalNetwork(nodes, {("chip", "body"): 0.1}, ambient_c=21.0)
    network.step({"chip": power_w}, duration_s)
    chip = network.temperature_c("chip")
    # Bounded above by the single-node steady state (all heat through the
    # chip's own conductances) plus a small numerical margin.
    upper_bound = 21.0 + power_w / 0.05 + 1.0
    assert 21.0 <= chip <= upper_bound


# ---------------------------------------------------------------------------
# Frame pipeline and FPS accounting
# ---------------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=10, max_size=200),
)
@settings(max_examples=30)
def test_pipeline_conservation_of_frames(demand_pattern):
    platform = exynos9810()
    clusters = platform.build_clusters()
    pipeline = FramePipeline()
    demanded = 0
    displayed = 0
    dropped = 0
    for count in demand_pattern:
        frames = [FrameSpec(10.0, 20.0)] * count
        demanded += count
        result = pipeline.tick(1.0 / 60.0, clusters, frames)
        displayed += result.frames_displayed
        dropped += result.frames_dropped
    # Frames cannot be displayed more than once, and accepted + rejected can
    # never exceed what was demanded.
    assert displayed + dropped <= demanded + 3  # +3 for frames still in flight
    assert displayed <= demanded


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=300))
def test_fps_counter_never_negative_nor_above_input_rate(counts):
    counter = FpsCounter(window_s=1.0)
    time_s = 0.0
    for count in counts:
        counter.record(time_s, count)
        fps = counter.fps(time_s)
        assert fps >= 0.0
        assert fps <= 2.0 * 60.0 + 1e-6
        time_s += 1.0 / 60.0


# ---------------------------------------------------------------------------
# PPDW and reward
# ---------------------------------------------------------------------------

@given(fps_values, powers, temperatures)
def test_ppdw_non_negative_and_monotone_in_fps(fps, power, temperature):
    value = compute_ppdw(fps, power, temperature, ambient_c=21.0)
    higher = compute_ppdw(min(60.0, fps + 5.0), power, temperature, ambient_c=21.0)
    assert value >= 0.0
    assert higher >= value


@given(fps_values, powers, powers, temperatures)
def test_ppdw_monotone_decreasing_in_power(fps, power_a, power_b, temperature):
    low, high = sorted((power_a, power_b))
    assert compute_ppdw(fps, high, temperature, 21.0) <= compute_ppdw(fps, low, temperature, 21.0)


@given(fps_values, fps_values, powers, temperatures, st.integers(0, 10), st.integers(0, 10))
def test_reward_bounded_and_penalties_never_help(fps, target, power, temperature, dropped, extra):
    demanded = dropped + extra
    base = compute_reward(fps, target, power, temperature, 21.0,
                          dropped_frames=0, demanded_frames=demanded)
    with_drops = compute_reward(fps, target, power, temperature, 21.0,
                                dropped_frames=dropped, demanded_frames=demanded)
    assert with_drops <= base + 1e-9


# ---------------------------------------------------------------------------
# Frame window
# ---------------------------------------------------------------------------

@given(st.lists(fps_values, min_size=1, max_size=400), st.integers(min_value=1, max_value=60))
def test_frame_window_mode_is_a_representable_level(samples, levels):
    config = FrameWindowConfig(quantisation_levels=levels)
    monitor = FrameWindowMonitor(config)
    for index, fps in enumerate(samples):
        monitor.observe(index * config.sample_period_s, fps)
    target = monitor.target_fps()
    assert 0.0 <= target <= config.max_fps
    # The target must correspond to one of the quantisation levels present in
    # the window.
    levels_in_window = {level for level, _ in monitor.histogram()}
    assert quantise_fps(target, levels, config.max_fps) in levels_in_window


class CounterModeWindow:
    """Reference frame window: the mode is a ``Counter`` over every sample.

    The monitor's cadence, window and serialisation written out plainly,
    with the mode, target and histogram rebuilt from the whole deque on
    each read.  :class:`FrameWindowMonitor` keeps per-level counts instead
    and must read the same after any sequence of operations.
    """

    def __init__(self, config):
        self.config = config
        self.samples = deque(maxlen=config.samples_per_window)
        self.last_sample_time_s = None
        self.raw_last_fps = 0.0

    def observe(self, time_s, fps):
        self.raw_last_fps = fps
        if (
            self.last_sample_time_s is not None
            and 0.0 <= time_s - self.last_sample_time_s < self.config.sample_period_s - 1e-9
        ):
            return False
        self.last_sample_time_s = time_s
        self.samples.append(
            quantise_fps(fps, self.config.quantisation_levels, self.config.max_fps)
        )
        return True

    def mode_level(self):
        if not self.samples:
            return 0
        counts = Counter(self.samples)
        best = max(counts.values())
        return max(level for level, count in counts.items() if count == best)

    def target_fps(self):
        return dequantise_fps(
            self.mode_level(), self.config.quantisation_levels, self.config.max_fps
        )

    def histogram(self):
        return tuple(sorted(Counter(self.samples).items()))

    def reset(self):
        self.samples.clear()
        self.last_sample_time_s = None
        self.raw_last_fps = 0.0

    def state_dict(self):
        return {
            "samples": list(self.samples),
            "last_sample_time_s": self.last_sample_time_s,
            "raw_last_fps": self.raw_last_fps,
        }

    def load_state_dict(self, data):
        self.samples.clear()
        self.samples.extend(int(level) for level in data.get("samples", ()))
        last = data.get("last_sample_time_s")
        self.last_sample_time_s = None if last is None else float(last)
        self.raw_last_fps = float(data.get("raw_last_fps", 0.0))


#: A few plateaus (so equal counts, i.e. ties, are common) plus any FPS,
#: out-of-range values included (quantisation clamps them).
window_fps = st.one_of(
    st.sampled_from([0.0, 2.0, 12.0, 30.0, 58.0, 60.0, 90.0]),
    st.floats(min_value=-10.0, max_value=120.0, allow_nan=False),
)
window_operations = st.lists(
    st.one_of(
        # The clock step: the 25 ms cadence, faster (ignored) samples, and a
        # clock running backwards (a restarted session).
        st.tuples(
            st.just("observe"),
            st.sampled_from([0.025, 0.025, 0.03, 0.01, 0.0, -0.02, -5.0]),
            window_fps,
        ),
        st.tuples(st.just("reset")),
        st.tuples(st.just("round_trip")),
        # A stored window of any length and any levels, those outside
        # [0, levels] included.
        st.tuples(
            st.just("load"),
            st.lists(st.integers(min_value=-5, max_value=70), max_size=30),
            st.one_of(st.none(), st.floats(min_value=-1.0, max_value=10.0, allow_nan=False)),
            st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        ),
    ),
    max_size=120,
)


@given(
    st.sampled_from([2, 3, 5, 12, 160]),
    st.integers(min_value=1, max_value=60),
    window_operations,
)
@settings(max_examples=200, deadline=None)
def test_frame_window_counts_read_like_a_counter_over_the_window(
    samples_per_window, levels, operations
):
    config = FrameWindowConfig(
        sample_period_s=0.025,
        window_s=0.025 * samples_per_window,
        quantisation_levels=levels,
    )
    assert config.samples_per_window == samples_per_window
    monitor = FrameWindowMonitor(config)
    reference = CounterModeWindow(config)
    time_s = 0.0
    for operation in operations:
        kind = operation[0]
        if kind == "observe":
            time_s += operation[1]
            assert monitor.observe(time_s, operation[2]) == reference.observe(
                time_s, operation[2]
            )
        elif kind == "reset":
            monitor.reset()
            reference.reset()
        elif kind == "round_trip":
            state = json.loads(json.dumps(monitor.state_dict()))
            assert state == reference.state_dict()
            monitor = FrameWindowMonitor(config)
            monitor.load_state_dict(state)
            reference.load_state_dict(state)
        else:
            state = {
                "samples": operation[1],
                "last_sample_time_s": operation[2],
                "raw_last_fps": operation[3],
            }
            monitor.load_state_dict(state)
            reference.load_state_dict(state)
        assert monitor.mode_level() == reference.mode_level()
        assert monitor.target_fps() == reference.target_fps()
        assert monitor.histogram() == reference.histogram()
        assert monitor.state_dict() == reference.state_dict()


@given(st.floats(min_value=0.0, max_value=300.0, allow_nan=False), st.integers(min_value=1, max_value=120))
def test_quantise_fps_within_range(fps, levels):
    level = quantise_fps(fps, levels)
    assert 0 <= level <= levels


# ---------------------------------------------------------------------------
# Actions and Q-learning
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=300))
@settings(max_examples=30)
def test_action_application_keeps_limits_valid(action_indices):
    platform = exynos9810()
    clusters = platform.build_clusters()
    space = ActionSpace(["big", "little", "gpu"])
    for index in action_indices:
        space.apply(index, clusters)
        for cluster in clusters.values():
            assert 0 <= cluster.max_limit_index <= len(cluster.opp_table) - 1
            assert cluster.min_limit_index <= cluster.max_limit_index


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),   # state
            st.integers(min_value=0, max_value=2),   # action
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),  # reward
            st.integers(min_value=0, max_value=5),   # next state
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=30)
def test_q_values_remain_bounded_by_reward_geometry(transitions):
    config = QLearningConfig(learning_rate=0.5, discount=0.9, initial_q=0.0)
    core = QLearningCore(action_count=3, config=config, rng=random.Random(0))
    for state, action, reward, next_state in transitions:
        core.update(state, action, reward, next_state)
    # With |r| <= 5 and gamma = 0.9 every Q value must stay within the
    # discounted-return bound 5 / (1 - 0.9) = 50.
    bound = 50.0 + 1e-6
    for state in core.visited_states():
        for value in core.qtable.values(state):
            assert -bound <= value <= bound
