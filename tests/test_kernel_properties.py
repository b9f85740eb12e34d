"""Hypothesis property tests: compiled kernels == naive dict-based reference.

The compiled hot-loop kernels (index-based thermal stepping, flat power
evaluation, the fused ``SocSimulator.step_tick``) promise *exact* float
equality with the straightforward dict-of-str-keyed implementations they
replaced.  These properties generate random networks, coefficients and
operating points and require bit-identical results -- not approximate
equality -- because the golden-trace guarantee (cached sweeps stay valid
across the refactor) rests on it.

The batch kernel's whole-array stages carry the same promise lane by lane:
three properties run one batched stage on 1-5 lanes and compare
every lane, through ``float.hex`` so signed zeros count, with the scalar
code the engine runs for that lane.  They draw what the registered
platforms never produce: sparse thermal networks, OPP tables of unequal
lengths, out-of-range and signed-zero utilisations, every boost and
rate-limit setting, and pipeline roles that share or lack a cluster.

The last property steps one device's frame queue -- intake, stage drain,
back buffers and VSync latch -- through ``FramePipeline`` and through a
``BatchFramePipeline`` lane, tick by tick, against a verbatim copy of the
scalar tick it was factored out of.
"""

import math
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.governors.schedutil import SchedutilConfig, SchedutilScaler
from repro.graphics.pipeline import (
    BatchFramePipeline,
    FramePipeline,
    FrameSpec,
    PipelineConfig,
)
from repro.soc.cluster import Cluster, ClusterKind, ClusterSpec
from repro.soc.frequency import OppTable
from repro.soc.platform import PlatformSpec
from repro.soc.power import LEAKAGE_REFERENCE_TEMPERATURE_C, SocPowerModel
from repro.soc.thermal import ThermalNetwork, ThermalNodeSpec

try:
    import numpy as np
except ImportError:  # the batch-stage properties need the batch kernel
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="the batch kernel is NumPy-backed")

# ---------------------------------------------------------------------------
# Naive reference implementations (verbatim pre-refactor algorithms)
# ---------------------------------------------------------------------------


class NaiveThermalReference:
    """The original dict-based forward-Euler stepper, kept as the oracle."""

    MAX_SUBSTEP_S = ThermalNetwork.MAX_SUBSTEP_S

    def __init__(self, nodes, couplings, ambient_c, initial_temperature_c=None):
        self.nodes = dict(nodes)
        self.ambient_c = float(ambient_c)
        start = self.ambient_c if initial_temperature_c is None else float(initial_temperature_c)
        self.temps = {name: start for name in self.nodes}
        merged = {}
        for (a, b), g in couplings.items():
            key = (a, b) if a < b else (b, a)
            merged[key] = merged.get(key, 0.0) + g
        self.neighbours = {n: [] for n in self.nodes}
        for (a, b), g in merged.items():
            self.neighbours[a].append((b, g))
            self.neighbours[b].append((a, g))

    def step(self, power_in_w, dt_s):
        remaining = dt_s
        while remaining > 1e-12:
            sub = min(self.MAX_SUBSTEP_S, remaining)
            self._euler_substep(power_in_w, sub)
            remaining -= sub

    def _euler_substep(self, power_in_w, dt_s):
        temps = self.temps
        derivatives = {}
        for name, spec in self.nodes.items():
            t = temps[name]
            heat_w = float(power_in_w.get(name, 0.0))
            heat_w -= spec.conductance_to_ambient_w_per_k * (t - self.ambient_c)
            for other, g in self.neighbours[name]:
                heat_w -= g * (t - temps[other])
            derivatives[name] = heat_w / spec.capacitance_j_per_k
        for name, dtemp in derivatives.items():
            temps[name] += dtemp * dt_s
            if temps[name] < self.ambient_c:
                temps[name] = self.ambient_c


def naive_cluster_power(spec, frequency_mhz, voltage_v, utilisation, temperature_c):
    """Verbatim ClusterPowerModel math (dynamic, leakage)."""
    utilisation = min(1.0, max(0.0, utilisation))
    per_core_full = spec.capacitance_nf * frequency_mhz * voltage_v ** 2 * 1e-3
    dynamic = per_core_full * spec.core_count * utilisation
    delta_t = temperature_c - LEAKAGE_REFERENCE_TEMPERATURE_C
    scale = math.exp(spec.leakage_temp_coeff * delta_t)
    leakage = spec.leakage_w_per_v * voltage_v * spec.core_count * scale
    return dynamic, leakage


class NaiveFrameQueueReference:
    """``FramePipeline.tick``'s intake, stage drain and VSync latch, verbatim.

    Copied from the scalar tick that wrote the frame state machine inline,
    with the ``BufferQueue`` it drove (the ready count, ``can_queue`` and the
    latch) and its VSync edge loop.  The stage budgets are passed in.
    """

    def __init__(self, max_pending_frames, back_buffer_count, refresh_hz):
        self.max_pending_frames = max_pending_frames
        self.back_buffer_count = back_buffer_count
        self.ready_frames = 0
        self.pending = deque()
        self.cpu_stage = None  # [remaining cpu work]
        self.cpu_stage_frame = None
        self.gpu_stage_remaining = None
        self.completed_waiting_buffer = 0
        self.period_s = 1.0 / refresh_hz
        self.next_edge_s = self.period_s
        self.time_s = 0.0

    @property
    def can_queue(self):
        return self.ready_frames < self.back_buffer_count

    def queue_frame(self):
        if not self.can_queue:
            return False
        self.ready_frames += 1
        return True

    @property
    def frames_in_flight(self):
        in_stages = int(self.cpu_stage_frame is not None) + int(
            self.gpu_stage_remaining is not None
        )
        return (
            len(self.pending)
            + in_stages
            + self.completed_waiting_buffer
            + self.ready_frames
        )

    def tick(self, dt_s, frame_demands, cpu_budget, gpu_budget):
        """``(displayed, rejected, completed, misses, cpu_done, gpu_done)``."""
        pending = self.pending
        rejected = 0
        if frame_demands:
            max_pending = self.max_pending_frames
            for frame in frame_demands:
                if len(pending) >= max_pending:
                    rejected += 1
                    continue
                pending.append(frame)

        cpu_frame_work_done = 0.0
        gpu_frame_work_done = 0.0
        completed = 0

        while self.completed_waiting_buffer > 0 and self.can_queue:
            self.queue_frame()
            self.completed_waiting_buffer -= 1

        progress = True
        while progress:
            progress = False

            # GPU stage.
            if self.gpu_stage_remaining is not None and gpu_budget > 1e-12:
                done = min(self.gpu_stage_remaining, gpu_budget)
                self.gpu_stage_remaining -= done
                gpu_budget -= done
                gpu_frame_work_done += done
                if self.gpu_stage_remaining <= 1e-9:
                    self.gpu_stage_remaining = None
                    completed += 1
                    if self.can_queue:
                        self.queue_frame()
                    else:
                        self.completed_waiting_buffer += 1
                    progress = True

            # CPU stage.
            if self.cpu_stage_frame is None and self.pending:
                self.cpu_stage_frame = self.pending.popleft()
                self.cpu_stage = [self.cpu_stage_frame.cpu_work_mwu]
                progress = True
            if (
                self.cpu_stage_frame is not None
                and self.cpu_stage is not None
                and cpu_budget > 1e-12
            ):
                done = min(self.cpu_stage[0], cpu_budget)
                self.cpu_stage[0] -= done
                cpu_budget -= done
                cpu_frame_work_done += done
                if self.cpu_stage[0] <= 1e-9 and self.gpu_stage_remaining is None:
                    self.gpu_stage_remaining = self.cpu_stage_frame.gpu_work_mwu
                    if self.gpu_stage_remaining <= 1e-9:
                        self.gpu_stage_remaining = None
                        completed += 1
                        if self.can_queue:
                            self.queue_frame()
                        else:
                            self.completed_waiting_buffer += 1
                    self.cpu_stage_frame = None
                    self.cpu_stage = None
                    progress = True

        displayed = 0
        misses = 0
        end_time = self.time_s + dt_s
        next_edge = self.next_edge_s
        period = self.period_s
        deadline = end_time + 1e-12
        while next_edge <= deadline:
            if self.ready_frames > 0:
                self.ready_frames -= 1
                displayed += 1
            else:
                in_flight = (
                    len(pending)
                    + (self.cpu_stage_frame is not None)
                    + (self.gpu_stage_remaining is not None)
                    + self.completed_waiting_buffer
                )
                if in_flight > 0 or frame_demands:
                    misses += 1
            next_edge += period
        self.next_edge_s = next_edge
        self.time_s = end_time
        return (
            displayed,
            rejected,
            completed,
            misses,
            cpu_frame_work_done,
            gpu_frame_work_done,
        )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite_power = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def thermal_cases(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = [f"n{i}" for i in range(n)]
    nodes = {}
    for name in names:
        cap = draw(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
        g_amb = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        nodes[name] = ThermalNodeSpec(name, cap, g_amb)
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                g = draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
                couplings[(names[i], names[j])] = g
    ambient = draw(st.floats(min_value=-10.0, max_value=40.0, allow_nan=False))
    steps = draw(
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from(names), finite_power, max_size=n),
                st.floats(min_value=1e-6, max_value=0.3, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return nodes, couplings, ambient, steps


@st.composite
def power_cases(draw):
    n_opps = draw(st.integers(min_value=1, max_value=6))
    base = draw(st.floats(min_value=100.0, max_value=1000.0, allow_nan=False))
    freqs = tuple(base + 137.0 * i for i in range(n_opps))
    table = OppTable.from_frequencies(freqs, v_min=0.6, v_max=1.2, curvature=1.3)
    spec = ClusterSpec(
        name="c",
        kind=draw(st.sampled_from(list(ClusterKind))),
        opp_table=table,
        core_count=draw(st.integers(min_value=1, max_value=16)),
        capacitance_nf=draw(st.floats(min_value=0.01, max_value=2.0, allow_nan=False)),
        leakage_w_per_v=draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False)),
        leakage_temp_coeff=draw(st.floats(min_value=0.0, max_value=0.05, allow_nan=False)),
        perf_per_mhz=draw(st.floats(min_value=0.1, max_value=2.0, allow_nan=False)),
    )
    index = draw(st.integers(min_value=0, max_value=n_opps - 1))
    utilisation = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    temperature = draw(st.floats(min_value=-20.0, max_value=110.0, allow_nan=False))
    return spec, index, utilisation, temperature


@st.composite
def cluster_specs(draw, name):
    """One cluster of any kind with its own OPP count (1-6) and coefficients."""
    first = draw(st.floats(min_value=100.0, max_value=1000.0))
    steps = draw(
        st.lists(st.floats(min_value=1.0, max_value=400.0), max_size=5)
    )
    freqs = [first]
    for step in steps:
        freqs.append(freqs[-1] + step)
    return ClusterSpec(
        name=name,
        kind=draw(st.sampled_from(list(ClusterKind))),
        opp_table=OppTable.from_frequencies(
            tuple(freqs), v_min=0.6, v_max=1.2, curvature=1.3
        ),
        core_count=draw(st.integers(min_value=1, max_value=8)),
        capacitance_nf=draw(st.floats(min_value=0.01, max_value=2.0)),
        leakage_w_per_v=draw(st.floats(min_value=0.0, max_value=0.5)),
        leakage_temp_coeff=draw(st.floats(min_value=0.0, max_value=0.05)),
        # A vanishing rate lets a tiny tick underflow a capacity to zero.
        perf_per_mhz=draw(st.one_of(st.floats(min_value=0.1, max_value=2.0), st.just(5e-324))),
    )


#: Utilisations inside and outside [0, 1], both signed zeros included.
utilisations = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
)


def lane_indices(draw, spec):
    """``(current, min_limit, max_limit)`` for one lane of one cluster."""
    top = len(spec.opp_table) - 1
    low = draw(st.integers(min_value=0, max_value=top))
    high = draw(st.integers(min_value=low, max_value=top))
    return draw(st.integers(min_value=0, max_value=top)), low, high


def hexes(values):
    return [float(value).hex() for value in values]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=thermal_cases())
def test_compiled_thermal_kernel_matches_naive_reference_exactly(case):
    nodes, couplings, ambient, steps = case
    compiled = ThermalNetwork(nodes, couplings, ambient_c=ambient)
    naive = NaiveThermalReference(nodes, couplings, ambient_c=ambient)
    for power_in, dt in steps:
        compiled.step(power_in, dt)
        naive.step(power_in, dt)
        got = compiled.temperatures_c()
        assert set(got) == set(naive.temps)
        for name in naive.temps:
            # Exact equality: same float operation sequence, bit for bit.
            assert got[name] == naive.temps[name]


@settings(max_examples=60, deadline=None)
@given(case=thermal_cases())
def test_step_flat_matches_mapping_step_exactly(case):
    nodes, couplings, ambient, steps = case
    via_mapping = ThermalNetwork(nodes, couplings, ambient_c=ambient)
    via_flat = ThermalNetwork(nodes, couplings, ambient_c=ambient)
    order = via_flat.node_names
    buffer = [0.0] * len(order)
    for power_in, dt in steps:
        via_mapping.step(power_in, dt)
        for i, name in enumerate(order):
            buffer[i] = float(power_in.get(name, 0.0))
        via_flat.step_flat(buffer, dt)
        assert via_flat.temperatures_c() == via_mapping.temperatures_c()


@settings(max_examples=80, deadline=None)
@given(case=power_cases())
def test_evaluate_flat_matches_naive_power_math_exactly(case):
    spec, index, utilisation, temperature = case
    model = SocPowerModel({"c": spec}, rest_of_platform_power_w=0.25)
    cluster = Cluster(spec, initial_index=index)
    cluster.utilisation = utilisation
    dynamic_out = [0.0]
    leakage_out = [0.0]
    model.evaluate_flat(
        [cluster], model.compile_coefficients(["c"]), [temperature], dynamic_out, leakage_out
    )
    expected_dynamic, expected_leakage = naive_cluster_power(
        spec,
        cluster.current_frequency_mhz,
        cluster.current_voltage_v,
        utilisation,
        temperature,
    )
    assert dynamic_out[0] == expected_dynamic
    assert leakage_out[0] == expected_leakage
    # ...and the mapping-based evaluate agrees too (three implementations, one
    # float sequence).
    breakdown = model.evaluate({"c": cluster}, {"c": temperature})
    assert breakdown.dynamic_w["c"] == expected_dynamic
    assert breakdown.leakage_w["c"] == expected_leakage


@settings(max_examples=40, deadline=None)
@given(
    case=power_cases(),
    dt=st.floats(min_value=1e-4, max_value=0.05, allow_nan=False),
)
def test_soc_step_tick_power_buffers_match_evaluate(case, dt):
    """The fused step_tick loop computes the same power evaluate() would."""
    from repro.soc.platform import PlatformSpec

    spec, index, utilisation, temperature = case
    platform = PlatformSpec(
        name="prop",
        cluster_specs={"c": spec},
        thermal_nodes={
            "c": ThermalNodeSpec("c", 3.0, 0.01),
            "device": ThermalNodeSpec("device", 40.0, 0.2),
        },
        thermal_couplings={("c", "device"): 0.05},
        ambient_c=21.0,
    )
    from repro.soc.soc import SocSimulator

    soc = SocSimulator(platform)
    soc.thermal.set_temperature("c", temperature)
    soc.cluster("c").set_frequency_index(index)
    soc.cluster("c").utilisation = utilisation
    # What evaluate() would say for the pre-step temperatures:
    expected = soc.power_model.evaluate(
        soc.clusters, {"c": soc.thermal.temperature_c("c")}
    )
    soc.step_tick(dt)
    telemetry = soc.telemetry()
    assert telemetry.power.dynamic_w == dict(expected.dynamic_w)
    assert telemetry.power.leakage_w == dict(expected.leakage_w)
    assert telemetry.total_power_w == expected.total_w


# ---------------------------------------------------------------------------
# Batched stages, lane by lane against the scalar engine's code
# ---------------------------------------------------------------------------


@st.composite
def scaler_cases(draw):
    specs = [
        draw(cluster_specs(f"c{k}"))
        for k in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    config = SchedutilConfig(
        headroom=draw(st.floats(min_value=1.0, max_value=2.0)),
        up_rate_limit_s=draw(st.sampled_from([0.0, 0.05, 0.5])),
        down_rate_limit_s=draw(st.sampled_from([0.0, 0.1, 0.5])),
        io_boost=draw(st.sampled_from([0.0, 0.1, 0.3])),
        touch_boost_fraction=draw(st.sampled_from([0.0, 0.5, 0.95])),
        touch_boost_hold_s=draw(st.sampled_from([0.0, 0.2, 1.0])),
        touch_boost_util_threshold=draw(st.sampled_from([0.0, 0.04, 0.5])),
        boost_gpu=draw(st.booleans()),
    )
    n_lanes = draw(st.integers(min_value=1, max_value=5))
    start = draw(st.floats(min_value=0.0, max_value=100.0))
    # Rate-limit and boost timestamps: absent, or either side of now.
    stamps = st.one_of(st.none(), st.floats(min_value=start - 2.0, max_value=start + 2.0))
    lanes = [
        [(lane_indices(draw, spec), [draw(stamps) for _ in range(3)]) for spec in specs]
        for _ in range(n_lanes)
    ]
    ticks = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=start - 1.0, max_value=start + 1.0),
                st.lists(
                    st.lists(utilisations, min_size=len(specs), max_size=len(specs)),
                    min_size=n_lanes,
                    max_size=n_lanes,
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return specs, config, lanes, ticks


@needs_numpy
@settings(max_examples=50, deadline=None)
@given(case=scaler_cases())
def test_select_tick_batch_matches_select_tick_per_lane(case):
    specs, config, lanes, ticks = case
    names = [spec.name for spec in specs]
    n = len(lanes)
    scalers, lane_clusters = [], []
    for lane in lanes:
        scaler = SchedutilScaler(config)
        clusters = {}
        for spec, ((current, low, high), stamps) in zip(specs, lane):
            cluster = Cluster(spec, initial_index=current)
            cluster._min_limit_index, cluster._max_limit_index = low, high
            clusters[spec.name] = cluster
            for table, stamp in zip(
                (
                    scaler._last_up_time_s,
                    scaler._last_down_time_s,
                    scaler._last_activity_time_s,
                ),
                stamps,
            ):
                if stamp is not None:
                    table[spec.name] = stamp
        scalers.append(scaler)
        lane_clusters.append(clusters)

    batch_scaler = SchedutilScaler(config)
    state = batch_scaler.compile_batch(lane_clusters[0], n)

    def column(position):
        return [[lane[k][0][position] for lane in lanes] for k in range(len(specs))]

    def stamp_rows(which):
        return [
            [
                -math.inf if lane[k][1][which] is None else lane[k][1][which]
                for lane in lanes
            ]
            for k in range(len(specs))
        ]

    current = np.array(column(0), dtype=np.int64)
    min_limit = np.array(column(1), dtype=np.int64)
    max_limit = np.array(column(2), dtype=np.int64)
    state.last_moved[0] = stamp_rows(0)
    state.last_moved[1] = stamp_rows(1)
    state.last_activity[:] = stamp_rows(2)

    for now, lane_utils in ticks:
        for scaler, clusters, utils in zip(scalers, lane_clusters, lane_utils):
            scaler.select_tick(
                scaler.compile_clusters(clusters), dict(zip(names, utils)), now
            )
        batch_scaler.select_tick_batch(
            state,
            np.array(lane_utils, dtype=np.float64).T.copy(),
            current,
            min_limit,
            max_limit,
            now,
        )
        for d, (scaler, clusters) in enumerate(zip(scalers, lane_clusters)):
            for k, name in enumerate(names):
                assert current[k, d] == clusters[name].current_index
                for row, table in (
                    (state.last_moved[0], scaler._last_up_time_s),
                    (state.last_moved[1], scaler._last_down_time_s),
                    (state.last_activity, scaler._last_activity_time_s),
                ):
                    assert float(row[k, d]).hex() == float(
                        table.get(name, -math.inf)
                    ).hex()


@st.composite
def soc_step_cases(draw):
    nodes, couplings, ambient, steps = draw(thermal_cases())
    order = draw(st.permutations(list(nodes)))
    n_clusters = draw(st.integers(min_value=1, max_value=min(3, len(order))))
    # Clusters take any nodes (so their rows need not be consecutive); a
    # spare node may become the device node that the platform floor heats.
    renamed = {}
    if len(order) > n_clusters and draw(st.booleans()):
        renamed[order[n_clusters]] = "device"
    name = lambda node: renamed.get(node, node)  # noqa: E731
    platform = PlatformSpec(
        name="prop",
        cluster_specs={
            node: draw(cluster_specs(node)) for node in order[:n_clusters]
        },
        thermal_nodes={
            name(node): ThermalNodeSpec(
                name(node), spec.capacitance_j_per_k, spec.conductance_to_ambient_w_per_k
            )
            for node, spec in nodes.items()
        },
        thermal_couplings={
            (name(a), name(b)): g for (a, b), g in couplings.items()
        },
        ambient_c=ambient,
        rest_of_platform_power_w=draw(st.floats(min_value=0.0, max_value=2.0)),
        max_chip_temperature_c=draw(
            st.floats(min_value=ambient, max_value=ambient + 60.0)
        ),
    )
    n_lanes = draw(st.integers(min_value=1, max_value=5))
    temperature = st.floats(min_value=ambient - 5.0, max_value=ambient + 80.0)
    lanes = [
        (
            [draw(temperature) for _ in nodes],
            [lane_indices(draw, spec) for spec in platform.cluster_specs.values()],
        )
        for _ in range(n_lanes)
    ]
    step_utils = [
        [
            [draw(utilisations) for _ in range(n_clusters)]
            for _ in range(n_lanes)
        ]
        for _ in steps[:3]
    ]
    dts = [dt for _, dt in steps[:3]]
    return platform, lanes, dts, step_utils, draw(st.booleans())


@needs_numpy
@settings(max_examples=50, deadline=None)
@given(case=soc_step_cases())
def test_batched_soc_step_matches_step_tick_per_lane(case):
    """Power, heat, Euler step and throttle: ``_soc_step`` vs ``step_tick``."""
    from repro.governors.schedutil import SchedutilGovernor
    from repro.sim.batch import BatchSimulation
    from repro.sim.config import SimulationConfig

    platform, lanes, dts, step_utils, throttle = case
    n = len(lanes)
    batch = BatchSimulation(
        platform,
        [SchedutilGovernor() for _ in range(n)],
        [SimulationConfig(refresh_hz=60.0, duration_s=1.0, seed=d) for d in range(n)],
    )
    batch._thermal_throttle = throttle
    for d, (temps, indices) in enumerate(lanes):
        soc = batch.devices[d].soc
        soc.thermal_throttle = throttle
        soc.thermal._temps[:] = temps
        batch._temps[:, d] = temps
        for k, (cluster, (current, low, high)) in enumerate(
            zip(soc._cluster_list, indices)
        ):
            cluster._current_index = current
            cluster._min_limit_index, cluster._max_limit_index = low, high
            batch._cur[k, d] = current
            batch._min_limit[k, d] = low
            batch._max_limit[k, d] = high

    for dt, lane_utils in zip(dts, step_utils):
        for d, utils in enumerate(lane_utils):
            soc = batch.devices[d].soc
            for cluster, value in zip(soc._cluster_list, utils):
                cluster._utilisation = value
            soc.step_tick(dt)
        cluster_power = batch._soc_step(
            np.array(lane_utils, dtype=np.float64).T.copy(), dt
        )
        for d in range(n):
            soc = batch.devices[d].soc
            assert hexes(batch._dynamic[:, d]) == hexes(soc._dynamic_w)
            assert hexes(batch._leakage[:, d]) == hexes(soc._leakage_w)
            assert hexes(cluster_power[:, d]) == hexes(soc.record_values()[1])
            assert hexes(batch._heat[:, d]) == hexes(soc._heat_in)
            assert hexes(batch._temps[:, d]) == hexes(soc.thermal._temps)
            assert batch._cur[:, d].tolist() == [
                cluster._current_index for cluster in soc._cluster_list
            ]


def transcribed_pipeline_lines(config, clusters, cpu_done, gpu_done, background, dt_s):
    """``FramePipeline.tick``'s rate, attribution and utilisation lines, verbatim."""
    cfg = config
    big_rate = 0.0
    little_rate = 0.0
    if cfg.big_cluster in clusters:
        big = clusters[cfg.big_cluster]
        cores = min(cfg.ui_big_cores, big.spec.core_count)
        big_rate = big._freqs[big._current_index] * big.spec.perf_per_mhz * cores
    if cfg.little_cluster in clusters:
        little = clusters[cfg.little_cluster]
        cores = min(cfg.ui_little_cores, little.spec.core_count)
        little_rate = little._freqs[little._current_index] * little.spec.perf_per_mhz * cores
    cpu_rate = big_rate + little_rate
    if cfg.gpu_cluster in clusters:
        gpu = clusters[cfg.gpu_cluster]
        cores = gpu.spec.core_count * cfg.gpu_core_fraction
        gpu_rate = gpu._freqs[gpu._current_index] * gpu.spec.perf_per_mhz * cores
    else:
        gpu_rate = 0.0
    work_done = {name: 0.0 for name in clusters}
    if cpu_rate > 0:
        if cfg.big_cluster in work_done:
            work_done[cfg.big_cluster] += cpu_done * (big_rate / cpu_rate)
        if cfg.little_cluster in work_done:
            work_done[cfg.little_cluster] += cpu_done * (little_rate / cpu_rate)
    if cfg.gpu_cluster in work_done:
        work_done[cfg.gpu_cluster] += gpu_done
    utilisations = {}
    for name, cluster in clusters.items():
        capacity = (
            cluster._freqs[cluster._current_index]
            * cluster.spec.perf_per_mhz
            * cluster.spec.core_count
        ) * dt_s
        background_w = background[name]
        done = work_done[name]
        if capacity <= 0:
            utilisations[name] = 1.0 if (background_w > 0 or done > 0) else 0.0
            continue
        spare = capacity - done
        if spare < 0.0:
            spare = 0.0
        background_done = background_w if background_w < spare else spare
        done += background_done
        ratio = done / capacity
        utilisations[name] = ratio if ratio < 1.0 else 1.0
    return (big_rate, little_rate, cpu_rate, gpu_rate), utilisations


@st.composite
def pipeline_cases(draw):
    n_clusters = draw(st.integers(min_value=1, max_value=4))
    specs = [draw(cluster_specs(f"c{k}")) for k in range(n_clusters)]
    # A stage role may name any cluster -- two roles may share one -- or
    # none at all.
    role = st.sampled_from([spec.name for spec in specs] + ["__none__"])
    ui_big = draw(st.sampled_from([0.0, 1.0, 1.6, 3.0]))
    ui_little = draw(st.sampled_from([0.0, 1.0, 2.5]))
    config = PipelineConfig(
        big_cluster=draw(role),
        little_cluster=draw(role),
        gpu_cluster=draw(role),
        ui_big_cores=ui_big,
        ui_little_cores=ui_little if ui_big or ui_little else 1.0,
        gpu_core_fraction=draw(st.floats(min_value=0.1, max_value=1.0)),
    )
    work = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, max_value=5.0))
    lanes = [
        (
            [lane_indices(draw, spec)[0] for spec in specs],
            draw(work),
            draw(work),
            [draw(work) for _ in specs],
        )
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    # With a vanishing perf_per_mhz, a subnormal tick underflows that
    # cluster's capacity to zero: the saturated-utilisation branch.
    dt = draw(
        st.one_of(
            st.floats(min_value=1e-4, max_value=0.1),
            st.floats(min_value=5e-324, max_value=1e-300),
        )
    )
    return specs, config, lanes, dt


@needs_numpy
@settings(max_examples=50, deadline=None)
@given(case=pipeline_cases())
def test_batch_rates_and_finish_match_the_scalar_pipeline_per_lane(case):
    specs, config, lanes, dt = case
    n = len(lanes)
    lane_clusters = [
        {spec.name: Cluster(spec, initial_index=index) for spec, index in zip(specs, lane[0])}
        for lane in lanes
    ]
    pipeline = BatchFramePipeline(config, 60.0, lane_clusters[0], n)
    current = np.array([lane[0] for lane in lanes], dtype=np.int64).T.copy()
    rates, cpu_rate, gpu_rate = pipeline.batch_rates(current)
    util = np.zeros((len(specs), n))
    with np.errstate(over="ignore"):  # subnormal capacities: ratio inf, as in Python
        pipeline.batch_finish(
            current,
            np.array([lane[1] for lane in lanes]),
            np.array([lane[2] for lane in lanes]),
            rates,
            cpu_rate,
            np.array([lane[3] for lane in lanes]).T.copy(),
            dt,
            util,
        )
    tables = pipeline._batch_tables()
    for d, (lane, clusters) in enumerate(zip(lanes, lane_clusters)):
        (big, little, cpu, gpu), expected = transcribed_pipeline_lines(
            config,
            clusters,
            lane[1],
            lane[2],
            dict(zip(clusters, lane[3])),
            dt,
        )
        for position, rate in ((tables.big, big), (tables.little, little)):
            if position is not None:
                assert float(rates[position, d]).hex() == rate.hex()
        assert hexes([cpu_rate[d], gpu_rate[d]]) == hexes([cpu, gpu])
        assert hexes(util[:, d]) == hexes(expected.values())


#: OPP frequencies of the two stage clusters.  At ``perf_per_mhz`` 0.1 they
#: give stage rates of 0.0 (the product underflows), 1e-13, 1e-8, 10 and
#: 1e6 Mwu/s: budgets of exactly zero, below the drain's 1e-12 floor, just
#: above it, a fraction of a frame, and enough for every frame at once.
STAGE_FREQUENCIES = (5e-324, 1e-12, 1e-7, 100.0, 1e7)
PERIOD_S = 1.0 / 60.0


def stage_cluster(name, kind):
    """A one-core cluster whose OPPs give the :data:`STAGE_FREQUENCIES` rates."""
    return Cluster(
        ClusterSpec(
            name=name,
            kind=kind,
            opp_table=OppTable.from_frequencies(STAGE_FREQUENCIES, v_min=0.6, v_max=1.2),
            core_count=1,
            capacitance_nf=1.0,
            leakage_w_per_v=0.0,
            leakage_temp_coeff=0.0,
            perf_per_mhz=0.1,
        )
    )


frame_work = st.one_of(
    st.sampled_from([0.0, 5e-10, 0.05]), st.floats(min_value=0.0, max_value=3.0)
)


@st.composite
def frame_queue_runs(draw):
    # The fastest OPP half the time, so that whole frames render within a
    # tick and ticks with more edges than ready frames occur.
    fastest = len(STAGE_FREQUENCIES) - 1
    opp = st.one_of(st.just(fastest), st.integers(min_value=0, max_value=fastest))
    # A tick of 1e-15 s crosses no VSync edge; one of 0.1-1.9 periods
    # crosses zero, one or two.
    dt = st.one_of(
        st.sampled_from([1e-15, 0.5 * PERIOD_S, PERIOD_S, 1.6 * PERIOD_S]),
        st.floats(min_value=0.1 * PERIOD_S, max_value=1.9 * PERIOD_S),
    )
    # 0-4 demanded frames, mostly none or one: a single frame after idle
    # ticks is what leaves a VSync edge unlatched with nothing in flight.
    frames = st.sampled_from([0, 0, 1, 1, 2, 3, 4]).flatmap(
        lambda n: st.lists(st.builds(FrameSpec, frame_work, frame_work), min_size=n, max_size=n)
    )
    n_ticks = draw(st.integers(min_value=1, max_value=40))
    ticks = draw(
        st.lists(st.tuples(frames, opp, opp, dt), min_size=n_ticks, max_size=n_ticks)
    )
    return draw(st.integers(1, 3)), draw(st.integers(1, 3)), ticks


@settings(max_examples=100, deadline=None)
@given(case=frame_queue_runs())
# An idle tick, then one frame that renders at once and two VSync edges:
# the second edge is a miss although nothing is left in flight.
@example(
    case=(1, 1, [([], 4, 4, 1.6 * PERIOD_S), ([FrameSpec(0.0, 0.0)], 4, 4, 1.6 * PERIOD_S)])
)
def test_frame_queue_matches_the_transcribed_scalar_tick(case):
    max_pending, back_buffers, ticks = case
    config = PipelineConfig(
        big_cluster="cpu",
        little_cluster="__none__",
        gpu_cluster="gpu",
        ui_big_cores=1.0,
        max_pending_frames=max_pending,
    )
    clusters = {
        "cpu": stage_cluster("cpu", ClusterKind.BIG_CPU),
        "gpu": stage_cluster("gpu", ClusterKind.GPU),
    }
    reference = NaiveFrameQueueReference(max_pending, back_buffers, 60.0)
    scalar = FramePipeline(config, 60.0, back_buffer_count=back_buffers)
    batch = BatchFramePipeline(config, 60.0, clusters, 1, back_buffer_count=back_buffers)
    no_background = dict.fromkeys(clusters, 0.0)
    for frames, cpu_index, gpu_index, dt in ticks:
        clusters["cpu"].set_frequency_index(cpu_index)
        clusters["gpu"].set_frequency_index(gpu_index)
        (_, _, cpu_rate, gpu_rate), _ = transcribed_pipeline_lines(
            config, clusters, 0.0, 0.0, no_background, dt
        )
        cpu_budget = cpu_rate * dt
        gpu_budget = gpu_rate * dt
        displayed, rejected, completed, misses, cpu_done, gpu_done = reference.tick(
            dt, frames, cpu_budget, gpu_budget
        )
        counts = (reference.frames_in_flight, reference.ready_frames)

        # One CPU cluster and no background work: the attributed work of
        # each stage cluster is that stage's work itself.
        result = scalar.tick(dt, clusters, frames)
        assert (
            result.frames_displayed,
            result.frames_dropped,
            result.frames_completed,
            result.vsync_misses,
        ) == (displayed, rejected, completed, misses)
        assert hexes([result.work_done_mwu["cpu"], result.work_done_mwu["gpu"]]) == hexes(
            [cpu_done, gpu_done]
        )
        assert (scalar.frames_in_flight, scalar.queue.ready) == counts

        lane = batch.queues[0]
        lane_displayed, lane_rejected, lane_cpu, lane_gpu, lane_completed = lane.step(
            frames, cpu_budget, gpu_budget, batch.advance_time(dt)
        )
        assert (lane_displayed, lane_rejected, lane_completed) == (
            displayed,
            rejected,
            completed,
        )
        assert hexes([lane_cpu, lane_gpu]) == hexes([cpu_done, gpu_done])
        assert (lane.in_flight, lane.ready) == counts
