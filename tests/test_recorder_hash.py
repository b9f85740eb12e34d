"""``Recorder.content_hash`` against the reference ``sample_stream_hash``.

``content_hash`` formats the recorder's columns directly, through one
template of the recorder's mapping-key layout, instead of hashing
``SimulationSample`` views.  Its digest is the parity currency of every
cached cell, golden pin and shard merge, so it must equal
``sample_stream_hash(recorder.samples)`` byte for byte on any stream: empty
and unsorted mappings, keys that look like format directives or need
escaping in ``repr``, and the floats whose ``repr`` is least regular.  A
recorder holds one layout, so a sample with other mapping keys is refused.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.recorder import Recorder, SimulationSample, sample_stream_hash

MAPPING_FIELDS = (
    "power_per_cluster_w",
    "temperatures_c",
    "frequencies_mhz",
    "max_limits_mhz",
    "utilisations",
)

#: Floats whose ``repr`` takes every branch of the shortest round-trip
#: formatter: signed zero, non-finite values, the switch to exponent
#: notation on both sides and the smallest subnormal.
SPECIAL_FLOATS = (-0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324, 1e-5, 0.1)

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
keys = st.one_of(
    st.sampled_from(
        ("big", "%", "%r", "%%s", "'", '"', "it's", 'a"b\'c', "é", "温度")
    ),
    st.text(max_size=4),
)
names = st.one_of(
    st.sampled_from(("facebook", "100%", "o'neil", "ß")), st.text(max_size=3)
)


@st.composite
def layouts(draw):
    """Key order of every mapping field: 0, 1 or 3 keys, unsorted."""
    return tuple(
        draw(
            st.sampled_from((0, 1, 3)).flatmap(
                lambda size: st.lists(keys, min_size=size, max_size=size, unique=True)
            )
        )
        for _ in MAPPING_FIELDS
    )


@st.composite
def sample_streams(draw):
    """Samples that all share one drawn layout, as a recorder requires."""
    layout = draw(layouts())
    samples = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        mappings = {
            field: {key: draw(floats) for key in field_keys}
            for field, field_keys in zip(MAPPING_FIELDS, layout)
        }
        samples.append(
            SimulationSample(
                time_s=draw(floats),
                app_name=draw(names),
                phase_name=draw(names),
                fps=draw(floats),
                target_fps=draw(floats),
                frames_demanded=draw(st.integers(min_value=-(2**70), max_value=2**70)),
                frames_displayed=draw(st.integers(min_value=0, max_value=120)),
                frames_dropped=draw(st.integers(min_value=0, max_value=120)),
                power_total_w=draw(floats),
                interaction_activity=draw(floats),
                **mappings,
            )
        )
    return samples


class TestContentHashOracle:
    @given(samples=sample_streams())
    @settings(max_examples=150, deadline=None)
    def test_column_hash_equals_sample_stream_hash(self, samples):
        recorder = Recorder()
        for sample in samples:
            recorder.record(sample)
        digest = recorder.content_hash()
        assert recorder._materialised == []
        assert digest == sample_stream_hash(recorder.samples)

    def test_empty_recorder(self):
        recorder = Recorder()
        assert recorder.content_hash() == sample_stream_hash([])
        assert recorder.content_hash() == hashlib.sha256().hexdigest()
        assert recorder._materialised == []

    def test_registered_layout_with_a_repeated_key_keeps_the_last_value(self):
        # The sample view builds dict(zip(keys, values)), so a key listed
        # twice in a registered layout keeps its last value; the hash must
        # agree with that view.
        recorder = Recorder()
        recorder.register_layout(("little", "big", "little"), ("device",))
        for tick in range(3):
            recorder.append_tick(
                tick / 60.0, "facebook", "idle", 60.0, 0.0, 1, 1, 0, 2.5,
                (0.1, 0.2, 0.3), (30.0 + tick,), (1.0, 2.0, 3.0),
                (4.0, 5.0, 6.0), (0.25, 0.5, 0.75), 0.0,
            )
        assert recorder.content_hash() == sample_stream_hash(recorder.samples)

    def test_series_and_summary_read_the_last_column_of_a_repeated_key(self):
        # Series and summaries agree with the samples: the last value wins.
        recorder = Recorder()
        recorder.register_layout(("big",), ("big", "big"))
        for tick, temperatures in enumerate(((30.0, 40.0), (31.0, 41.0))):
            recorder.append_tick(
                tick / 60.0, "facebook", "idle", 60.0, 0.0, 1, 1, 0, 2.5,
                (1.0,), temperatures, (1690.0,), (2704.0,), (0.4,), 0.5,
            )
        assert [s.temperatures_c["big"] for s in recorder.samples] == [40.0, 41.0]
        assert recorder.temperature_series("big") == [40.0, 41.0]
        assert recorder.summary().peak_temperature_c == {"big": 41.0}


class TestSingleLayout:
    @staticmethod
    def sample(temperatures):
        return SimulationSample(
            time_s=0.0, app_name="facebook", phase_name="idle", fps=60.0,
            target_fps=0.0, frames_demanded=1, frames_displayed=1,
            frames_dropped=0, power_total_w=2.5,
            power_per_cluster_w={"big": 1.0}, temperatures_c=temperatures,
            frequencies_mhz={"big": 1690.0}, max_limits_mhz={"big": 2704.0},
            utilisations={"big": 0.4}, interaction_activity=0.5,
        )

    def test_record_rejects_other_mapping_keys(self):
        recorder = Recorder()
        recorder.record(self.sample({"big": 40.0, "device": 30.0}))
        with pytest.raises(ValueError):
            recorder.record(self.sample({"big": 40.0}))
        with pytest.raises(ValueError):
            recorder.record(self.sample({"big": 40.0, "device": 30.0, "gpu": 35.0}))
        assert len(recorder) == 1

    def test_record_rejects_keys_outside_a_registered_layout(self):
        recorder = Recorder()
        recorder.register_layout(("big",), ("big", "gpu"))
        with pytest.raises(ValueError):
            recorder.record(self.sample({"big": 40.0, "device": 30.0}))
        assert len(recorder) == 0

    def test_append_tick_requires_a_registered_layout(self):
        with pytest.raises(ValueError):
            Recorder().append_tick(
                0.0, "facebook", "idle", 60.0, 0.0, 1, 1, 0, 2.5,
                (1.0,), (40.0,), (1690.0,), (2704.0,), (0.4,), 0.5,
            )
