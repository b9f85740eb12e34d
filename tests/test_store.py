"""The one fingerprint-keyed entry store under the result cache, the artifact
store and the fleet store.

All three find, read, quarantine and write their entries through
:class:`repro.core.persistence.EntryStore`, so they share one rule set:
reading never creates a directory, an entry that is not a valid document of
the store's kind is corrupt (quarantined on load, ignored by read-only
inspection, never raised), and the shard merge treats an entry that is not a
JSON object as torn, whichever store it belongs to.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.artifact import TrainingSpec
from repro.core.federated import FleetSpec
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.distributed import (
    merge_shard_stores,
    plan_shards,
    run_shard,
    shard_cache_dir,
    shard_directory,
    shard_status,
)
from repro.experiments.federated import FleetStore
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import ResultCache, SweepRunner


def _matrix() -> ScenarioMatrix:
    return ScenarioMatrix.build(
        name="store", governors=("powersave",), apps=("facebook",), duration_s=3.0
    )


def _set_summary(path: str, summary) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["summary"] = summary
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


class TestMalformedCacheEntry:
    """An entry that parses but whose summary is no container is corrupt."""

    def test_load_quarantines_and_the_sweep_recomputes(self, tmp_path):
        matrix = _matrix()
        cell = matrix.cells()[0]
        SweepRunner(max_workers=1, cache_dir=str(tmp_path)).run(matrix)
        path = str(tmp_path / f"{cell.fingerprint()}.json")
        _set_summary(path, 5)

        sweep = SweepRunner(max_workers=1, cache_dir=str(tmp_path)).run(matrix)
        assert sweep.failures == [] and sweep.cached_count == 0
        with open(f"{path}.bad", "r", encoding="utf-8") as handle:
            assert json.load(handle)["summary"] == 5  # evidence kept
        assert ResultCache(str(tmp_path)).load(cell) is not None  # healed

    def test_peek_and_shard_status_miss_without_touching_the_entry(self, tmp_path):
        manifest = plan_shards(_matrix(), 1)
        shard_dir = shard_directory(str(tmp_path), 0)
        run_shard(manifest, 0, shard_dir)
        cell = manifest.matrix.cells()[0]
        path = os.path.join(shard_cache_dir(shard_dir), f"{cell.fingerprint()}.json")
        _set_summary(path, 5)
        with open(path, "rb") as handle:
            damaged = handle.read()

        assert ResultCache(shard_cache_dir(shard_dir)).peek(cell) is None
        status = shard_status(manifest, 0, shard_dir)
        assert status.completed == 0 and status.state == "pending"
        with open(path, "rb") as handle:
            assert handle.read() == damaged
        assert not os.path.exists(f"{path}.bad")


@pytest.mark.parametrize("payload", ["[1, 2]", "5", "null", '"x"'])
def test_merge_quarantines_entries_that_are_not_json_objects(tmp_path, payload):
    shard = tmp_path / "shard"
    (shard / "artifacts").mkdir(parents=True)
    entries = [
        shard / "c0ffee.json",
        shard / "artifacts" / "c0ffee.agent.json",
        shard / "artifacts" / "c0ffee.fleet.json",
    ]
    for path in entries:
        path.write_text(payload)
    merged = tmp_path / "merged"

    counters = merge_shard_stores([str(shard)], str(merged))

    assert counters == {
        "results": 0,
        "artifacts": 0,
        "fleets": 0,
        "duplicates": 0,
        "quarantined": 3,
    }
    for path in entries:
        assert not path.exists()
        assert path.with_name(path.name + ".bad").read_text() == payload
    assert ResultCache(str(merged)).entry_paths() == []
    assert ArtifactStore(str(merged / "artifacts")).entry_paths() == []
    assert FleetStore(str(merged / "artifacts")).entry_paths() == []


def test_reading_a_store_creates_no_directory(tmp_path):
    missing = tmp_path / "absent"
    cell = _matrix().cells()[0]
    spec = TrainingSpec(
        apps=("home",),
        platform="generic-two-cluster",
        episodes=1,
        episode_duration_s=4.0,
        seed=5,
    )
    fleet = FleetSpec(apps=("home",), devices=2, rounds=2, episodes=1)

    cache = ResultCache(str(missing))
    assert cache.load(cell) is None and cache.peek(cell) is None
    assert cache.entry_paths() == []
    artifacts = ArtifactStore(str(missing))
    assert artifacts.load(spec) is None and artifacts.resolve(spec) is None
    assert artifacts.entries() == [] and artifacts.entry_paths() == []
    fleets = FleetStore(str(missing))
    assert fleets.load(fleet) is None and fleets.resume_candidate(fleet) is None
    assert fleets.entries() == [] and fleets.entry_paths() == []

    assert not missing.exists()
