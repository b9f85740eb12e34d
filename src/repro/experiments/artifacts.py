"""Training and storage of trained-agent artifacts for the sweep harness.

The paper's protocol trains Next once per application and evaluates the
frozen policy (Sections IV-B and V).  At sweep scale that split matters
twice over: correctness (evaluation cells must not measure a cold,
epsilon-exploring agent) and cost (a matrix with many seeds and workloads
must not retrain the same agent per cell).  This module provides both
halves:

* :func:`train_artifact` is the deterministic, picklable work unit that
  turns a :class:`~repro.core.artifact.TrainingSpec` into an
  :class:`~repro.core.artifact.AgentArtifact` -- shippable to a process-pool
  worker exactly like a scenario cell, and
* :class:`ArtifactStore` is the fingerprint-keyed store of trained
  artifacts: an in-memory layer over the same
  :class:`~repro.core.persistence.EntryStore` the runner's ``ResultCache``
  is built on.  The sweep runner trains each distinct spec once and serves
  every later request from the store.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Type, Union

from repro.core.artifact import AgentArtifact, TrainingSpec
from repro.core.federated import FleetArtifact, FleetSpec
from repro.core.persistence import EntryStore
from repro.core.governor import NextGovernor
from repro.obs.metrics import metrics
from repro.obs.trace import flush_task_metrics, maybe_span
from repro.reliability.clock import monotonic_now
from repro.reliability.faults import SITE_TRAIN_ARTIFACT, fault_point
from repro.sim.experiment import train_next_on_apps, training_config
from repro.soc.platform import make_platform

#: What the artifact stores hold and a cell may evaluate instead of a cold
#: governor -- a trained agent or a trained fleet, both exposing
#: ``build_governor`` and a content ``fingerprint`` -- and the spec keying it.
StoredArtifact = Union[AgentArtifact, FleetArtifact]
ArtifactSpec = Union[TrainingSpec, FleetSpec]


def train_artifact(spec: TrainingSpec, attempt: int = 0) -> AgentArtifact:
    """Train one agent per ``spec`` and freeze it into an artifact.

    Training runs through :func:`repro.sim.experiment.train_next_on_apps` --
    the same train-then-freeze path as ``pretrained_next_governor`` -- so
    the captured agent evaluates greedily with the documented per-app seed
    scheme.  The function is a plain top-level callable returning plain
    data: process pools can run it like any cell.

    ``attempt`` is the orchestrator's retry counter for this spec; it feeds
    the fault-injection seam (so a scheduled fault stops firing once its
    ``max_attempt`` budget is spent) and has no effect on the trained
    artifact, which is a pure function of the spec.
    """
    started = monotonic_now()
    try:
        with maybe_span(
            "train",
            fingerprint=spec.fingerprint(),
            label=spec.label(),
            attempt=attempt,
        ):
            fault_point(SITE_TRAIN_ARTIFACT, spec.fingerprint(), attempt)
            platform = make_platform(spec.platform)
            governor = NextGovernor(seed=spec.seed)
            results = train_next_on_apps(
                governor,
                spec.apps,
                platform=platform,
                episodes=spec.episodes,
                episode_duration_s=spec.episode_duration_s,
                seed=spec.seed,
                config=training_config(
                    platform, spec.episode_duration_s, spec.seed, spec.config_overrides
                ),
            )
            return AgentArtifact.capture(
                spec, governor.agent, [asdict(r) for r in results]
            )
    finally:
        metrics().inc("train.artifact_s", monotonic_now() - started)
        flush_task_metrics()


class ArtifactStore(EntryStore):
    """Fingerprint-keyed store of trained agents, in memory and on disk.

    With a ``directory`` the store persists each artifact to
    ``<fingerprint>.agent.json`` and re-runs of the same sweep (or other
    sweeps sharing a training spec) load instead of retrain; without one it
    de-duplicates within the process only.  ``trained_count`` /
    ``reused_count`` expose how much training a sweep actually performed.
    :class:`~repro.experiments.federated.FleetStore` is this store over
    fleet artifacts.

    The shard merge compares same-fingerprint entries whole (the default
    ``canonical_entry``): training is a pure function of the spec end to
    end -- even the ``training_time_s`` diagnostics accumulate *simulated*
    seconds, not wall clock -- so two shards that trained the same
    fingerprint must agree on every field of the parsed document.
    """

    ENTRY_SUFFIX = ".agent.json"
    #: The artifact class of the entries; its ``from_document`` decodes and
    #: integrity-checks one stored document.
    ARTIFACT: Type[StoredArtifact] = AgentArtifact

    def __init__(self, directory: Optional[str] = None) -> None:
        super().__init__(directory)
        self._memory: Dict[str, StoredArtifact] = {}
        self.trained_count = 0
        self.reused_count = 0

    def load(self, spec: ArtifactSpec) -> Optional[StoredArtifact]:
        """Return the stored artifact for ``spec``, or ``None`` on a miss.

        A corrupt entry (a torn copy on a non-atomic filesystem) is
        quarantined as ``<path>.bad`` and treated as a miss, so one bad file
        retrains once instead of raising mid-sweep.  A parseable entry whose
        fingerprint does not match is left in place: that is a foreign or
        stale-format file, not corruption.
        """
        fingerprint = spec.fingerprint()
        artifact = self._memory.get(fingerprint)
        if artifact is None:
            artifact = self.load_entry(fingerprint, self.ARTIFACT.from_document)
            if artifact is None or artifact.fingerprint != fingerprint:
                return None
            self._memory[fingerprint] = artifact
        return artifact

    def store(self, artifact: StoredArtifact) -> None:
        """Keep an artifact in memory and, when backed by a directory, on disk."""
        self._memory[artifact.fingerprint] = artifact
        self.write_entry(artifact.fingerprint, artifact.to_dict())

    def resolve(self, spec: ArtifactSpec) -> Optional[StoredArtifact]:
        """:meth:`load` that also counts the hit as a reuse.

        The single accounting point for "this spec did not need training";
        the sweep runner and inline fleet training both go through it.
        """
        artifact = self.load(spec)
        if artifact is not None:
            self.reused_count += 1
        return artifact

    def accept(self, artifact: StoredArtifact) -> None:
        """Store a freshly trained artifact and count the training."""
        self.store(artifact)
        self.trained_count += 1

    def entries(self) -> List[StoredArtifact]:
        """Every stored artifact (memory plus directory), sorted by fingerprint."""
        by_fingerprint = dict(self._memory)
        for fingerprint in self.fingerprints():
            if fingerprint not in by_fingerprint:
                artifact, _ = self.read_entry(fingerprint, self.ARTIFACT.from_document)
                if artifact is not None:
                    by_fingerprint[fingerprint] = artifact
        return [by_fingerprint[key] for key in sorted(by_fingerprint)]
