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
* :class:`ArtifactStore` mirrors the runner's ``ResultCache``: a
  fingerprint-keyed store of trained artifacts (in memory, optionally
  backed by a directory).  The sweep runner trains each distinct spec once
  and serves every later request from the store.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from repro.core.agent import AgentConfig
from repro.core.artifact import AgentArtifact, TrainingSpec
from repro.core.persistence import list_entry_paths, quarantine_entry
from repro.core.governor import NextGovernor
from repro.obs.metrics import metrics
from repro.obs.trace import flush_task_metrics, maybe_span
from repro.reliability.clock import monotonic_now
from repro.reliability.faults import SITE_TRAIN_ARTIFACT, fault_point
from repro.sim.config import SimulationConfig
from repro.sim.experiment import train_next_on_apps
from repro.soc.platform import make_platform


def train_artifact(
    spec: TrainingSpec,
    agent_config: Optional[AgentConfig] = None,
    attempt: int = 0,
) -> AgentArtifact:
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
            fingerprint=spec.fingerprint(agent_config),
            label=spec.label(),
            attempt=attempt,
        ):
            fault_point(SITE_TRAIN_ARTIFACT, spec.fingerprint(agent_config), attempt)
            platform = make_platform(spec.platform)
            overrides = dict(spec.config_overrides)
            simulation_config = None
            if overrides:
                # Train under the spec's environment overrides (the per-episode
                # seed is re-derived by train_next_governor).
                simulation_config = SimulationConfig(
                    refresh_hz=platform.display_refresh_hz,
                    duration_s=spec.episode_duration_s,
                    seed=spec.seed,
                    **overrides,
                )
            governor = NextGovernor(config=agent_config, seed=spec.seed)
            results = train_next_on_apps(
                governor,
                spec.apps,
                platform=platform,
                episodes=spec.episodes,
                episode_duration_s=spec.episode_duration_s,
                seed=spec.seed,
                config=simulation_config,
            )
            return AgentArtifact.capture(
                spec, governor.agent, [asdict(r) for r in results]
            )
    finally:
        metrics().inc("train.artifact_s", monotonic_now() - started)
        flush_task_metrics()


class ArtifactStore:
    """Fingerprint-keyed store of trained agents, mirroring ``ResultCache``.

    With a ``directory`` the store persists each artifact to
    ``<fingerprint>.agent.json`` and re-runs of the same sweep (or other
    sweeps sharing a training spec) load instead of retrain; without one it
    de-duplicates within the process only.  ``trained_count`` /
    ``reused_count`` expose how much training a sweep actually performed.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        # The directory is created lazily on the first store(), so read-only
        # uses (cache lookups, --list-artifacts) never create paths.
        self.directory = directory
        self._memory: Dict[str, AgentArtifact] = {}
        self.trained_count = 0
        self.reused_count = 0

    def _path(self, fingerprint: str) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{fingerprint}.agent.json")

    # -- access -------------------------------------------------------------------------

    def load(
        self, spec: TrainingSpec, agent_config: Optional[AgentConfig] = None
    ) -> Optional[AgentArtifact]:
        """Return the stored artifact for ``spec``, or ``None`` on a miss.

        An unparseable entry (a torn copy on a non-atomic filesystem) is
        quarantined as ``<path>.bad`` and treated as a miss, so one bad file
        retrains one agent instead of raising mid-sweep -- the same
        hardening the runner's ``ResultCache`` applies to cell entries.  A
        parseable entry whose fingerprint does not match is left in place:
        that is a foreign or stale-format file, not corruption.
        """
        fingerprint = spec.fingerprint(agent_config)
        artifact = self._memory.get(fingerprint)
        if artifact is not None:
            return artifact
        path = self._path(fingerprint)
        if path is None or not os.path.exists(path):
            return None
        try:
            artifact = AgentArtifact.load(path)
        except (OSError, ValueError, KeyError, TypeError):
            quarantine_entry(path)
            return None  # corrupt entry: treat as a miss and retrain
        if artifact.fingerprint != fingerprint:
            return None
        self._memory[fingerprint] = artifact
        return artifact

    def store(self, artifact: AgentArtifact) -> None:
        """Keep an artifact in memory and, when backed by a directory, on disk."""
        self._memory[artifact.fingerprint] = artifact
        path = self._path(artifact.fingerprint)
        if path is not None:
            artifact.save(path)

    def resolve(
        self, spec: TrainingSpec, agent_config: Optional[AgentConfig] = None
    ) -> Optional[AgentArtifact]:
        """:meth:`load` that also counts the hit as a reuse.

        The single accounting point for "this spec did not need training";
        the sweep runner and inline fleet training both go through it.
        """
        artifact = self.load(spec, agent_config)
        if artifact is not None:
            self.reused_count += 1
        return artifact

    def accept(self, artifact: AgentArtifact) -> None:
        """Store a freshly trained artifact and count the training."""
        self.store(artifact)
        self.trained_count += 1

    # -- merge support (used by repro.experiments.distributed) -------------------------

    #: Filename suffix of agent-artifact entries in the shared directory.
    ENTRY_SUFFIX = ".agent.json"

    def entry_paths(self) -> List[str]:
        """Paths of every artifact entry in the store directory, sorted by name."""
        return list_entry_paths(self.directory, self.ENTRY_SUFFIX)

    @staticmethod
    def canonical_entry(data: Dict[str, Any]) -> Dict[str, Any]:
        """The content identity of one artifact entry: the parsed document.

        Training is a pure function of the spec end to end -- even the
        ``training_time_s`` diagnostics accumulate *simulated* seconds, not
        wall clock -- so two shards that trained the same fingerprint must
        agree on every field of the parsed document.  The shard merge engine
        compares artifacts through this hook: honest duplicates merge
        cleanly, any divergence fails loudly.
        """
        return data

    def entries(self) -> List[AgentArtifact]:
        """Every stored artifact (memory plus directory), sorted by fingerprint."""
        by_fingerprint = dict(self._memory)
        for path in self.entry_paths():
            fingerprint = os.path.basename(path)[: -len(self.ENTRY_SUFFIX)]
            if fingerprint in by_fingerprint:
                continue
            try:
                by_fingerprint[fingerprint] = AgentArtifact.load(path)
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return [by_fingerprint[key] for key in sorted(by_fingerprint)]
