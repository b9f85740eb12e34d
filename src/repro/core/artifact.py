"""Trained-agent artifacts: portable, fingerprinted Next agent snapshots.

Section V of the paper evaluates Next only "when it was fully trained on the
respective applications", and Section IV-B trains once per application and
stores the resulting action values.  The sweep harness reproduces that
protocol by splitting training from evaluation: a :class:`TrainingSpec`
pre-registers *how* an agent is trained (which apps, on which platform, with
which episode budget and seed), :class:`AgentArtifact` wraps the fully
serialised :class:`~repro.core.agent.NextAgent` that training produced, and
the artifact's content fingerprint -- derived from the spec plus the agent
configuration -- keys the on-disk store in
:mod:`repro.experiments.artifacts` so each distinct spec is trained exactly
once and every evaluation cell loads the same frozen policy.

This is the same artifact-exchange pattern the cloud / federated back-ends
of Section IV-C rely on: the thing that moves between trainer and evaluator
is a self-contained JSON document, never a live Python object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.agent import AgentConfig, NextAgent
from repro.core.governor import NextGovernor
from repro.core.persistence import atomic_write_json, read_json_object
from repro.core.seeding import canonical_fingerprint

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "AgentArtifact",
    "TrainingSpec",
]

#: Bumped whenever the artifact layout or training semantics change, so a
#: stale on-disk artifact can never be mistaken for a current one.
ARTIFACT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainingSpec:
    """Pre-registered description of one agent-training run.

    Attributes
    ----------
    apps:
        Applications to train on, in order (each gets its own Q-table).
    platform:
        Platform registry name the training sessions run on.
    episodes:
        Per-application episode budget.
    episode_duration_s:
        Length of one training episode.
    seed:
        Base training seed; per-app and per-episode seeds derive from it.
    config_overrides:
        Extra :class:`~repro.sim.config.SimulationConfig` keyword arguments
        applied to every training episode.  A sweep threads its matrix-wide
        overrides in here so the agent trains in the same simulated
        environment (e.g. warm-start temperature) its evaluation cells run
        in.
    """

    apps: Tuple[str, ...]
    platform: str = "exynos9810"
    episodes: int = 6
    episode_duration_s: float = 60.0
    seed: int = 0
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("a training spec needs at least one app")
        if len(set(self.apps)) != len(self.apps):
            raise ValueError("training apps must be unique")
        if self.episodes < 1:
            raise ValueError("episodes must be at least 1")
        if self.episode_duration_s <= 0:
            raise ValueError("episode_duration_s must be positive")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "apps": list(self.apps),
            "platform": self.platform,
            "episodes": self.episodes,
            "episode_duration_s": self.episode_duration_s,
            "seed": self.seed,
            "config_overrides": dict(self.config_overrides),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrainingSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            apps=tuple(data["apps"]),
            platform=data.get("platform", "exynos9810"),
            episodes=int(data.get("episodes", 6)),
            episode_duration_s=float(data.get("episode_duration_s", 60.0)),
            seed=int(data.get("seed", 0)),
            config_overrides=tuple(
                sorted(dict(data.get("config_overrides", {})).items())
            ),
        )

    def fingerprint(self, agent_config: Optional[AgentConfig] = None) -> str:
        """Content hash of (spec, agent config): the artifact-store key.

        Two specs that would train a byte-identical agent share a
        fingerprint; anything that changes the trained policy -- app list or
        order, platform, episode budget, training seed, simulation-config
        overrides, or any agent hyper-parameter -- changes it.
        """
        payload = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "spec": self.to_dict(),
            "agent_config": (agent_config or AgentConfig()).to_dict(),
        }
        return canonical_fingerprint(payload)

    def label(self) -> str:
        """Short human-readable identifier for progress lines."""
        return (
            f"{'+'.join(self.apps)}/{self.platform}"
            f"/e{self.episodes}x{self.episode_duration_s:g}s/s{self.seed}"
        )


@dataclass
class AgentArtifact:
    """A fully trained agent, frozen into a JSON-round-trippable document."""

    spec: TrainingSpec
    agent_state: Dict[str, Any]
    training_results: List[Dict[str, Any]] = field(default_factory=list)
    fingerprint: str = ""
    schema_version: int = ARTIFACT_SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        spec: TrainingSpec,
        agent: NextAgent,
        training_results: Sequence[Mapping[str, Any]] = (),
    ) -> "AgentArtifact":
        """Snapshot a trained agent under ``spec``.

        The snapshot is normalised through one JSON round-trip immediately,
        so an artifact held in memory is byte-for-byte the artifact a store
        would serve back from disk -- in-memory and cached evaluation paths
        cannot diverge.
        """
        artifact = cls(
            spec=spec,
            agent_state=agent.to_dict(),
            training_results=[dict(result) for result in training_results],
            fingerprint=spec.fingerprint(agent.config),
        )
        return cls.from_dict(json.loads(json.dumps(artifact.to_dict())))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "spec": self.spec.to_dict(),
            "agent_state": self.agent_state,
            "training_results": self.training_results,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AgentArtifact":
        """Rebuild an artifact from :meth:`to_dict` output."""
        version = int(data.get("schema_version", -1))
        if version != ARTIFACT_SCHEMA_VERSION:
            raise ValueError(
                f"artifact schema version {version} does not match the current "
                f"version {ARTIFACT_SCHEMA_VERSION}"
            )
        return cls(
            spec=TrainingSpec.from_dict(data["spec"]),
            agent_state=dict(data["agent_state"]),
            training_results=[dict(entry) for entry in data.get("training_results", ())],
            fingerprint=data.get("fingerprint", ""),
            schema_version=version,
        )

    # -- persistence --------------------------------------------------------------------

    def save(self, path: str) -> str:
        """Atomically write the artifact as JSON; returns ``path``."""
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "AgentArtifact":
        """Load an artifact written by :meth:`save`; see :meth:`from_document`."""
        return cls.from_document(read_json_object(path))

    @classmethod
    def from_document(cls, data: Mapping[str, Any]) -> "AgentArtifact":
        """Rebuild a stored artifact and check it against its own content.

        Raises ``ValueError`` when the document does not round-trip to a
        schema-compatible artifact whose stored fingerprint matches a
        recomputation from its own spec and agent configuration (i.e. the
        content was edited or belongs to an older scheme).
        """
        artifact = cls.from_dict(data)
        expected = artifact.spec.fingerprint(
            AgentConfig.from_dict(artifact.agent_state["config"])
        )
        if artifact.fingerprint != expected:
            raise ValueError(
                f"artifact fingerprint {artifact.fingerprint!r} does not match "
                f"its content ({expected!r})"
            )
        return artifact

    # -- evaluation ---------------------------------------------------------------------

    def build_agent(self) -> NextAgent:
        """Materialise the trained agent (a fresh instance on every call)."""
        return NextAgent.from_dict(self.agent_state)

    def build_governor(self) -> NextGovernor:
        """A Next governor running the trained agent greedily.

        Exploration and learning are off (``training=False``), matching the
        paper's fully-trained evaluation protocol.
        """
        return NextGovernor(agent=self.build_agent(), training=False)
