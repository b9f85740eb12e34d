"""Offline (cloud) training and federated aggregation of Q-tables.

Section IV-C sketches two extensions to on-device training:

* *training in the cloud*: the device streams its training data to a server
  (the paper uses a 16-core Xeon E7-8860 v3), which performs the Q-learning
  updates much faster and ships the resulting action-values back, at the cost
  of up to 4 s of round-trip communication overhead, and
* *federated learning*: many devices of the same model train locally and a
  server aggregates their tables so each device benefits from the fleet's
  experience.

The reproduction cannot talk to a real cloud, so :class:`CloudTrainer` models
the wall-clock effect (a speed-up factor plus a communication overhead, the
two quantities Fig. 6 compares) while :class:`FederatedAggregator` implements
the actual table aggregation, which is pure data manipulation and therefore
fully faithful.

On top of those two primitives this module defines the *fleet* data model
used by the federated sweep pipeline in :mod:`repro.experiments.federated`:

* :class:`FleetSpec` pre-registers one federated training run -- N virtual
  devices, each with its own interaction mix (derived seeds and per-device
  app rotation), trained for R rounds with aggregation in between,
* :class:`RoundReport` records the per-round convergence diagnostics, and
* :class:`FleetArtifact` freezes the whole fleet -- the merged greedy agent
  plus every device's post-training state -- into a fingerprinted JSON
  document, so a federated run is shippable and resumable exactly like a
  single-agent :class:`~repro.core.artifact.AgentArtifact`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.agent import AgentConfig, NextAgent
from repro.core.artifact import TrainingSpec
from repro.core.persistence import atomic_write_json, read_json_object
from repro.core.governor import NextGovernor
from repro.core.qtable import QTable
from repro.core.seeding import canonical_fingerprint, derive_seed


@dataclass(frozen=True)
class CloudTrainingConfig:
    """Wall-clock model of off-device training.

    Attributes
    ----------
    speedup_factor:
        How much faster the cloud performs the same number of training
        updates than the device.  The paper's Fig. 6 shows roughly a 4-10x
        gap between its online and cloud series; the default of 7 sits in
        the middle of that range.
    communication_overhead_s:
        Round-trip overhead for shipping the training data up and the learned
        action-values back (the paper reports a maximum of 4 s).
    """

    speedup_factor: float = 7.0
    communication_overhead_s: float = 4.0

    def __post_init__(self) -> None:
        if self.speedup_factor <= 0:
            raise ValueError("speedup_factor must be positive")
        if self.communication_overhead_s < 0:
            raise ValueError("communication_overhead_s must be non-negative")


class CloudTrainer:
    """Estimates cloud training time from on-device training measurements."""

    def __init__(self, config: Optional[CloudTrainingConfig] = None) -> None:
        self.config = config or CloudTrainingConfig()

    def cloud_time_s(self, device_training_time_s: float) -> float:
        """Wall-clock time the same training would take in the cloud."""
        if device_training_time_s < 0:
            raise ValueError("device_training_time_s must be non-negative")
        return (
            device_training_time_s / self.config.speedup_factor
            + self.config.communication_overhead_s
        )

    def speedup(self, device_training_time_s: float) -> float:
        """Effective speed-up including the communication overhead."""
        cloud = self.cloud_time_s(device_training_time_s)
        if cloud <= 0:
            return float("inf")
        return device_training_time_s / cloud


class FederatedAggregator:
    """Aggregates per-device Q-tables into a fleet model (FedAvg style)."""

    def __init__(self, action_count: int) -> None:
        if action_count < 1:
            raise ValueError("action_count must be at least 1")
        self.action_count = action_count

    def aggregate(self, tables: Sequence[QTable]) -> QTable:
        """Visit-weighted average of the given tables.

        States observed by several devices are averaged with weights
        proportional to how often each device updated them; states observed
        by a single device are copied as-is.  The result is a fresh table
        that can be distributed back to every device.

        The merged table carries each state's *pooled* visit mass (the sum
        of the per-device visit counts), so aggregation composes: feeding a
        merged table into a later round weights it by the fleet experience
        it represents, not by a fresh-write count.
        """
        if not tables:
            raise ValueError("aggregate needs at least one table")
        for table in tables:
            if table.action_count != self.action_count:
                raise ValueError("all tables must share the aggregator's action count")

        result = QTable(action_count=self.action_count, initial_q=tables[0].initial_q)
        # Collect weighted sums per state.  The averaging weight floors at 1
        # so a never-updated row still contributes its values; the pooled
        # visit count sums the *actual* per-device visits.
        sums: Dict = {}
        weights: Dict = {}
        visit_totals: Dict = {}
        for table in tables:
            for state in table.states():
                visits = table.visits(state)
                weight = max(1, visits)
                values = table.values(state)
                if state not in sums:
                    sums[state] = [0.0] * self.action_count
                    weights[state] = 0
                    visit_totals[state] = 0
                for index, value in enumerate(values):
                    sums[state][index] += value * weight
                weights[state] += weight
                visit_totals[state] += visits
        for state, value_sums in sums.items():
            weight = weights[state]
            result.set_row(
                state,
                [value_sum / weight for value_sum in value_sums],
                visit_totals[state],
            )
        return result

    def distribute(self, aggregate: QTable, device_count: int) -> List[QTable]:
        """Per-device replicas of the aggregated table.

        Every replica carries the full merged *values*; each state's pooled
        visit mass is **split** across the replicas (deterministically, the
        remainder going to the lowest-indexed devices).  Handing every
        device the full mass instead would make the next round's
        visit-weighted aggregation count the fleet's prior experience
        ``device_count`` times over -- inflating stale knowledge
        ~``device_count``-fold per round and drowning out fresh local
        updates.  Splitting makes distribute/aggregate conserve visit mass,
        so multi-round federated training stays correctly weighted.
        """
        if device_count < 1:
            raise ValueError("device_count must be positive")
        replicas = []
        for device in range(device_count):
            replica = QTable(
                action_count=aggregate.action_count, initial_q=aggregate.initial_q
            )
            for state in aggregate.states():
                visits = aggregate.visits(state)
                share = visits // device_count + (
                    1 if device < visits % device_count else 0
                )
                replica.set_row(state, aggregate.values(state), share)
            replicas.append(replica)
        return replicas


# ----------------------------------------------------------------------------------
# Fleet data model
# ----------------------------------------------------------------------------------

#: Bumped whenever the fleet-artifact layout or federated training semantics
#: change, so a stale on-disk fleet can never be mistaken for a current one.
FLEET_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FleetSpec:
    """Pre-registered description of one federated device-fleet training run.

    Attributes
    ----------
    apps:
        Applications the fleet trains on.  Every device covers every app --
        heterogeneity comes from per-device seeds and app *order* (device
        ``d`` trains the list rotated by ``d``), so each device experiences
        its own interaction mix while the merged tables still cover the full
        app set.
    devices:
        Number of virtual devices in the fleet.
    rounds:
        Federated rounds.  Each round is one local-training phase on every
        device followed by a server-side aggregation; from round 1 on the
        devices continue training from the previously merged tables.
    platform:
        Platform registry name every device simulates.
    episodes / episode_duration_s:
        Per-app local training budget of one device in one round.
    fleet_seed:
        Base seed; every (device, round) training seed derives from it via
        :func:`repro.core.seeding.derive_seed`, so two fleets with the same
        spec are bit-identical and fleets with different seeds are
        decoupled.
    config_overrides:
        Extra :class:`~repro.sim.config.SimulationConfig` keyword arguments
        applied to every training episode (threaded in from the sweep's
        matrix so devices train in the evaluation environment).
    device_intensities:
        Optional per-device interaction-intensity weights (non-IID fleets).
        Empty means uniform (every device trains ``episodes`` episodes);
        otherwise entry ``d`` scales device ``d``'s per-app episode budget:
        heavier users contribute more local experience per round (see
        :meth:`device_episodes`).  Visit-weighted aggregation then weighs
        their tables accordingly.
    device_app_mix:
        Optional explicit per-device app lists (non-IID app coverage).
        Empty means every device covers every app via the rotation above;
        otherwise device ``d`` trains exactly ``device_app_mix[d]`` (each a
        non-empty subset of ``apps``, and every app must be covered by at
        least one device so the merged tables span the full app set).
    """

    apps: Tuple[str, ...]
    devices: int = 4
    rounds: int = 2
    platform: str = "exynos9810"
    episodes: int = 2
    episode_duration_s: float = 60.0
    fleet_seed: int = 0
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    device_intensities: Tuple[float, ...] = ()
    device_app_mix: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("a fleet spec needs at least one app")
        if len(set(self.apps)) != len(self.apps):
            raise ValueError("fleet apps must be unique")
        if self.devices < 1:
            raise ValueError("devices must be at least 1")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.episodes < 1:
            raise ValueError("episodes must be at least 1")
        if self.episode_duration_s <= 0:
            raise ValueError("episode_duration_s must be positive")
        if self.device_intensities:
            if len(self.device_intensities) != self.devices:
                raise ValueError(
                    "device_intensities must list one weight per device"
                )
            for intensity in self.device_intensities:
                if not intensity > 0:
                    raise ValueError("device intensities must be positive")
        if self.device_app_mix:
            if len(self.device_app_mix) != self.devices:
                raise ValueError(
                    "device_app_mix must list one app tuple per device"
                )
            app_set = set(self.apps)
            covered = set()
            for mix in self.device_app_mix:
                if not mix:
                    raise ValueError("every device needs at least one app")
                if len(set(mix)) != len(mix):
                    raise ValueError("a device's app mix must be unique")
                unknown = set(mix) - app_set
                if unknown:
                    raise ValueError(
                        f"device app mix names apps outside the fleet: "
                        f"{sorted(unknown)}"
                    )
                covered.update(mix)
            if covered != app_set:
                raise ValueError(
                    "device_app_mix must cover every fleet app at least once"
                )

    # -- per-device derivation ----------------------------------------------------------

    def device_apps(self, device: int) -> Tuple[str, ...]:
        """Device ``device``'s training-app order.

        With an explicit ``device_app_mix`` this is the device's declared
        mix; otherwise the fleet list rotated by the device index.
        """
        if not 0 <= device < self.devices:
            raise ValueError(f"device must be in [0, {self.devices})")
        if self.device_app_mix:
            return tuple(self.device_app_mix[device])
        offset = device % len(self.apps)
        return self.apps[offset:] + self.apps[:offset]

    def device_intensity(self, device: int) -> float:
        """Device ``device``'s interaction-intensity weight (1.0 = uniform)."""
        if not 0 <= device < self.devices:
            raise ValueError(f"device must be in [0, {self.devices})")
        if not self.device_intensities:
            return 1.0
        return self.device_intensities[device]

    def device_episodes(self, device: int) -> int:
        """Per-app episode budget of one device, intensity-weighted.

        ``ceil(episodes * intensity)`` with a floor of one episode, so a
        uniform fleet reproduces the shared ``episodes`` budget exactly and
        heavier users contribute proportionally more visit mass.
        """
        intensity = self.device_intensity(device)
        if intensity == 1.0:
            return self.episodes
        return max(1, math.ceil(self.episodes * intensity - 1e-12))

    def device_seed(self, device: int, round_index: int) -> int:
        """Stable training seed of one (device, round) local-training phase."""
        return derive_seed("fleet", self.fleet_seed, device, round_index)

    def device_training_spec(self, device: int) -> TrainingSpec:
        """The round-0 :class:`TrainingSpec` of one device.

        Round 0 starts from a blank agent, so it is expressible as an
        ordinary training spec -- which is exactly what lets the federated
        pipeline reuse the artifact store: per-device initial training is
        cached by fingerprint and shared across fleets that overlap.
        """
        return TrainingSpec(
            apps=self.device_apps(device),
            platform=self.platform,
            episodes=self.device_episodes(device),
            episode_duration_s=self.episode_duration_s,
            seed=self.device_seed(device, 0),
            config_overrides=self.config_overrides,
        )

    # -- identity -----------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form.

        The non-IID fields are emitted only when set: a uniform fleet's
        payload is byte-identical to the pre-heterogeneity layout, so every
        existing fingerprint, lineage and stored artifact stays valid.
        """
        payload = {
            "apps": list(self.apps),
            "devices": self.devices,
            "rounds": self.rounds,
            "platform": self.platform,
            "episodes": self.episodes,
            "episode_duration_s": self.episode_duration_s,
            "fleet_seed": self.fleet_seed,
            "config_overrides": dict(self.config_overrides),
        }
        if self.device_intensities:
            payload["device_intensities"] = list(self.device_intensities)
        if self.device_app_mix:
            payload["device_app_mix"] = [list(mix) for mix in self.device_app_mix]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            apps=tuple(data["apps"]),
            devices=int(data.get("devices", 4)),
            rounds=int(data.get("rounds", 2)),
            platform=data.get("platform", "exynos9810"),
            episodes=int(data.get("episodes", 2)),
            episode_duration_s=float(data.get("episode_duration_s", 60.0)),
            fleet_seed=int(data.get("fleet_seed", 0)),
            config_overrides=tuple(
                sorted(dict(data.get("config_overrides", {})).items())
            ),
            device_intensities=tuple(
                float(value) for value in data.get("device_intensities", ())
            ),
            device_app_mix=tuple(
                tuple(mix) for mix in data.get("device_app_mix", ())
            ),
        )

    def _fingerprint_payload(
        self, agent_config: Optional[AgentConfig], with_rounds: bool
    ) -> str:
        payload = {
            "schema_version": FLEET_SCHEMA_VERSION,
            "spec": self.to_dict(),
            "agent_config": (agent_config or AgentConfig()).to_dict(),
        }
        if not with_rounds:
            payload["spec"].pop("rounds")
        return canonical_fingerprint(payload)

    def fingerprint(self, agent_config: Optional[AgentConfig] = None) -> str:
        """Content hash of (spec, agent config): the fleet-store key."""
        return self._fingerprint_payload(agent_config, with_rounds=True)

    def lineage(self, agent_config: Optional[AgentConfig] = None) -> str:
        """Content hash of everything *except* the round count.

        Two specs that differ only in ``rounds`` share a lineage: federated
        training is an incremental process, so an artifact trained for fewer
        rounds of the same lineage is a valid resume point for a deeper run.
        """
        return self._fingerprint_payload(agent_config, with_rounds=False)

    def label(self) -> str:
        """Short human-readable identifier for progress lines."""
        non_iid = "/niid" if (self.device_intensities or self.device_app_mix) else ""
        return (
            f"{'+'.join(self.apps)}/{self.platform}/d{self.devices}xr{self.rounds}"
            f"/e{self.episodes}x{self.episode_duration_s:g}s/s{self.fleet_seed}"
            f"{non_iid}"
        )


@dataclass(frozen=True)
class RoundReport:
    """Convergence diagnostics of one federated round.

    Attributes
    ----------
    round_index:
        Which round this report describes (0-based).
    device_td_errors:
        Each device's mean absolute TD error over its recent update window
        at the end of the round's local training.
    merged_states:
        Total distinct states across the merged per-app tables.
    merged_visits:
        Pooled visit mass across the merged tables.
    mean_abs_delta:
        Mean absolute difference between the per-device Q-values and the
        merged values, over every (device, state, action) the devices
        visited -- the fleet's disagreement, which should shrink as rounds
        progress.
    """

    round_index: int
    device_td_errors: Tuple[float, ...]
    merged_states: int
    merged_visits: int
    mean_abs_delta: float

    @property
    def mean_td_error(self) -> float:
        """Fleet-mean TD error at the end of this round."""
        if not self.device_td_errors:
            return float("inf")
        return sum(self.device_td_errors) / len(self.device_td_errors)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "round_index": self.round_index,
            "device_td_errors": list(self.device_td_errors),
            "merged_states": self.merged_states,
            "merged_visits": self.merged_visits,
            "mean_abs_delta": self.mean_abs_delta,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoundReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            round_index=int(data["round_index"]),
            device_td_errors=tuple(float(e) for e in data["device_td_errors"]),
            merged_states=int(data["merged_states"]),
            merged_visits=int(data["merged_visits"]),
            mean_abs_delta=float(data["mean_abs_delta"]),
        )


@dataclass
class FleetArtifact:
    """A fully trained device fleet, frozen into a JSON document.

    Carries the merged greedy agent (what evaluation cells run), every
    device's post-training state (what a deeper-round run resumes from) and
    the per-round convergence reports.  ``rounds_completed`` always equals
    ``spec.rounds``; resuming a lineage to more rounds produces a *new*
    artifact under the deeper spec's fingerprint.
    """

    spec: FleetSpec
    agent_state: Dict[str, Any]
    device_states: List[Dict[str, Any]] = field(default_factory=list)
    round_reports: List[RoundReport] = field(default_factory=list)
    rounds_completed: int = 0
    fingerprint: str = ""
    lineage: str = ""
    schema_version: int = FLEET_SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        spec: FleetSpec,
        agent: NextAgent,
        device_states: Sequence[Mapping[str, Any]],
        round_reports: Sequence[RoundReport],
    ) -> "FleetArtifact":
        """Snapshot a trained fleet under ``spec``.

        Normalised through one JSON round-trip immediately (exactly like
        :meth:`AgentArtifact.capture`), so in-memory and disk-served fleets
        cannot diverge.
        """
        artifact = cls(
            spec=spec,
            agent_state=agent.to_dict(),
            device_states=[dict(state) for state in device_states],
            round_reports=list(round_reports),
            rounds_completed=spec.rounds,
            fingerprint=spec.fingerprint(agent.config),
            lineage=spec.lineage(agent.config),
        )
        return cls.from_dict(json.loads(json.dumps(artifact.to_dict())))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "lineage": self.lineage,
            "rounds_completed": self.rounds_completed,
            "spec": self.spec.to_dict(),
            "agent_state": self.agent_state,
            "device_states": self.device_states,
            "round_reports": [report.to_dict() for report in self.round_reports],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetArtifact":
        """Rebuild a fleet artifact from :meth:`to_dict` output."""
        version = int(data.get("schema_version", -1))
        if version != FLEET_SCHEMA_VERSION:
            raise ValueError(
                f"fleet schema version {version} does not match the current "
                f"version {FLEET_SCHEMA_VERSION}"
            )
        return cls(
            spec=FleetSpec.from_dict(data["spec"]),
            agent_state=dict(data["agent_state"]),
            device_states=[dict(state) for state in data.get("device_states", ())],
            round_reports=[
                RoundReport.from_dict(entry) for entry in data.get("round_reports", ())
            ],
            rounds_completed=int(data.get("rounds_completed", 0)),
            fingerprint=data.get("fingerprint", ""),
            lineage=data.get("lineage", ""),
            schema_version=version,
        )

    # -- persistence --------------------------------------------------------------------

    def save(self, path: str) -> str:
        """Atomically write the fleet artifact as JSON; returns ``path``."""
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "FleetArtifact":
        """Load and check a fleet written by :meth:`save`; see :meth:`from_document`."""
        return cls.from_document(read_json_object(path))

    @classmethod
    def from_document(cls, data: Mapping[str, Any]) -> "FleetArtifact":
        """Rebuild a stored fleet artifact and check it against its own content.

        Raises ``ValueError`` when the document does not round-trip to a
        schema-compatible artifact whose stored fingerprint and lineage
        match a recomputation from its own spec and agent configuration.
        """
        artifact = cls.from_dict(data)
        agent_config = AgentConfig.from_dict(artifact.agent_state["config"])
        expected = artifact.spec.fingerprint(agent_config)
        expected_lineage = artifact.spec.lineage(agent_config)
        if artifact.fingerprint != expected or artifact.lineage != expected_lineage:
            raise ValueError(
                f"fleet fingerprint {artifact.fingerprint!r} does not match "
                f"its content ({expected!r})"
            )
        if artifact.rounds_completed != artifact.spec.rounds:
            raise ValueError(
                f"fleet artifact completed {artifact.rounds_completed} rounds "
                f"but its spec pre-registers {artifact.spec.rounds}"
            )
        if len(artifact.device_states) != artifact.spec.devices:
            raise ValueError(
                f"fleet artifact carries {len(artifact.device_states)} device "
                f"states but its spec pre-registers {artifact.spec.devices} devices"
            )
        return artifact

    # -- evaluation ---------------------------------------------------------------------

    def evaluation_only(self) -> "FleetArtifact":
        """A copy stripped to what an evaluator needs: the merged agent.

        The per-device states and round reports dominate the artifact's size
        (they scale with the fleet) but only matter for resumption and
        reporting; shipping a cell's artifact to a pool worker without them
        avoids serialising ``devices`` full agents the cell never reads.
        """
        return FleetArtifact(
            spec=self.spec,
            agent_state=self.agent_state,
            device_states=[],
            round_reports=[],
            rounds_completed=self.rounds_completed,
            fingerprint=self.fingerprint,
            lineage=self.lineage,
            schema_version=self.schema_version,
        )

    def build_agent(self) -> NextAgent:
        """Materialise the merged fleet agent (a fresh instance every call)."""
        return NextAgent.from_dict(self.agent_state)

    def build_governor(self) -> NextGovernor:
        """A Next governor running the merged fleet agent greedily."""
        return NextGovernor(agent=self.build_agent(), training=False)
