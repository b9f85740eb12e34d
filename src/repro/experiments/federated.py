"""Federated device-fleet training for the sweep harness (Section IV-C).

The paper's Next governor trains per user, but Section IV-C envisions a
cloud back-end where many devices of the same model pool their experience.
This module simulates that fleet at sweep scale:

* round 0 trains every virtual device from scratch on its own interaction
  mix.  Each device's initial training is an ordinary
  :class:`~repro.core.artifact.TrainingSpec`, so it runs through the same
  :class:`~repro.experiments.artifacts.ArtifactStore` pipeline as pretrained
  cells -- parallelised across the sweep's process pool and cached by
  fingerprint (two fleets sharing a device spec train it once),
* after every round a server-side
  :class:`~repro.core.federated.FederatedAggregator` merges the per-app
  Q-tables visit-weighted and distributes the merged tables back, and each
  following round continues *local* training from the merged tables.
  :class:`FleetBuild` is the one schedule of those rounds: it routes each
  round and hands it out as chunks, which :func:`train_round_chunk` runs
  on any executor, and
* the finished fleet freezes into a
  :class:`~repro.core.federated.FleetArtifact` -- merged greedy agent,
  per-device states and per-round convergence reports -- stored by the
  :class:`FleetStore` under the fleet fingerprint.  An artifact of the same
  *lineage* with fewer rounds is a valid resume point: deepening a fleet
  from R to R' rounds re-runs only the missing rounds and produces results
  bit-identical to training R' rounds from scratch.

Everything is a pure function of the :class:`~repro.core.federated.FleetSpec`,
so sequential, pooled and resumed runs cannot diverge -- the federated parity
tests pin that down.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.actions import ActionSpace
from repro.core.agent import AgentConfig, NextAgent
from repro.core.artifact import TrainingSpec
from repro.core.federated import (
    FederatedAggregator,
    FleetArtifact,
    FleetSpec,
    RoundReport,
)
from repro.core.governor import NextGovernor
from repro.core.qtable import QTable, QTableStore
from repro.core.seeding import derive_seed
from repro.experiments.artifacts import ArtifactStore, train_artifact
from repro.experiments.costs import (
    DEFAULT_COST_MODEL,
    Route,
    note_route,
    round_job_sim_s,
    routes_to_batch,
)
from repro.obs.trace import flush_task_metrics, maybe_span
from repro.reliability.faults import (
    SITE_TRAIN_DEVICE_BATCH,
    SITE_TRAIN_DEVICE_ROUND,
    fault_point,
)
from repro.sim.experiment import train_lanes, training_config
from repro.soc.platform import make_platform

#: Actions of the default agent config: the width of every merged table.
_ACTION_COUNT = len(ActionSpace(AgentConfig().cluster_order))


def train_device_round(
    agent_state: Dict[str, Any],
    apps: Sequence[str],
    platform: str,
    episodes: int,
    episode_duration_s: float,
    seed: int,
    config_overrides: Tuple[Tuple[str, Any], ...] = (),
    attempt: int = 0,
) -> Dict[str, Any]:
    """One device's local-training phase of a federated round.

    Trains the device as one scalar lane of the round body both routes
    share (:func:`_train_devices`) and returns its JSON-normalised
    post-training state.  A plain top-level callable over plain data:
    process pools run it like any cell, and pickling cannot change the
    result.

    ``attempt`` is the orchestrator's retry counter for this device job,
    consumed only by the fault-injection seam (keyed by the device's
    deterministic round seed, which identifies the job across runs); the
    returned state is a pure function of the other arguments.
    """
    try:
        with maybe_span("device_round", seed=seed, attempt=attempt):
            fault_point(SITE_TRAIN_DEVICE_ROUND, str(seed), attempt)
            job = (agent_state, apps, platform, episodes, episode_duration_s, seed)
            return _train_devices([(*job, config_overrides)], batched=False)[0]
    finally:
        flush_task_metrics()


def batch_kernel_available() -> bool:
    """Whether the NumPy-backed batch kernel can run in this interpreter.

    The batch kernel is a pure throughput optimisation (bit-identical
    results, pinned by the batch parity suite), so callers fall back to the
    scalar per-device path when NumPy is absent rather than failing.  It is
    asked only once the cost model has routed a group to the batch kernel
    (importing NumPy costs time and memory a scalar sweep does not need).
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def round_route(jobs: Sequence[Tuple[Any, ...]]) -> Route:
    """The cost model's route for one fleet round: each device job is a lane.

    A device lane lasts its whole local training (``apps x episodes x
    episode_duration_s``), so a non-IID round is priced by its longest
    device.  :meth:`FleetBuild.round_chunks` routes every round through
    this one function and hands a batched round's :class:`Route` to
    :func:`train_device_rounds_batched`, whose ``device_batch`` span notes
    its prices.
    """
    return DEFAULT_COST_MODEL.route(jobs[0][2], [round_job_sim_s(job) for job in jobs])


def train_device_rounds_batched(
    jobs: Sequence[Tuple[Any, ...]], route: Route, attempt: int = 0
) -> List[Dict[str, Any]]:
    """One federated round's device jobs as a single batched step loop.

    Drop-in replacement for ``[train_device_round(*job) for job in jobs]``:
    instead of N independent simulations (one pool task per device), the
    whole fleet steps in lockstep through one
    :class:`~repro.sim.batch.BatchSimulation` per training episode, which
    amortises the per-tick Python frontend across the device axis.

    Bit-identity with the scalar path is structural: both run the one
    schedule of :func:`~repro.sim.experiment.train_lanes` (seed strides,
    episode budgets, convergence drop-out), which only picks the kernel,
    and the batch kernel is bit-identical per lane (the batch parity suite
    pins the sample streams, the federated parity tests the merged agents).
    Jobs of one round share platform and overrides by construction
    (:meth:`FleetBuild.round_chunks`); episode budgets and durations may
    differ per device (intensity-weighted non-IID fleets).

    ``route`` is the round's :func:`round_route`, noted on the
    ``device_batch`` span.  ``attempt`` is the orchestrator's retry counter
    for the round, consumed only by the fault-injection seam, which is
    keyed like :func:`train_device_round`'s: by the first device's round
    seed.
    """
    if not jobs:
        return []
    try:
        with maybe_span("device_batch", devices=len(jobs), attempt=attempt) as span:
            fault_point(SITE_TRAIN_DEVICE_BATCH, str(jobs[0][5]), attempt)
            if span is not None:
                note_route(span, route)
            return _train_devices(jobs, batched=True)
    finally:
        flush_task_metrics()


def train_round_chunk(
    jobs: Sequence[Tuple[Any, ...]], route: Optional[Route], attempt: int = 0
) -> List[Dict[str, Any]]:
    """Train one chunk of a fleet round and return its device states in order.

    A chunk is what :meth:`FleetBuild.round_chunks` hands out: the whole
    round on the batch route (``route`` is then the build's
    :attr:`FleetBuild.route`), or else one device (``route`` is ``None``).
    Both fleet drivers run every chunk through this one function.
    """
    if route is not None:
        return train_device_rounds_batched(jobs, route, attempt=attempt)
    return [train_device_round(*job, attempt=attempt) for job in jobs]


def _train_devices(
    jobs: Sequence[Tuple[Any, ...]], batched: bool
) -> List[Dict[str, Any]]:
    """Span-free body of both round routes: each device job is one lane.

    Restores every device agent from its serialised state (which includes
    the merged tables the server distributed), trains it on its own app mix
    through :func:`~repro.sim.experiment.train_lanes` on the kernel
    ``batched`` picks, freezes it and returns its JSON-normalised state.
    """
    platform_name = jobs[0][2]
    config_overrides = jobs[0][6]
    for job in jobs[1:]:
        if job[2] != platform_name or job[6] != config_overrides:
            raise ValueError(
                "batched round jobs must share platform and overrides "
                "(episode budgets and durations may differ per device)"
            )
    platform = make_platform(platform_name)
    governors = [NextGovernor(agent=NextAgent.from_dict(job[0])) for job in jobs]
    train_lanes(
        [
            (
                governor,
                apps,
                episodes,
                duration_s,
                seed,
                training_config(platform, duration_s, seed, config_overrides),
            )
            for governor, (_, apps, _, episodes, duration_s, seed, _) in zip(
                governors, jobs
            )
        ],
        platform,
        batched=batched,
    )
    for governor in governors:
        governor.set_training(False)
    return [json.loads(json.dumps(governor.agent.to_dict())) for governor in governors]


def _device_stores(
    device_states: Sequence[Dict[str, Any]],
) -> List[QTableStore]:
    """Materialise every device's Q-table store once per round."""
    return [QTableStore.from_dict(state["tables"]) for state in device_states]


def _merge_tables(
    spec: FleetSpec, stores: Sequence[QTableStore]
) -> Dict[str, QTable]:
    """Server-side aggregation: one visit-weighted merged table per app."""
    aggregator = FederatedAggregator(action_count=_ACTION_COUNT)
    merged: Dict[str, QTable] = {}
    for app_name in spec.apps:
        tables = [store.table_for(app_name) for store in stores if app_name in store]
        if tables:
            merged[app_name] = aggregator.aggregate(tables)
    return merged


def _round_report(
    round_index: int,
    device_states: Sequence[Dict[str, Any]],
    stores: Sequence[QTableStore],
    merged: Dict[str, QTable],
) -> RoundReport:
    """Convergence diagnostics of one aggregation."""
    td_errors = []
    for state in device_states:
        errors = [float(error) for error in state.get("td_errors", ())]
        td_errors.append(sum(errors) / len(errors) if errors else float("inf"))
    deltas_sum = 0.0
    deltas_count = 0
    for store in stores:
        for app_name, merged_table in merged.items():
            if app_name not in store:
                continue
            table = store.table_for(app_name)
            for table_state in table.states():
                device_values = table.values(table_state)
                merged_values = merged_table.values(table_state)
                for device_value, merged_value in zip(device_values, merged_values):
                    deltas_sum += abs(device_value - merged_value)
                    deltas_count += 1
    return RoundReport(
        round_index=round_index,
        device_td_errors=tuple(td_errors),
        merged_states=sum(len(table) for table in merged.values()),
        merged_visits=sum(table.total_visits() for table in merged.values()),
        mean_abs_delta=deltas_sum / deltas_count if deltas_count else 0.0,
    )


def _distribute(
    merged: Dict[str, QTable], device_states: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Install the merged tables into every device state.

    Goes through :meth:`FederatedAggregator.distribute`, which splits each
    state's pooled visit mass across the replicas -- so the next round's
    aggregation recovers the fleet's prior experience once, not once per
    device.
    """
    aggregator = FederatedAggregator(action_count=_ACTION_COUNT)
    replicas = {
        app_name: aggregator.distribute(table, len(device_states))
        for app_name, table in merged.items()
    }
    distributed = []
    for device, state in enumerate(device_states):
        agent = NextAgent.from_dict(state)
        for app_name, per_device in replicas.items():
            agent.install_table(app_name, per_device[device])
        distributed.append(json.loads(json.dumps(agent.to_dict())))
    return distributed


def _merged_agent(spec: FleetSpec, merged: Dict[str, QTable]) -> NextAgent:
    """The fleet's evaluation agent: merged tables, greedy policy."""
    agent = NextAgent(seed=derive_seed("fleet-eval", spec.fleet_seed))
    for app_name, table in merged.items():
        agent.install_table(app_name, QTable.from_dict(table.to_dict()))
    agent.set_training(False)
    return agent


class FleetBuild:
    """The one fleet schedule: each round's device jobs, route and aggregation.

    Both fleet drivers run this schedule: the sweep runner's event loop,
    which overlaps rounds with unrelated cells and trainings, and
    :func:`train_fleet_artifact`, which runs it in-process.  A driver
    fetches round 0's device agents (the specs in :attr:`round0`) its own
    way and runs the chunks it is handed through :func:`train_round_chunk`.
    Everything else happens here: distributing the merged tables, routing
    each round through the cost model, collecting the chunks' device states
    and aggregating each completed round.  So every driver's result is
    bit-identical by construction.

    Life cycle::

        build = FleetBuild(spec, start=resume_candidate_or_None)
        if build.needs_round0:
            build.provide_round0({fp: AgentArtifact})   # stored or trained
        while not build.finished:
            for first, jobs in build.round_chunks():    # any executor, any order
                build.deliver(first, train_round_chunk(jobs, build.route))
        artifact = build.artifact()
    """

    def __init__(self, spec: FleetSpec, start: Optional[FleetArtifact] = None) -> None:
        self.spec = spec
        self.resumed = start is not None
        #: Each device's round-0 spec and its fingerprint, in device order
        #: (empty when resuming: round 0 is done).
        self.round0: List[Tuple[str, TrainingSpec]] = []
        #: The round that is open, or that :meth:`round_chunks` opens next.
        self.round_index = 0
        #: The open round's route when it runs batched, else ``None``.
        self.route: Optional[Route] = None
        self._states: Optional[List[Dict[str, Any]]] = None
        self._merged: Optional[Dict[str, QTable]] = None
        self._reports: List[RoundReport] = []
        self._buffer: Optional[List[Optional[Dict[str, Any]]]] = None
        if start is None:
            for device in range(spec.devices):
                device_spec = spec.device_training_spec(device)
                self.round0.append((device_spec.fingerprint(), device_spec))
            return
        if start.lineage != spec.lineage():
            raise ValueError(
                f"cannot resume fleet {spec.label()} from an artifact of "
                "a different lineage"
            )
        if start.rounds_completed >= spec.rounds:
            raise ValueError(
                f"resume artifact already completed {start.rounds_completed} "
                f"rounds; spec asks for {spec.rounds}"
            )
        self._states = [dict(state) for state in start.device_states]
        self._reports = list(start.round_reports)
        # Recompute the last aggregation (pure data) to distribute from.
        self._merged = _merge_tables(spec, _device_stores(self._states))
        self.round_index = start.rounds_completed

    @property
    def batched(self) -> bool:
        """Whether the open round runs on the batch route."""
        return self.route is not None

    @property
    def needs_round0(self) -> bool:
        """Whether the build still waits for its round-0 device artifacts."""
        return self._states is None

    @property
    def finished(self) -> bool:
        """Whether every pre-registered round has completed."""
        return self._states is not None and self.round_index >= self.spec.rounds

    def provide_round0(self, artifacts: Mapping[str, Any]) -> None:
        """Accept the round-0 device artifacts, keyed by spec fingerprint."""
        if not self.needs_round0:
            raise ValueError("round 0 was already provided")
        self._states = [
            dict(artifacts[fingerprint].agent_state) for fingerprint, _ in self.round0
        ]
        self._aggregate(0)
        self.round_index = 1

    def _aggregate(self, round_index: int) -> None:
        stores = _device_stores(self._states)
        self._merged = _merge_tables(self.spec, stores)
        self._reports.append(
            _round_report(round_index, self._states, stores, self._merged)
        )

    def round_chunks(self) -> List[Tuple[int, List[Tuple[Any, ...]]]]:
        """Open the next round and hand it out as ``(first device, jobs)`` chunks.

        Distributes the merged tables into one continuation job per device
        (the argument tuple of :func:`train_device_round`) and routes the
        round through the cost model (:func:`round_route`).  On the batch
        route, which sets :attr:`route`, the whole round is one chunk;
        otherwise each device is a chunk of its own.  Run each chunk through
        :func:`train_round_chunk` with :attr:`route` on any executor, in any
        order, and hand its device states to :meth:`deliver`.
        """
        if self.needs_round0:
            raise ValueError("round 0 has not been provided yet")
        if self.finished:
            raise ValueError("fleet has no rounds left to train")
        distributed = _distribute(self._merged, self._states)
        jobs = [
            (
                distributed[device],
                self.spec.device_apps(device),
                self.spec.platform,
                self.spec.device_episodes(device),
                self.spec.episode_duration_s,
                self.spec.device_seed(device, self.round_index),
                self.spec.config_overrides,
            )
            for device in range(self.spec.devices)
        ]
        route = round_route(jobs)
        batched = routes_to_batch(route, "devices", batch_kernel_available)
        self.route = route if batched else None
        self._buffer = [None] * len(jobs)
        if batched:
            return [(0, jobs)]
        return [(device, [job]) for device, job in enumerate(jobs)]

    def deliver(self, first: int, device_states: Sequence[Dict[str, Any]]) -> bool:
        """Collect one chunk's device states; finish the round with its last chunk.

        Returns whether this chunk completed the open round.
        """
        buffer = self._buffer
        if buffer is None:
            raise ValueError("no round is open")
        buffer[first : first + len(device_states)] = device_states
        if any(state is None for state in buffer):
            return False
        self.finish_round(self.round_index, buffer)
        return True

    def finish_round(
        self, round_index: int, device_states: Sequence[Dict[str, Any]]
    ) -> None:
        """Accept one round's device-ordered results and aggregate them."""
        if round_index != self.round_index:
            raise ValueError(
                f"got results for round {round_index}, expected {self.round_index}"
            )
        if len(device_states) != self.spec.devices:
            raise ValueError(
                f"got {len(device_states)} device results, expected "
                f"{self.spec.devices}"
            )
        self._buffer = None
        self._states = [dict(state) for state in device_states]
        self._aggregate(round_index)
        self.round_index = round_index + 1

    def artifact(self) -> FleetArtifact:
        """Freeze the finished fleet (raises while rounds remain)."""
        if not self.finished:
            raise ValueError("fleet has rounds left to train")
        return FleetArtifact.capture(
            self.spec,
            _merged_agent(self.spec, self._merged),
            self._states,
            self._reports,
        )


def train_fleet_artifact(
    spec: FleetSpec,
    artifacts: Optional[ArtifactStore] = None,
    start: Optional[FleetArtifact] = None,
) -> FleetArtifact:
    """Train one federated fleet per ``spec`` in-process and freeze it.

    Runs the :class:`FleetBuild` schedule for callers outside the sweep
    runner, which runs the same schedule through its event loop.  Round-0
    device specs resolve through ``artifacts``: stored ones are reused,
    missing ones train and are stored.  Each round's chunks then train
    here, one after another, on the route the build picked; every route is
    bit-identical.  ``start`` resumes a same-lineage artifact with fewer
    rounds: only the missing rounds run, and the outcome equals a
    from-scratch run of the full depth.
    """
    build = FleetBuild(spec, start=start)
    store = artifacts if artifacts is not None else ArtifactStore(None)
    if build.needs_round0:
        round0: Dict[str, Any] = {}
        for fingerprint, device_spec in build.round0:
            if fingerprint in round0:
                continue
            artifact = store.resolve(device_spec)
            if artifact is None:
                artifact = train_artifact(device_spec)
                store.accept(artifact)
            round0[fingerprint] = artifact
        build.provide_round0(round0)
    while not build.finished:
        with maybe_span(
            "federated_round", round=build.round_index, devices=spec.devices
        ):
            for first, jobs in build.round_chunks():
                build.deliver(first, train_round_chunk(jobs, build.route))
    return build.artifact()


class FleetStore(ArtifactStore):
    """The :class:`ArtifactStore` of trained fleets.

    With a ``directory`` each fleet persists to ``<fingerprint>.fleet.json``
    (the same directory agent artifacts live in; the suffixes keep them
    apart), so re-runs load instead of retrain and a copied artifact
    directory ships the whole fleet to another machine.  ``trained_count`` /
    ``reused_count`` / ``resumed_count`` expose how much federated training
    a sweep actually performed.  Fleet training is pure data manipulation
    end to end -- device states, merged agent and round reports carry no
    wall-clock measurements -- so the shard merge compares fleet entries
    whole, like agent artifacts.
    """

    ENTRY_SUFFIX = ".fleet.json"
    ARTIFACT = FleetArtifact

    def __init__(self, directory: Optional[str] = None) -> None:
        super().__init__(directory)
        self.resumed_count = 0

    def accept(self, artifact: FleetArtifact, resumed: bool = False) -> None:
        """Store a freshly trained fleet and count the training."""
        self.store(artifact)
        if resumed:
            self.resumed_count += 1
        else:
            self.trained_count += 1

    def resume_candidate(self, spec: FleetSpec) -> Optional[FleetArtifact]:
        """The deepest same-lineage artifact with fewer rounds than ``spec``.

        Federated training is incremental, so a 2-round fleet of the same
        lineage seeds rounds 2..R of an R-round run; the result is
        bit-identical to training from scratch.

        Candidacy is decided from each file's ``lineage``/``rounds_completed``
        metadata alone; the expensive fully-validated load (fingerprint
        recomputation over the whole fleet) runs only for chosen candidates,
        deepest first, so a directory full of unrelated fleets costs one JSON
        parse each rather than a validation pass each.
        """
        lineage = spec.lineage()
        best: Optional[FleetArtifact] = None
        for artifact in self._memory.values():
            if artifact.lineage != lineage:
                continue
            if artifact.rounds_completed >= spec.rounds:
                continue
            if best is None or artifact.rounds_completed > best.rounds_completed:
                best = artifact
        best_rounds = -1 if best is None else best.rounds_completed
        candidates: List[Tuple[int, str]] = []
        for fingerprint in self.fingerprints():
            if fingerprint in self._memory:
                continue
            metadata, _ = self.read_entry(
                fingerprint,
                lambda data: (data["lineage"], int(data["rounds_completed"])),
            )
            if metadata is None or metadata[0] != lineage:
                continue  # torn or foreign file: not a candidate
            if best_rounds < metadata[1] < spec.rounds:
                candidates.append((metadata[1], fingerprint))
        for _, fingerprint in sorted(candidates, reverse=True):
            artifact, _ = self.read_entry(fingerprint, FleetArtifact.from_document)
            if artifact is not None:  # else corrupt: fall back to the next deepest
                return artifact
        return best


def fleet_convergence_table(artifact: FleetArtifact) -> str:
    """Round-by-round convergence report of one trained fleet."""
    from repro.analysis.tables import format_series_table

    rows = [
        [
            report.round_index,
            report.mean_td_error,
            report.mean_abs_delta,
            report.merged_states,
            report.merged_visits,
        ]
        for report in artifact.round_reports
    ]
    return format_series_table(
        ["round", "mean_td_error", "fleet_disagreement", "merged_states", "merged_visits"],
        rows,
        title=(
            f"Fleet {artifact.fingerprint} ({artifact.spec.label()}): "
            "per-round convergence"
        ),
    )
