"""Experiment runners: sessions, governor comparisons and agent training.

These helpers encode the paper's experimental methodology:

* every application is exercised by a recorded demand trace so that all
  governors face *exactly* the same user behaviour (the paper's "similar
  session" comparisons),
* the Next agent is trained on an application first (Section IV-B: training
  happens once per app, on average about 3.5 minutes) and evaluated "when it
  was fully trained on the respective applications" (Section V), and
* the reported quantities are the ones in Figs. 3, 7 and 8: average power,
  peak temperature of the big cluster and of the device, plus FPS/QoS
  statistics to verify that savings do not come from simply dropping frames.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.agent import AgentConfig, NextAgent
from repro.core.governor import NextGovernor
from repro.governors.base import Governor
from repro.governors.intqos import IntQosGovernor
from repro.governors.schedutil import SchedutilGovernor
from repro.governors.simple import (
    ConservativeGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.obs.trace import maybe_span
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.sim.recorder import Recorder, SummaryStatistics
from repro.soc.platform import PlatformSpec, exynos9810
from repro.workloads.apps import make_app
from repro.workloads.session import SessionSegment
from repro.workloads.trace import TracePlayer, TraceRecorder, WorkloadTrace


@dataclass
class SessionResult:
    """Outcome of one simulated session under one governor."""

    governor_name: str
    app_names: List[str]
    recorder: Recorder
    summary: SummaryStatistics


@dataclass
class TrainingResult:
    """Outcome of training the Next agent on one application."""

    app_name: str
    episodes: int
    agent_steps: int
    training_time_s: float
    converged: bool
    final_td_error: float
    qtable_states: int


@dataclass
class GovernorComparison:
    """Per-governor summaries plus savings relative to a baseline."""

    baseline_name: str
    results: Dict[str, SessionResult]

    def summary(self, governor_name: str) -> SummaryStatistics:
        """Summary statistics of one governor's run."""
        return self.results[governor_name].summary

    def power_saving_pct(self, governor_name: str) -> float:
        """Average-power saving of ``governor_name`` relative to the baseline."""
        base = self.summary(self.baseline_name).average_power_w
        other = self.summary(governor_name).average_power_w
        if base <= 0:
            return 0.0
        return 100.0 * (base - other) / base

    def peak_temperature_reduction_pct(self, governor_name: str, node: str) -> float:
        """Peak-temperature-rise reduction (above ambient) relative to the baseline."""
        ambient = self.results[self.baseline_name].recorder.ambient_c
        base = self.summary(self.baseline_name).peak_temperature_c.get(node, ambient)
        # A node missing from a run's summary means it never rose above that
        # run's own ambient -- fall back to the governor's own recorder, not
        # the baseline's, which may sit at a different ambient temperature.
        other = self.summary(governor_name).peak_temperature_c.get(
            node, self.results[governor_name].recorder.ambient_c
        )
        base_rise = max(1e-9, base - ambient)
        return 100.0 * (base - other) / base_rise


# ----------------------------------------------------------------------------------
# Governor factory
# ----------------------------------------------------------------------------------

GOVERNOR_FACTORIES: Dict[str, Callable[..., Governor]] = {
    "schedutil": SchedutilGovernor,
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "conservative": ConservativeGovernor,
    "int_qos_pm": IntQosGovernor,
    "next": NextGovernor,
}

#: Governors whose factory takes a ``seed`` kwarg because the policy itself is
#: stochastic (e.g. exploration).  The scenario-matrix runner seeds these
#: automatically per cell; add any new stochastic governor here or its cells
#: will draw from global randomness and break run-to-run determinism.
STOCHASTIC_GOVERNORS = frozenset({"next"})

#: Governors that learn and can therefore be pre-trained into an
#: :class:`~repro.core.artifact.AgentArtifact`.  A ``pretrained`` training
#: variant on a scenario matrix only applies to these; all other governors
#: are stateless policies for which training is meaningless.
TRAINABLE_GOVERNORS = frozenset({"next"})


def make_governor(name: str, **kwargs) -> Governor:
    """Instantiate a governor by its registry name."""
    try:
        factory = GOVERNOR_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown governor {name!r}; available: {sorted(GOVERNOR_FACTORIES)}"
        ) from None
    return factory(**kwargs)


# ----------------------------------------------------------------------------------
# Session runners
# ----------------------------------------------------------------------------------

def execute_session(
    workload,
    governor: Governor,
    platform: Optional[PlatformSpec] = None,
    config: Optional[SimulationConfig] = None,
    duration_s: Optional[float] = None,
    app_names: Optional[Sequence[str]] = None,
) -> SessionResult:
    """Run one workload under one governor and summarise it.

    This is the single-cell execution primitive: every higher-level runner --
    the sequential helpers below and the parallel scenario-matrix sweep in
    :mod:`repro.experiments.runner` -- funnels through it, so sequential and
    parallel paths cannot drift apart.  ``workload`` is anything with a
    ``tick(dt_s) -> TickWorkload`` method (an app model, a
    :class:`~repro.workloads.trace.TracePlayer`, a
    :class:`~repro.sim.engine.SessionWorkload`).
    """
    platform = platform or exynos9810()
    if duration_s is None:
        duration_s = config.duration_s if config is not None else None
    if config is None:
        config_kwargs = {"refresh_hz": platform.display_refresh_hz}
        if duration_s is not None:
            config_kwargs["duration_s"] = duration_s
        config = SimulationConfig(**config_kwargs)
    simulation = Simulation(platform=platform, governor=governor, config=config)
    recorder = simulation.run(workload, duration_s=duration_s)
    if app_names is None:
        app_names = [getattr(workload, "name", type(workload).__name__)]
    return SessionResult(
        governor_name=governor.name,
        app_names=list(app_names),
        recorder=recorder,
        summary=recorder.summary(),
    )


def run_trace(
    trace: WorkloadTrace,
    governor: Governor,
    platform: Optional[PlatformSpec] = None,
    config: Optional[SimulationConfig] = None,
) -> SessionResult:
    """Replay a recorded demand trace under ``governor`` and summarise it."""
    return execute_session(
        TracePlayer(trace),
        governor,
        platform=platform,
        config=config,
        duration_s=trace.duration_s,
        app_names=trace.app_names(),
    )


def run_app_session(
    app_name: str,
    governor: Governor,
    duration_s: float = 120.0,
    platform: Optional[PlatformSpec] = None,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
) -> SessionResult:
    """Record a fresh demand trace for ``app_name`` and run it under ``governor``."""
    platform = platform or exynos9810()
    dt_s = 1.0 / platform.display_refresh_hz
    trace = TraceRecorder.record_app(make_app(app_name, seed=seed), duration_s, dt_s)
    return run_trace(trace, governor, platform=platform, config=config)


def record_session_trace(
    segments: Sequence[SessionSegment],
    platform: Optional[PlatformSpec] = None,
    seed: int = 0,
) -> WorkloadTrace:
    """Record the demand trace of a multi-app session (for fair comparisons)."""
    platform = platform or exynos9810()
    dt_s = 1.0 / platform.display_refresh_hz
    return TraceRecorder.record_segments(segments, dt_s=dt_s, seed=seed)


def compare_governors_on_trace(
    trace: WorkloadTrace,
    governors: Mapping[str, Governor],
    baseline: str = "schedutil",
    platform: Optional[PlatformSpec] = None,
    config: Optional[SimulationConfig] = None,
) -> GovernorComparison:
    """Run every governor on the same trace and compare against ``baseline``."""
    if baseline not in governors:
        raise ValueError(f"baseline {baseline!r} is not among the governors")
    platform = platform or exynos9810()
    results = {
        name: run_trace(trace, governor, platform=platform, config=config)
        for name, governor in governors.items()
    }
    return GovernorComparison(baseline_name=baseline, results=results)


# ----------------------------------------------------------------------------------
# Next training
# ----------------------------------------------------------------------------------

#: Stride between the seeds of consecutive training episodes on one app.
EPISODE_SEED_STRIDE = 101

#: Stride between the base seeds of consecutive apps when one governor is
#: trained on several applications, so their episode seeds cannot overlap.
APP_SEED_STRIDE = 1009


#: One agent's part of a training schedule: ``(governor, apps, episodes,
#: episode_duration_s, seed, config)``; each episode replaces the config's seed.
TrainingLane = Tuple[NextGovernor, Sequence[str], int, float, int, SimulationConfig]


def training_config(
    platform: PlatformSpec,
    duration_s: float,
    seed: int,
    overrides: Sequence[Tuple[str, Any]] = (),
) -> SimulationConfig:
    """A training lane's environment: the platform's, plus a spec's overrides."""
    return SimulationConfig(
        refresh_hz=platform.display_refresh_hz,
        duration_s=duration_s,
        seed=seed,
        **dict(overrides),
    )


def train_lanes(
    lanes: Sequence[TrainingLane],
    platform: PlatformSpec,
    td_error_threshold: float = 0.02,
    batched: bool = False,
) -> List[List[TrainingResult]]:
    """Train every lane's agent on its apps; one result per lane and app.

    The one Next training schedule.  Episode ``e`` of a lane's app ``a`` runs
    a fresh app model and simulation seeded ``seed + a * APP_SEED_STRIDE +
    e * EPISODE_SEED_STRIDE``, so the agent sees varied user behaviour, as
    in the paper's on-device training across real usage; reusing one seed
    would narrow the experience it trains on.  A lane leaves an app once its
    episode budget is spent or its agent's TD error drops below
    ``td_error_threshold``.  Governors train per app and stay training;
    callers freeze them.

    ``batched`` only picks the kernel, bit-identical per lane: one
    :class:`~repro.sim.batch.BatchSimulation` per episode over the running
    lanes, or one unrecorded :class:`Simulation` per lane and episode --
    the trained agent is an episode's only product.
    """
    governors, app_lists, budgets, durations, base_seeds, configs = zip(*lanes)
    results: List[List[TrainingResult]] = [[] for _ in lanes]
    for app_index in range(max(len(apps) for apps in app_lists)):
        on_app = [i for i, apps in enumerate(app_lists) if app_index < len(apps)]
        for i in on_app:
            governors[i].set_training(True)
        episodes_run = [0] * len(lanes)
        running = on_app
        for episode in range(max(budgets[i] for i in on_app)):
            running = [i for i in running if episode < budgets[i]]
            if not running:
                break
            offset = app_index * APP_SEED_STRIDE + episode * EPISODE_SEED_STRIDE
            seeds = [base_seeds[i] + offset for i in running]
            apps = [
                make_app(app_lists[i][app_index], seed=seed)
                for i, seed in zip(running, seeds)
            ]
            episode_configs = [
                replace(configs[i], seed=seed) for i, seed in zip(running, seeds)
            ]
            if batched:
                from repro.sim.batch import BatchSimulation

                batch = BatchSimulation(
                    platform, [governors[i] for i in running], episode_configs
                )
                batch.run(apps, duration_s=[durations[i] for i in running])
            else:
                for i, seed, config, app in zip(running, seeds, episode_configs, apps):
                    simulation = Simulation(
                        platform=platform, governor=governors[i], config=config,
                        record=False,
                    )
                    with maybe_span(
                        "episode", app=app.name, episode=episode, seed=seed
                    ):
                        simulation.run(app, duration_s=durations[i])
            for i in running:
                episodes_run[i] = episode + 1
            running = [
                i
                for i in running
                if not governors[i].agent.has_converged(td_error_threshold)
            ]
        for i in on_app:
            agent = governors[i].agent
            app_name = app_lists[i][app_index]
            results[i].append(
                TrainingResult(
                    app_name=app_name,
                    episodes=episodes_run[i],
                    agent_steps=agent.steps_for(app_name),
                    training_time_s=agent.training_time_s(app_name),
                    converged=agent.has_converged(td_error_threshold),
                    final_td_error=agent.recent_td_error(),
                    qtable_states=agent.qtable_size(app_name),
                )
            )
    return results


def train_next_governor(
    governor: NextGovernor,
    app_name: str,
    platform: Optional[PlatformSpec] = None,
    episodes: int = 6,
    episode_duration_s: float = 60.0,
    seed: int = 0,
    td_error_threshold: float = 0.02,
    config: Optional[SimulationConfig] = None,
) -> TrainingResult:
    """Train the Next agent on ``app_name`` over several simulated sessions.

    One lane of :func:`train_lanes` on the scalar kernel: each episode
    uses a freshly seeded application model, and training stops early once
    the agent's TD error drops below ``td_error_threshold``.  ``config``
    keeps the caller's knobs; each episode still gets its own seed.
    """
    platform = platform or exynos9810()
    if config is None:
        config = training_config(platform, episode_duration_s, seed)
    lane = (governor, (app_name,), episodes, episode_duration_s, seed, config)
    return train_lanes([lane], platform, td_error_threshold)[0][0]


def train_next_on_apps(
    governor: NextGovernor,
    app_names: Sequence[str],
    platform: Optional[PlatformSpec] = None,
    episodes: int = 6,
    episode_duration_s: float = 60.0,
    seed: int = 0,
    td_error_threshold: float = 0.02,
    config: Optional[SimulationConfig] = None,
) -> List[TrainingResult]:
    """Train one governor on several applications, then freeze it.

    Each app trains through :func:`train_next_governor` with a base seed of
    ``seed + index * APP_SEED_STRIDE``; afterwards exploration is switched
    off so the governor evaluates the greedy (fully trained) policy.  This
    is the train-then-freeze path shared by :func:`pretrained_next_governor`,
    :func:`select_best_next_governor` and the sweep harness's artifact
    trainer; the federated pipeline's device rounds
    (:func:`repro.experiments.federated.train_device_round`) freeze after
    the same :func:`train_lanes` schedule, so their trained policies cannot
    drift apart.
    """
    platform = platform or exynos9810()
    results = [
        train_next_governor(
            governor,
            app_name,
            platform=platform,
            episodes=episodes,
            episode_duration_s=episode_duration_s,
            seed=seed + index * APP_SEED_STRIDE,
            td_error_threshold=td_error_threshold,
            config=config,
        )
        for index, app_name in enumerate(app_names)
    ]
    governor.set_training(False)
    return results


def pretrained_next_governor(
    app_names: Sequence[str],
    platform: Optional[PlatformSpec] = None,
    agent_config: Optional[AgentConfig] = None,
    episodes: int = 6,
    episode_duration_s: float = 60.0,
    seed: int = 0,
) -> NextGovernor:
    """Convenience: build a Next governor trained on the given applications.

    After training, exploration is switched off so that evaluation runs use
    the greedy (fully trained) policy, matching the paper's "all results for
    Next were observed when it was fully trained" protocol.
    """
    governor = NextGovernor(config=agent_config, seed=seed)
    train_next_on_apps(
        governor,
        app_names,
        platform=platform,
        episodes=episodes,
        episode_duration_s=episode_duration_s,
        seed=seed,
    )
    return governor


def candidate_sort_key(
    total_power_w: float,
    worst_delivery_ratio: float,
    min_delivery_ratio: float = 0.93,
):
    """Ranking key for trained-candidate selection (lower sorts first).

    QoS-preserving candidates (worst frame-delivery ratio at or above
    ``min_delivery_ratio``) always rank ahead of QoS violators and are ordered
    by ascending power; among violators the least-bad delivery ratio wins.
    This mirrors the paper's "savings must not come from dropping frames"
    constraint.
    """
    qos_ok = worst_delivery_ratio >= min_delivery_ratio
    if qos_ok:
        return (0, total_power_w)
    return (1, -worst_delivery_ratio)


def select_best_next_governor(
    app_names: Sequence[str],
    platform: Optional[PlatformSpec] = None,
    agent_config: Optional[AgentConfig] = None,
    candidate_seeds: Sequence[int] = (7, 23),
    episodes: int = 20,
    episode_duration_s: float = 90.0,
    validation_duration_s: float = 90.0,
    validation_seed: int = 555,
    min_delivery_ratio: float = 0.93,
) -> NextGovernor:
    """Train several Next candidates and keep the one that validates best.

    On a real deployment the cloud / federated back-end of Section IV-C would
    train across many devices and distribute the best-performing action
    values; the simulator reproduces that selection step by training a few
    independently seeded agents per application and picking, on a held-out
    validation trace, the candidate with the lowest average power among those
    that preserve QoS (frame-delivery ratio of at least
    ``min_delivery_ratio``).  If no candidate preserves QoS the one with the
    highest delivery ratio wins.
    """
    platform = platform or exynos9810()
    dt_s = 1.0 / platform.display_refresh_hz
    validation_traces = {
        app_name: TraceRecorder.record_app(
            make_app(app_name, seed=validation_seed + index), validation_duration_s, dt_s
        )
        for index, app_name in enumerate(app_names)
    }

    best_governor: Optional[NextGovernor] = None
    best_key = None
    for seed in candidate_seeds:
        governor = NextGovernor(config=agent_config, seed=seed)
        train_next_on_apps(
            governor,
            app_names,
            platform=platform,
            episodes=episodes,
            episode_duration_s=episode_duration_s,
            seed=seed,
            td_error_threshold=0.0,
        )
        total_power = 0.0
        worst_delivery = 1.0
        for app_name, trace in validation_traces.items():
            result = run_trace(trace, governor, platform=platform)
            total_power += result.summary.average_power_w
            worst_delivery = min(worst_delivery, result.summary.frame_delivery_ratio)
        key = candidate_sort_key(total_power, worst_delivery, min_delivery_ratio)
        if best_key is None or key < best_key:
            best_key = key
            best_governor = governor
    assert best_governor is not None
    return best_governor
