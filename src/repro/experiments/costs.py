"""The cost model: wall-clock prices for plans, ETAs, watchdogs and the batch route.

One :class:`CostModel` answers every "how long will this take" question the
harness asks: the shard planner balances shards with it, progress ETAs and
shard status files count down with it, the watchdog budgets pool jobs from
it, and :meth:`CostModel.route` decides whether a group of lanes runs on the
batch kernel or one lane at a time on the scalar kernel.  It is a leaf
module -- the runner, the federated trainer and the distributed planner all
import it, and it imports none of them -- so the route is decided before
anything imports NumPy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Mapping,
    NamedTuple,
    Sequence,
)

from repro.obs.metrics import metrics
from repro.soc.platform import make_platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.artifact import TrainingSpec
    from repro.experiments.matrix import ScenarioCell

#: Simulated seconds behind ``BENCH_hotloop.json``'s ``sweep_cell_wall_s``
#: measurement (the bench runs one 4 sim-s cell end to end).
_BENCH_SWEEP_CELL_SIM_S = 4.0


class Route(NamedTuple):
    """One batch-or-scalar decision and the two predicted costs behind it."""

    batch: bool
    batch_s: float
    scalar_s: float
    lanes: int


@dataclass(frozen=True)
class CostModel:
    """Wall-clock price of one simulated second, for planning, ETAs and routing.

    The two dataclass fields come from the committed ``BENCH_hotloop.json``
    perf trajectory (compiled-kernel numbers): a sweep cell costs
    ``sweep_cell_wall_s / 4 sim-s`` and training throughput is
    ``1 / cold_train_sim_s_per_wall_s``.  Absolute values only matter for
    ETA display and watchdog budgets; shard *balance* only needs the ratio
    between evaluation and training work, which is stable across machines
    of the same class.  They are what a shard manifest records.

    The route rates are class constants, not fields: they price the batch
    kernel against the scalar kernel on one host, and only their ratios
    decide a route.  A group of N lanes with ``t_i`` ticks each costs
    ``SCALAR_S_PER_TICK * sum(t_i)`` on the scalar kernel and
    ``BATCH_FIXED_S_PER_TICK * max(t_i) + BATCH_S_PER_LANE_TICK * sum(t_i)``
    on the batch kernel, and runs batched only when that is lower.  The
    fixed term is the kernel's per-tick cost whatever the lane count;
    mixed governors and mixed durations are priced by the longest lane,
    since the kernel keeps ticking until it ends.  With equal durations the
    crossover is ``fixed / (scalar - per_lane)``, about 16 lanes.

    Provenance: one sitting on 2 vCPUs (Python 3.11.7, NumPy 2.4.6), 10 s
    ``facebook`` traces, min of 3 runs.  Scalar: one ``run_trace`` per lane.
    Batch: one :class:`~repro.sim.batch.BatchSimulation` built, run and
    gathered per N = 1-32 lanes, fitted as ``fixed + per_lane x N`` per
    tick.  Each rate is the mean over both registered platforms and both
    cell governor kinds (observation-free ``schedutil``, per-lane
    ``update`` ``conservative``); the script and its output are in
    CHANGES.md, the table in README "Batched fleets".  The keyed fits
    cross over at 14-19 lanes, and an end-to-end re-measurement through
    ``execute_cell`` and ``execute_cells_batched`` moved each by more than
    the gap between them, so neither platform shape nor governor kind is a
    key: no named sweep has a group the keys would route differently.  The
    one group near the crossover, ``platforms``' 18 lanes per platform,
    measured 1.08-1.24x faster batched on both platforms.  Federated
    training rounds cost more per lane-tick on both routes and cross over
    at 10-14 lanes; the named fleets have 2 devices.
    """

    #: ``after.sweep_cell_wall_s`` (0.00762 s) over the bench's 4 sim-s cell.
    cell_s_per_sim_s: float = 0.00762 / _BENCH_SWEEP_CELL_SIM_S
    #: Reciprocal of ``after.cold_train_sim_s_per_wall_s`` (328.7 sim-s/s).
    train_s_per_sim_s: float = 1.0 / 328.7

    #: One scalar-kernel lane, per tick (fits 32.8 / 31.9 / 33.6 / 39.6 us).
    SCALAR_S_PER_TICK: ClassVar[float] = 34.5e-6
    #: The batch kernel per tick, whatever the lane count (493.8 / 514.1 /
    #: 391.4 / 401.2 us).
    BATCH_FIXED_S_PER_TICK: ClassVar[float] = 450.1e-6
    #: The batch kernel per lane and tick (5.6 / 4.4 / 6.7 / 10.6 us).
    BATCH_S_PER_LANE_TICK: ClassVar[float] = 6.8e-6

    def __post_init__(self) -> None:
        if self.cell_s_per_sim_s <= 0 or self.train_s_per_sim_s <= 0:
            raise ValueError("cost-model rates must be positive")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (recorded in the manifest)."""
        return {
            "cell_s_per_sim_s": self.cell_s_per_sim_s,
            "train_s_per_sim_s": self.train_s_per_sim_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostModel":
        """Rebuild a model from :meth:`to_dict` output."""
        return cls(
            cell_s_per_sim_s=float(data["cell_s_per_sim_s"]),
            train_s_per_sim_s=float(data["train_s_per_sim_s"]),
        )

    @classmethod
    def from_bench_report(cls, data: Mapping[str, Any]) -> "CostModel":
        """Derive a model from a ``BENCH_hotloop.json``-shaped report.

        Strict about the expected keys: silently falling back to the
        committed defaults would record another machine's numbers in the
        manifest as if they were the operator's calibration.
        """
        after = data.get("after") if isinstance(data, Mapping) else None
        if not isinstance(after, Mapping):
            after = {}
        missing = sorted(
            key
            for key in ("sweep_cell_wall_s", "cold_train_sim_s_per_wall_s")
            if not after.get(key)
        )
        if missing:
            raise ValueError(
                f"bench report is missing 'after' key(s) {missing}; expected a "
                "BENCH_hotloop.json-shaped report (benchmarks/bench_hot_loop.py)"
            )
        return cls(
            cell_s_per_sim_s=(
                float(after["sweep_cell_wall_s"]) / _BENCH_SWEEP_CELL_SIM_S
            ),
            train_s_per_sim_s=1.0 / float(after["cold_train_sim_s_per_wall_s"]),
        )

    @classmethod
    def from_bench_file(cls, path: str) -> "CostModel":
        """Load a model from a committed benchmark report on disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_bench_report(json.load(handle))

    # -- pricing ------------------------------------------------------------------------

    def cell_cost_s(self, cell: "ScenarioCell") -> float:
        """Estimated wall time of one cell's evaluation (without training)."""
        return cell.workload.duration_s * self.cell_s_per_sim_s

    def training_cost_s(self, cell: "ScenarioCell") -> float:
        """Estimated wall time of the cell's training spec or fleet, if any.

        A pretrained spec trains ``apps x episodes x episode_duration_s``
        simulated seconds; a federated fleet multiplies that by ``devices``
        and ``rounds`` (round 0 plus every continuation round runs one full
        local-training phase per device).
        """
        fleet = cell.fleet_spec()
        if fleet is not None:
            sim_s = (
                fleet.devices
                * fleet.rounds
                * len(fleet.apps)
                * fleet.episodes
                * fleet.episode_duration_s
            )
            return sim_s * self.train_s_per_sim_s
        spec = cell.training_spec()
        if spec is not None:
            return self.spec_training_cost_s(spec)
        return 0.0

    def spec_training_cost_s(self, spec: "TrainingSpec") -> float:
        """Estimated wall time of training one :class:`TrainingSpec`."""
        sim_s = len(spec.apps) * spec.episodes * spec.episode_duration_s
        return sim_s * self.train_s_per_sim_s

    def device_round_cost_s(self, job: Sequence[Any]) -> float:
        """Estimated wall time of one device's job in a fleet round.

        ``job`` is a :func:`~repro.experiments.federated.train_device_round`
        argument tuple: the device trains ``apps x episodes x
        episode_duration_s`` simulated seconds.
        """
        return round_job_sim_s(job) * self.train_s_per_sim_s

    # -- routing ------------------------------------------------------------------------

    def route(self, platform: str, lane_sim_s: Sequence[float]) -> Route:
        """Price a group of lanes on the batch kernel against running each scalar.

        ``lane_sim_s`` holds each lane's simulated seconds on ``platform``.
        The group batches only when the batch kernel is predicted to finish
        it sooner; a single lane never does.  Pure arithmetic: nothing here
        imports NumPy, so a sweep whose every group runs scalar never loads
        it.
        """
        refresh_hz = make_platform(platform).display_refresh_hz
        ticks = [sim_s * refresh_hz for sim_s in lane_sim_s]
        total = sum(ticks)
        batch_s = (
            self.BATCH_FIXED_S_PER_TICK * max(ticks, default=0.0)
            + self.BATCH_S_PER_LANE_TICK * total
        )
        scalar_s = self.SCALAR_S_PER_TICK * total
        return Route(batch_s < scalar_s, batch_s, scalar_s, len(ticks))


#: Shared default instance (the committed BENCH_hotloop.json numbers).
DEFAULT_COST_MODEL = CostModel()


def round_job_sim_s(job: Sequence[Any]) -> float:
    """Simulated training seconds of one fleet-round device job (one lane)."""
    _, apps, _, episodes, episode_duration_s = job[:5]
    return len(apps) * episodes * episode_duration_s


def routes_to_batch(
    route: Route, unit: str, kernel_available: Callable[[], bool]
) -> bool:
    """Settle one decision: batch iff the group pays and the kernel can run.

    ``kernel_available`` is asked only for a group that pays, so a sweep
    whose every group runs scalar never imports NumPy.  The lanes are
    counted under ``route.<unit>.batch_lanes`` or ``.scalar_lanes``.
    """
    batched = route.batch and kernel_available()
    side = "batch" if batched else "scalar"
    metrics().inc(f"route.{unit}.{side}_lanes", route.lanes)
    return batched


def note_route(span: Any, route: Route) -> None:
    """Note a batched group's lane count and both predicted costs on its span."""
    span.note("lanes", route.lanes)
    span.note("predicted_batch_s", route.batch_s)
    span.note("predicted_scalar_s", route.scalar_s)
