"""Parallel scenario-matrix experiment harness.

The paper evaluates a handful of apps and governors on one platform; this
package opens that up into pre-registered factorial sweeps that run as fast
as the machine allows:

* :mod:`repro.experiments.matrix` -- declarative factorial designs
  (governors x workloads x platforms x seeds) expanding into
  deterministically seeded :class:`ScenarioCell` objects,
* :mod:`repro.experiments.runner` -- one event loop, run in-process or
  over a process pool, with failure isolation and an on-disk result cache
  keyed by cell fingerprint,
* :mod:`repro.experiments.artifacts` -- trained-agent artifacts: each
  distinct training spec is trained exactly once per sweep (in parallel,
  through the same pool) and pretrained ``next`` cells evaluate the frozen
  greedy policy,
* :mod:`repro.experiments.federated` -- federated device fleets: N virtual
  devices train locally (round 0 through the artifact pipeline), a server
  merges their Q-tables visit-weighted each round, and federated ``next``
  cells evaluate the merged fleet agent greedily; fleets persist as
  resumable :class:`~repro.core.federated.FleetArtifact` documents,
* :mod:`repro.experiments.distributed` -- distributed sweep sharding: a
  deterministic cost-balanced shard planner (``shard-manifest.json``), a
  resumable per-shard worker and a conflict-checked merge engine that
  reconstructs the aggregate sweep bit-identically from shard caches,
* :mod:`repro.experiments.aggregate` -- replication-aware statistics,
  comparison tables and per-axis marginal effects on top of
  :mod:`repro.analysis`,
* :mod:`repro.experiments.cli` -- the ``repro-sweep`` console script
  (including ``repro-sweep shard plan|run|merge|status``).
"""

from repro.experiments.aggregate import (
    ConditionKey,
    MetricStatistics,
    condition_table,
    metric_statistics,
    group_replicates,
    marginal_savings,
    marginal_table,
    paired_savings,
    replicate_statistics,
)
from repro.experiments.artifacts import ArtifactStore, train_artifact
from repro.experiments.distributed import (
    CostModel,
    ShardManifest,
    ShardMergeError,
    ShardStatus,
    merge_shards,
    plan_shards,
    run_shard,
    shard_status,
)
from repro.experiments.federated import (
    FleetStore,
    fleet_convergence_table,
    train_device_round,
    train_fleet_artifact,
)
from repro.experiments.matrix import (
    COLD_TRAINING,
    NAMED_MATRICES,
    ScenarioCell,
    ScenarioMatrix,
    TrainingVariant,
    WorkloadSpec,
    derive_seed,
    named_matrix,
)
from repro.experiments.runner import (
    CellResult,
    ResultCache,
    SweepResult,
    SweepRunner,
    execute_cell,
    run_cell_session,
    run_matrix,
)

__all__ = [
    # matrix
    "ScenarioMatrix",
    "ScenarioCell",
    "WorkloadSpec",
    "TrainingVariant",
    "COLD_TRAINING",
    "NAMED_MATRICES",
    "named_matrix",
    "derive_seed",
    # artifacts
    "ArtifactStore",
    "train_artifact",
    # distributed sharding
    "CostModel",
    "ShardManifest",
    "ShardMergeError",
    "ShardStatus",
    "plan_shards",
    "run_shard",
    "merge_shards",
    "shard_status",
    # federated fleets
    "FleetStore",
    "train_fleet_artifact",
    "train_device_round",
    "fleet_convergence_table",
    # runner
    "SweepRunner",
    "SweepResult",
    "CellResult",
    "ResultCache",
    "execute_cell",
    "run_cell_session",
    "run_matrix",
    # aggregate
    "MetricStatistics",
    "metric_statistics",
    "ConditionKey",
    "group_replicates",
    "replicate_statistics",
    "paired_savings",
    "marginal_savings",
    "condition_table",
    "marginal_table",
]
