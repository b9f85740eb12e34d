"""Chaos-smoke harness: a sweep under injected faults must be bit-identical.

The fault-tolerance layer's whole claim is that recovery is *invisible* in
the results: crashes, hangs, torn writes and transient failures may cost
retries and pool rebuilds, but the delivered cells are byte-for-byte what a
fault-free run produces.  This harness pins that claim end to end, the way
CI's ``chaos-smoke`` job runs it::

    python -m repro.reliability.chaos

It executes a small untrained matrix three ways -- fault-free sequential
(the baseline), pooled under a seeded fault mix (worker crashes, hangs,
transient exceptions), and as a 2-shard distributed plan under the same mix
plus a torn ``shard-status.json`` write -- then asserts per-cell
``sample_stream_hash`` parity across all three, zero surviving failures,
and a clean merge.  Faults are scheduled by :class:`FaultPlan`, so every
run of this harness replays the identical failure sequence.

The faulted phases run with span tracing *force-enabled* (the pooled sweep
to a scratch trace, each shard to its own ``trace.jsonl`` that the merge
folds together), so the parity checks double as the observability layer's
perturbation gate: tracing a chaotic run may not move a single sample.  The
pooled phase must also record a ``cell_batch`` span: its matrix is sized so
the cost model batches each worker's chunk, which keeps the batch route's
fault site in the mix (with NumPy installed, as in CI).
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Dict

from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import SweepResult, SweepRunner
from repro.obs.trace import TRACE_BASENAME, read_trace, traced
from repro.reliability.faults import (
    KIND_CRASH,
    KIND_HANG,
    KIND_TORN_WRITE,
    KIND_TRANSIENT,
    SITE_ATOMIC_WRITE,
    SITE_EXECUTE_BATCH,
    SITE_EXECUTE_CELL,
    FaultPlan,
    FaultRule,
    injected_faults,
)
from repro.reliability.retry import RetryPolicy


#: Replication seeds of the harness's matrix: 36 cells, so a 2-worker pool
#: splits them into two 18-lane chunks, each above the cost model's batch
#: crossover, and the pooled phase runs the batch route and its fault site.
HARNESS_SEEDS = 9


def chaos_matrix(seeds: int = 1) -> ScenarioMatrix:
    """2 governors x 2 workloads x ``seeds`` seeds, ~3 s cells: small but real.

    The default 4 cells keep the fault suites fast on every route: a rule
    that hangs every cell's first attempt costs one watchdog budget per
    in-flight job.  The harness runs :data:`HARNESS_SEEDS` seeds instead.
    """
    return ScenarioMatrix.build(
        name="chaos-smoke",
        governors=("schedutil", "powersave"),
        apps=("facebook", "spotify"),
        seeds=tuple(range(seeds)),
        duration_s=3.0,
    )


def sweep_fault_plan(seed: int = 7) -> FaultPlan:
    """The sweep-phase mix: crashes, transients and hangs at the cell seams.

    Rates below 1.0 thin each kind over the cells through the plan's seeded
    hash, so the mix lands on different cells for different seeds but on
    the *same* cells for the same seed -- every CI run replays the same
    chaos.  ``max_attempt=1`` (the default) makes each fault fire on a
    cell's first attempt only, so bounded retry always converges.
    """
    return FaultPlan(
        seed=seed,
        rules=(
            FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_CRASH, rate=0.5),
            FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_TRANSIENT, rate=0.5),
            FaultRule(
                site=SITE_EXECUTE_CELL, kind=KIND_HANG, rate=0.5, hang_s=0.1
            ),
            FaultRule(site=SITE_EXECUTE_BATCH, kind=KIND_TRANSIENT),
        ),
    )


def shard_fault_plan(seed: int = 11) -> FaultPlan:
    """The shard-phase mix: the sweep mix plus a torn shard-status write.

    The torn write targets ``shard-status.json`` only -- the one store file
    that is rewritten on every delivery, so the tear is repaired by the next
    heartbeat and ``shard status`` merely has to tolerate the torn snapshot.
    ``max_fires=1`` spends the tear on the first write.
    """
    return FaultPlan(
        seed=seed,
        rules=(
            FaultRule(
                site=SITE_ATOMIC_WRITE,
                kind=KIND_TORN_WRITE,
                match="shard-status.json",
                max_fires=1,
            ),
            FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_CRASH, rate=0.5),
            FaultRule(site=SITE_EXECUTE_CELL, kind=KIND_TRANSIENT, rate=0.5),
            FaultRule(site=SITE_EXECUTE_BATCH, kind=KIND_TRANSIENT),
        ),
    )


def cell_hashes(sweep: SweepResult) -> Dict[str, str]:
    """Per-cell sample-stream hash: the parity currency of the whole repo."""
    if sweep.failures:
        first = sweep.failures[0]
        raise SystemExit(
            f"chaos-smoke: {len(sweep.failures)} cell(s) failed; first: "
            f"{first.cell.label()}: {first.error}"
        )
    return {
        result.cell.fingerprint(): result.summary["sample_stream_hash"]
        for result in sweep.results
    }


def _check_parity(
    baseline: Dict[str, str], candidate: Dict[str, str], phase: str
) -> None:
    if candidate == baseline:
        print(f"chaos-smoke: {phase}: {len(candidate)} cells bit-identical")
        return
    missing = sorted(set(baseline) - set(candidate))
    extra = sorted(set(candidate) - set(baseline))
    diverged = sorted(
        fp
        for fp in set(baseline) & set(candidate)
        if baseline[fp] != candidate[fp]
    )
    raise SystemExit(
        f"chaos-smoke: {phase} BROKE bit-identity: "
        f"{len(diverged)} diverged {diverged[:3]}, "
        f"{len(missing)} missing, {len(extra)} extra"
    )


def main() -> int:
    matrix = chaos_matrix(HARNESS_SEEDS)
    print(
        f"chaos-smoke: matrix '{matrix.name}' ({len(matrix)} cells), "
        "baseline fault-free run..."
    )
    baseline = cell_hashes(SweepRunner(max_workers=1).run(matrix))

    print("chaos-smoke: pooled sweep under fault mix", end=" ")
    plan = sweep_fault_plan()
    print(f"(seed={plan.seed}, {len(plan.rules)} rules)...")
    # Tracing is force-enabled here: parity against the untraced baseline
    # below pins the observability layer's core invariant -- spans, metrics
    # footers and retry events may not perturb a single recorded sample,
    # even while the fault mix is exercising every recovery path.
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-trace-") as trace_dir:
        trace_path = os.path.join(trace_dir, TRACE_BASENAME)
        with traced(trace_path):
            with injected_faults(plan):
                chaotic = cell_hashes(
                    SweepRunner(
                        max_workers=2, retry_policy=RetryPolicy(max_retries=3)
                    ).run(matrix)
                )
        events, torn = read_trace(trace_path)
        spans = [event for event in events if event.get("kind") == "span"]
        retries = [
            event
            for event in events
            if event.get("kind") == "event" and event.get("name") == "retry"
        ]
        if not spans:
            raise SystemExit(
                "chaos-smoke: traced faulted sweep recorded no spans"
            )
        if not any(span.get("name") == "cell_batch" for span in spans):
            raise SystemExit(
                "chaos-smoke: traced faulted sweep recorded no cell_batch "
                "span, so the batch route and its fault site went untested "
                "(is NumPy installed?)"
            )
        print(
            f"chaos-smoke: trace recorded {len(spans)} spans, "
            f"{len(retries)} retry events ({torn} torn lines)"
        )
    _check_parity(baseline, chaotic, "faulted traced sweep")

    # Import here: repro.experiments.distributed imports the reliability
    # package, so a module-level import would be circular.
    from repro.experiments.distributed import (
        merge_shards,
        plan_shards,
        run_shard,
        shard_directory,
        shard_status,
    )

    plan = shard_fault_plan()
    print(
        f"chaos-smoke: 2-shard plan under fault mix (seed={plan.seed}, "
        f"{len(plan.rules)} rules)..."
    )
    manifest = plan_shards(matrix, 2)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as base_dir:
        shard_dirs = [shard_directory(base_dir, index) for index in range(2)]
        with injected_faults(plan):
            for index, shard_dir in enumerate(shard_dirs):
                # Each shard traces to its own file (exactly what
                # `shard run --trace` does); the merge below folds them
                # into one timeline.
                with traced(os.path.join(shard_dir, TRACE_BASENAME)):
                    run_shard(
                        manifest,
                        index,
                        shard_dir,
                        max_workers=2,
                        retry_policy=RetryPolicy(max_retries=3),
                    )
        for index, shard_dir in enumerate(shard_dirs):
            status = shard_status(
                manifest, index, shard_dir, stale_after_s=3600.0
            )
            if status.state != "complete" or status.stale:
                raise SystemExit(
                    f"chaos-smoke: shard {index} ended "
                    f"{status.state}/stale={status.stale}, expected a "
                    "complete, live shard"
                )
        merged, counters = merge_shards(
            manifest, shard_dirs, f"{base_dir}/merged-cache"
        )
        _check_parity(baseline, cell_hashes(merged), "faulted 2-shard merge")
        print(f"chaos-smoke: merge counters {counters}")
        if not counters.get("trace_events"):
            raise SystemExit(
                "chaos-smoke: shard merge folded no trace events; expected "
                "both shard traces in the merged timeline"
            )
    print("chaos-smoke: PASS")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI job
    sys.exit(main())
