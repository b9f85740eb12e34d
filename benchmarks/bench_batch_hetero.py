"""Heterogeneous-lane batch kernel benchmark: ``BENCH_batch_hetero.json``.

Measures what masked heterogeneous lanes of the batch kernel
(``repro.sim.batch``) cost and buy: device-ticks per wall-clock second
stepping N lanes whose session durations span a 50% spread (lane ``d``
replays between half and all of the paper's Fig. 1 session), versus the
scalar kernel replaying the identical trace, and versus a ``uniform`` batch
as the overhead reference.  The ``uniform`` row runs the same tick loop
with equal durations (one segment, every lane active), so the
``masking_overhead_vs_uniform`` ratio is the cost of ragged lanes alone.

Mixed-duration fleets previously fell back to N scalar runs; the masked
kernel keeps them in one struct-of-arrays loop, zeroing finished lanes out
of each stage without perturbing live lanes' IEEE-754 op order (per-lane
bit-identity is pinned by ``tests/test_batch_kernel.py``), so this is a
pure throughput comparison of routes to the same output.

All sides are measured back to back in the *same process* (best of
``--repeat``): shared-runner wall clocks drift enough between runs that
ratios are only meaningful when numerator and denominator come from one
sitting.

Run standalone::

    python benchmarks/run_benchmarks.py --only batch_hetero
    python benchmarks/bench_batch_hetero.py --fast     # CI smoke
    python benchmarks/bench_batch_hetero.py --check-against BENCH_batch_hetero.json

``--check-against`` is the CI regression gate: it fails (exit 1) only if the
measured masked device-ticks/s regressed more than ``--max-regression``
(2x by default) versus the committed baseline -- generous on purpose so
shared CI runners do not flake the build.

Requires NumPy (the batch kernel is NumPy-backed); the CI bench-smoke job
installs it, the plain test job does not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __package__ in (None, ""):  # standalone execution without `pip install -e .`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.sim.config import SimulationConfig
from repro.sim.experiment import make_governor, record_session_trace, run_trace
from repro.soc.platform import exynos9810
from repro.workloads.session import FIGURE1_SESSION, SessionSegment
from repro.workloads.trace import TracePlayer

#: Fleet widths measured per profile.  N=256 is the width the batch kernel's
#: acceptance bar is stated at, so the masked path is gated there too.
DEVICE_COUNTS = {"full": (256,), "fast": (256,)}

#: Simulated seconds of the Fig. 1 session replayed per profile (full = the
#: whole 210 s session, matching the committed baseline's methodology).
FIG1_DURATION_S = {"full": None, "fast": 12.0}

#: The duration spread: lane d replays ``SPREAD + (1 - SPREAD) * d/(N-1)``
#: of the session, i.e. the shortest lane runs half as long as the longest.
SPREAD = 0.5


def _best_of(repeat, fn):
    best = None
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _lane_durations(n: int, total_s: float):
    """Per-lane session durations with a 50% spread, longest lane = full."""
    if n == 1:
        return [total_s]
    return [
        total_s * (SPREAD + (1.0 - SPREAD) * lane / (n - 1)) for lane in range(n)
    ]


def measure(profile: str = "full", repeat: int = 3) -> dict:
    """Measure scalar, uniform and masked throughput in one sitting."""
    from repro.sim.batch import BatchSimulation  # needs NumPy; import late

    platform = exynos9810()
    segments = FIGURE1_SESSION.segments
    limit = FIG1_DURATION_S[profile]
    if limit is not None:
        scale = limit / FIGURE1_SESSION.total_duration_s
        segments = tuple(
            SessionSegment(seg.app_name, max(1.0, seg.duration_s * scale))
            for seg in segments
        )
    trace = record_session_trace(segments, platform=platform, seed=2020)
    ticks = len(trace)

    scalar_wall, _ = _best_of(
        repeat, lambda: run_trace(trace, make_governor("schedutil"), platform=platform)
    )
    scalar_ticks_per_sec = ticks / scalar_wall

    results = {
        "fig1_ticks": ticks,
        "duration_spread": SPREAD,
        "scalar_ticks_per_sec": round(scalar_ticks_per_sec, 1),
        "scalar_us_per_tick": round(scalar_wall * 1e6 / ticks, 2),
        "uniform": {},
        "masked": {},
    }

    def make_batch(n: int):
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=trace.duration_s,
                seed=index,
            )
            for index in range(n)
        ]
        governors = [make_governor("schedutil") for _ in range(n)]
        return BatchSimulation(platform, governors, configs)

    def run_uniform(n: int):
        batch = make_batch(n)
        batch.run([TracePlayer(trace) for _ in range(n)], duration_s=trace.duration_s)

    def run_masked(n: int):
        batch = make_batch(n)
        batch.run(
            [TracePlayer(trace) for _ in range(n)],
            duration_s=_lane_durations(n, trace.duration_s),
        )

    for n in DEVICE_COUNTS[profile]:
        # The masked run steps fewer device-ticks than n * ticks: each lane
        # only runs its own budget.  Throughput is per *stepped* device-tick.
        clock = make_batch(1).devices[0].clock
        masked_ticks = sum(
            clock.ticks_for(duration)
            for duration in _lane_durations(n, trace.duration_s)
        )
        uniform_wall, _ = _best_of(repeat, lambda: run_uniform(n))
        masked_wall, _ = _best_of(repeat, lambda: run_masked(n))
        uniform_rate = ticks * n / uniform_wall
        masked_rate = masked_ticks / masked_wall
        results["uniform"][str(n)] = {
            "device_ticks_per_sec": round(uniform_rate, 1),
            "us_per_device_tick": round(uniform_wall * 1e6 / (ticks * n), 3),
            "speedup_vs_scalar": round(uniform_rate / scalar_ticks_per_sec, 2),
        }
        results["masked"][str(n)] = {
            "device_ticks_stepped": masked_ticks,
            "device_ticks_per_sec": round(masked_rate, 1),
            "us_per_device_tick": round(masked_wall * 1e6 / masked_ticks, 3),
            "speedup_vs_scalar": round(masked_rate / scalar_ticks_per_sec, 2),
            "masking_overhead_vs_uniform": round(uniform_rate / masked_rate, 2),
        }
    return results


def build_report(profile: str, repeat: int) -> dict:
    """Measure and assemble the full BENCH_batch_hetero payload."""
    results = measure(profile=profile, repeat=repeat)
    return {
        "benchmark": "batch_hetero",
        "schema": 1,
        "profile": profile,
        "repeat": repeat,
        # "before" is the scalar kernel measured in the same process -- the
        # honest denominator under shared-runner wall-clock drift.
        "before": {
            "scalar_ticks_per_sec": results["scalar_ticks_per_sec"],
            "scalar_us_per_tick": results["scalar_us_per_tick"],
        },
        "after": results,
    }


def check_regression(report: dict, baseline: dict, max_regression: float) -> int:
    """Gate measured masked device-ticks/s against a committed baseline.

    Mirrors ``bench_batch_kernel``'s gate: only ever compares equal fleet
    widths (the widest measured by *both* reports), and both profiles
    measure N=256 precisely so the fast CI smoke gates against the
    committed full run.
    """
    shared = set(report["after"]["masked"]) & set(baseline["after"]["masked"])
    if not shared:
        counts = sorted(report["after"]["masked"], key=int)
        print(
            f"SKIP: no fleet width measured by both reports (measured "
            f"{counts}, committed {sorted(baseline['after']['masked'], key=int)})"
        )
        return 0
    width = max(shared, key=int)
    reference = baseline["after"]["masked"][width]["device_ticks_per_sec"]
    measured = report["after"]["masked"][width]["device_ticks_per_sec"]
    floor = reference / max_regression
    print(
        f"regression gate (N={width}): measured {measured:.0f} device-ticks/s "
        f"vs committed {reference:.0f} (floor {floor:.0f}, max regression "
        f"{max_regression}x)"
    )
    if measured < floor:
        print("FAIL: masked batch path regressed beyond the allowed factor")
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke profile (short session, N=256)"
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    parser.add_argument(
        "--output",
        default="BENCH_batch_hetero.json",
        help="where to write the report JSON",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        help="committed baseline JSON to gate against (CI regression check)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail only if device-ticks/sec dropped by more than this factor",
    )
    args = parser.parse_args(argv)

    # Load the baseline BEFORE writing anything: with the default --output the
    # gate may point at the very file we are about to overwrite.
    baseline = None
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    profile = "fast" if args.fast else "full"
    report = build_report(profile=profile, repeat=args.repeat)
    print(json.dumps(report, indent=2))
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    if baseline is not None:
        return check_regression(report, baseline, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
