"""Batched device-population kernel benchmark: ``BENCH_batch_kernel.json``.

Measures what the struct-of-arrays batch kernel (``repro.sim.batch``) buys
over the scalar per-device simulation: device-ticks per wall-clock second
stepping N independent devices through the paper's Fig. 1 mixed session
under the stock ``schedutil`` governor, versus the scalar kernel replaying
the identical trace.

Both sides are measured back to back in the *same process* (best of
``--repeat``): shared-runner wall clocks drift enough between runs that the
speedup ratio is only meaningful when numerator and denominator come from
one sitting.  The scalar and batched kernels produce bit-identical
per-device sample streams (pinned by ``tests/test_batch_kernel.py``), so
this is a pure throughput comparison of two routes to the same output.

Run standalone::

    python benchmarks/run_benchmarks.py --only batch_kernel
    python benchmarks/bench_batch_kernel.py --fast     # CI smoke
    python benchmarks/bench_batch_kernel.py --check-against BENCH_batch_kernel.json

``--check-against`` is the CI regression gate: it fails (exit 1) only if the
measured batched device-ticks/s regressed more than ``--max-regression``
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

#: Fleet widths measured per profile.  The acceptance bar for the batch
#: kernel is >= 5x device-steps/s over the scalar kernel at N >= 256, so the
#: full profile measures exactly that width plus one wider point to show the
#: amortisation trend.  N=2 and N=36 (the width of a ``baselines`` chunk in a
#: 2-worker pool) record the kernel's fixed per-tick cost, which dominates
#: small batches; the regression gate still compares the widest width both
#: reports measured.  The fast profile keeps CI smoke cheap.
DEVICE_COUNTS = {"full": (2, 36, 256, 512), "fast": (2, 36, 256)}

#: Simulated seconds of the Fig. 1 session replayed per profile (full = the
#: whole 210 s session, matching the committed baseline's methodology).
FIG1_DURATION_S = {"full": None, "fast": 12.0}


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


def measure(profile: str = "full", repeat: int = 3) -> dict:
    """Measure scalar and batched Fig. 1 throughput in one sitting."""
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
        "scalar_ticks_per_sec": round(scalar_ticks_per_sec, 1),
        "scalar_us_per_tick": round(scalar_wall * 1e6 / ticks, 2),
        "batch": {},
    }

    def run_batch(n: int):
        configs = [
            SimulationConfig(
                refresh_hz=platform.display_refresh_hz,
                duration_s=trace.duration_s,
                seed=index,
            )
            for index in range(n)
        ]
        governors = [make_governor("schedutil") for _ in range(n)]
        batch = BatchSimulation(platform, governors, configs)
        batch.run([TracePlayer(trace) for _ in range(n)], duration_s=trace.duration_s)

    for n in DEVICE_COUNTS[profile]:
        batch_wall, _ = _best_of(repeat, lambda: run_batch(n))
        device_ticks_per_sec = ticks * n / batch_wall
        results["batch"][str(n)] = {
            "device_ticks_per_sec": round(device_ticks_per_sec, 1),
            "us_per_device_tick": round(batch_wall * 1e6 / (ticks * n), 3),
            "speedup_vs_scalar": round(device_ticks_per_sec / scalar_ticks_per_sec, 2),
        }
    return results


def build_report(profile: str, repeat: int) -> dict:
    """Measure and assemble the full BENCH_batch_kernel payload."""
    results = measure(profile=profile, repeat=repeat)
    return {
        "benchmark": "batch_kernel",
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
    """Gate measured batched device-ticks/s against a committed baseline.

    Device-ticks/s varies with fleet width (wider fleets amortise the
    per-tick Python frontend better), so the gate only ever compares equal
    widths: the widest fleet measured by *both* reports.  Both profiles
    measure N=256 -- the width the kernel's acceptance bar is stated at --
    precisely so the fast CI smoke gates against the committed full run.
    """
    shared = set(report["after"]["batch"]) & set(baseline["after"]["batch"])
    if not shared:
        counts = sorted(report["after"]["batch"], key=int)
        print(
            f"SKIP: no fleet width measured by both reports (measured "
            f"{counts}, committed {sorted(baseline['after']['batch'], key=int)})"
        )
        return 0
    width = max(shared, key=int)
    reference = baseline["after"]["batch"][width]["device_ticks_per_sec"]
    measured = report["after"]["batch"][width]["device_ticks_per_sec"]
    floor = reference / max_regression
    print(
        f"regression gate (N={width}): measured {measured:.0f} device-ticks/s "
        f"vs committed {reference:.0f} (floor {floor:.0f}, max regression "
        f"{max_regression}x)"
    )
    if measured < floor:
        print("FAIL: batch kernel regressed beyond the allowed factor")
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
        default="BENCH_batch_kernel.json",
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
