"""Opt-in sampling profiler for the 60 Hz hot loops.

The Fig. 1 hot loop (``Simulation._run_ticks`` and its batched
counterpart ``BatchSimulation._run_ticks``) binds its stage callables to
locals before the tick loop.  The profiler exploits that: when enabled,
the loop rebinds each stage callable through :meth:`HotLoopProfiler.wrap`,
a closure that times every ``stride``-th call into a per-stage bucket and
passes results through untouched -- bit-identity holds by construction
because the wrapped function *is* the original function plus two clock
reads.  Both kernels bucket the same six :data:`STAGES`; the batch
kernel's ``pipeline`` covers the per-device frame queues and the
vectorised finish, and its ``governor`` covers both the per-lane
invocations and the grouped vectorised updates.  ``workload`` covers
the per-tick demand reads (``WorkloadTrace.demand_at``, once per demand
group on the batch kernel) and the per-run demand entry (``take_demand``:
a live workload's recording).  The batch kernel's ``recorder`` also
covers the fold of each full window into the lanes' digests.

When disabled (the default), :func:`active_profiler` returns ``None``
and the loops take their original, unwrapped path: the cost is one
module-global read per ``_run_ticks`` call and zero per-tick work or
allocations.  That is the "compiled out to a no-op" contract the
overhead benchmark pins.

The closures read ``time.perf_counter`` directly -- diagnostic timing
that is reported but never folded into results -- and are allowlisted in
``[tool.repro-lint.REP002]`` like the runner's ``elapsed_s`` sites.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, Optional

from contextlib import contextmanager

#: Canonical stage names, in hot-loop order.
STAGES = ("workload", "pipeline", "power_thermal", "scaler", "governor", "recorder")


class HotLoopProfiler:
    """Buckets hot-loop time into named stages at a configurable stride."""

    def __init__(self, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.calls: Dict[str, int] = {}
        self.sampled: Dict[str, int] = {}
        self.wall_s: Dict[str, float] = {}

    def wrap(self, stage: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` instrumented to time every ``stride``-th call."""
        calls = self.calls
        sampled = self.sampled
        wall_s = self.wall_s
        calls.setdefault(stage, 0)
        sampled.setdefault(stage, 0)
        wall_s.setdefault(stage, 0.0)
        stride = self.stride

        def timed(*args: Any, **kwargs: Any) -> Any:
            # time.perf_counter is read as an attribute (not a pre-bound
            # local) so the REP002 linter *sees* this wall-clock site and
            # the pyproject allowlist entry visibly sanctions it.
            count = calls[stage] + 1
            calls[stage] = count
            if count % stride:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            wall_s[stage] += time.perf_counter() - started
            sampled[stage] += 1
            return result

        return timed

    def snapshot(self) -> Dict[str, Any]:
        stages = sorted(set(self.calls) | set(self.wall_s))
        return {
            "stride": self.stride,
            "stages": {
                stage: {
                    "calls": self.calls.get(stage, 0),
                    "sampled": self.sampled.get(stage, 0),
                    "wall_s": self.wall_s.get(stage, 0.0),
                }
                for stage in stages
            },
        }


#: ``None`` = profiling disabled: the hot loops take their unwrapped path.
_active_profiler: Optional[HotLoopProfiler] = None


def activate_profiling(stride: int = 1) -> HotLoopProfiler:
    global _active_profiler
    _active_profiler = HotLoopProfiler(stride=stride)
    return _active_profiler


def deactivate_profiling() -> None:
    global _active_profiler
    _active_profiler = None


def active_profiler() -> Optional[HotLoopProfiler]:
    return _active_profiler


@contextmanager
def profiled(stride: int = 1) -> Iterator[HotLoopProfiler]:
    profiler = activate_profiling(stride=stride)
    try:
        yield profiler
    finally:
        deactivate_profiling()
