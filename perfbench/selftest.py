"""Self-test of the benchmark harness on a smoke-sized matrix.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs a 12-cell matrix built here (two stateless governors and a pretrained
Next agent, two apps, two seeds, 4 s sessions) untraced, traced, traced
through a two-worker pool and traced without NumPy, then checks that

* the result line has exactly the documented schema, its metric names
  match ``[A-Za-z0-9_.-]+`` and are exactly those ``BENCHMARK.json`` lists;
* in every traced run, the orchestrator's self times plus
  ``unattributed_s`` equal the traced wall time, and no self time is
  negative;
* pool workers report their spans;
* hashes agree across routes, and a corrupted reference hash, a failed
  cell or a missing cell is counted as a mismatch.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

import run
import spans

SMOKE_MATRIX = {
    "name": "perfbench-smoke",
    "governors": ["schedutil", "powersave", "next"],
    "workloads": ["facebook", "spotify"],
    "seeds": [0, 1],
    "duration_s": 4.0,
    "training": {
        "key": "pretrained",
        "mode": "pretrained",
        "episodes": 1,
        "episode_duration_s": 4.0,
    },
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def main() -> int:
    failures = []

    def check(condition: bool, what: str) -> None:
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            failures.append(what)

    def sweep(mode: str, workers: int = 1, numpy: bool = True) -> dict:
        request = {"mode": mode, "max_workers": workers, "matrices": [SMOKE_MATRIX]}
        return session.child(request, numpy=numpy)

    with run.Session(seed=0) as session:
        probe = sweep("probe")
        untraced = sweep("run")
        traced = sweep("trace")
        pooled = sweep("trace", workers=2)
        scalar = sweep("trace", numpy=False)

    expected = run.hashes_of(scalar["cells"])
    cell_count = probe["cell_count"]
    check(len(expected) == cell_count == 12, "the scalar run completed every cell")
    for label, result in (("untraced", untraced), ("traced", traced), ("pooled", pooled)):
        check(
            run.mismatches(result["cells"], expected) == 0,
            f"{label} hashes equal the scalar route",
        )
    corrupted = dict(expected)
    first = sorted(corrupted)[0]
    corrupted[first] = "0" * len(corrupted[first])
    check(
        run.mismatches(traced["cells"], corrupted) == 1,
        "a corrupted reference hash is detected",
    )
    broken = copy.deepcopy(traced["cells"])
    broken[0]["status"] = "error"
    check(run.mismatches(broken, expected) == 1, "a failed cell counts as a mismatch")
    check(
        run.mismatches(traced["cells"][1:], expected) == 1,
        "a missing cell counts as a mismatch",
    )

    for label, result in (("traced", traced), ("pooled", pooled), ("scalar", scalar)):
        attributed = result["attribution"]
        named = sum(own for kind, own in attributed.items() if kind != spans.ROOT)
        total = named + result["layers"]["unattributed_s"]
        check(
            abs(total - result["wall_s"]) <= 1e-3 + 1e-2 * result["wall_s"],
            f"{label}: self times + unattributed_s = traced wall "
            f"({total:.4f} s vs {result['wall_s']:.4f} s)",
        )
        check(result["min_self_s"] > -1e-6, f"{label}: no negative self time")
    layers = pooled["layers"]
    check(layers["experiments.runner.pool.tasks"] > 0, "pool workers report their spans")
    check(
        layers["experiments.runner.cells_scalar"] + layers["experiments.runner.cells_batched"]
        == cell_count,
        "pooled cells are counted once each",
    )
    check(traced["layers"]["governors.next.decisions"] > 0, "Next decisions are traced")
    check(traced["layers"]["experiments.artifacts.trained"] == 2, "two artifacts trained")
    check(scalar["layers"]["sim.batch.calls"] == 0, "the scalar route runs no batch")

    mismatched = run.mismatches(untraced["cells"] + traced["cells"], expected)
    lines = {
        "end_to_end": run.result_line(
            run.end_to_end_report([probe["setup_s"], untraced["setup_s"]], [untraced]),
            cell_count,
            0,
        ),
        "per_layer": run.result_line(
            run.layer_report(untraced, traced, traced, scalar, 2 * cell_count, mismatched),
            2 * cell_count,
            mismatched,
        ),
    }
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    check(
        [entry["name"] for entry in declared["workloads"]] == list(run.specs.WORKLOADS),
        "the workloads are exactly those BENCHMARK.json lists",
    )
    for kind, line in lines.items():
        line = json.loads(json.dumps(line))
        check(
            set(line) == {"correct", "attempted", "failed", "metrics"}
            and line["correct"] is True
            and isinstance(line["attempted"], int)
            and line["attempted"] >= 1
            and line["failed"] == 0,
            f"{kind}: result line schema",
        )
        check(
            all(
                set(entry) == {"value", "unit"}
                and isinstance(entry["value"], (int, float))
                and isinstance(entry["unit"], str)
                for entry in line["metrics"].values()
            ),
            f"{kind}: every metric has a numeric value and a unit",
        )
        check(
            all(NAME.fullmatch(name) for name in line["metrics"]),
            f"{kind}: metric names match [A-Za-z0-9_.-]+",
        )
        check(
            set(line["metrics"]) == {entry["name"] for entry in declared[kind]},
            f"{kind}: the metrics are exactly those BENCHMARK.json lists",
        )

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
