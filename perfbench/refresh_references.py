"""Regenerate ``reference_hashes.json`` from the scalar route.

Usage (from the root of a checkout)::

    python3 perfbench/refresh_references.py

Runs every matrix the workloads use, under the default workload seed,
sequentially with NumPy made unimportable, and records each cell's
``sample_stream_hash`` by matrix and cell fingerprint.  Only needed when a
change alters simulated results on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import run
import specs


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    workloads = [*specs.WORKLOADS.values(), *specs.KERNEL_PAIR]
    names = sorted({name for workload in workloads for name in workload.matrices})
    by_matrix = {}
    with run.Session(specs.DEFAULT_SEED, budget_s=1800.0) as session:
        for name in names:
            request = {
                "mode": "run",
                "max_workers": 1,
                "matrices": [specs.matrix_description(name, specs.DEFAULT_SEED)],
            }
            cells = session.child(request, numpy=False)["cells"]
            if run.failed_cells(cells):
                print(f"refresh_references: {name} has failed cells", file=sys.stderr)
                return 1
            by_matrix[name] = {cell["fingerprint"]: cell["hash"] for cell in cells}
    with open(run.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(by_matrix, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
