"""One benchmark step in a fresh interpreter: ``child.py REQUEST LAUNCHED``.

``REQUEST`` is a JSON file written by ``run.py``; ``LAUNCHED`` is the
``time.monotonic()`` reading the parent took just before starting this
interpreter, so set-up time covers interpreter start, imports, matrix
expansion and store construction.  Modes:

* ``probe``: set up as for a run, then stop before ``SweepRunner.run``;
* ``run``: one untraced, cold-cache run of the request's matrices;
* ``trace``: the same run with :mod:`spans` wrapping every layer boundary;
* ``reference``: re-execute the request's cells one by one through
  ``execute_cell``; run without NumPy, this is the scalar route.

The result is written as JSON to the request's ``result`` path.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cell_record(result) -> dict:
    summary = result.summary or {}
    return {
        "fingerprint": result.cell.fingerprint(),
        "label": result.cell.label(),
        "status": result.status,
        "hash": summary.get("sample_stream_hash"),
        "attempts": len(result.attempts or ()),
        "sim_s": result.cell.workload.duration_s,
    }


def _peak_rss_mb() -> float:
    """Largest RSS high-water mark of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _import_repro(root: str) -> None:
    """Import the package from the checkout's ``src``, and nowhere else."""
    source = os.path.join(root, "src")
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {source}")


def _reference(request: dict) -> dict:
    from repro.experiments.matrix import ScenarioCell
    from repro.experiments.runner import execute_cell

    cells = [ScenarioCell.from_spec(spec) for spec in request["cells"]]
    return {"cells": [_cell_record(execute_cell(cell)) for cell in cells]}


def main(request_path: str, launched: float) -> None:
    with open(request_path, "r", encoding="utf-8") as handle:
        request = json.load(handle)
    if not request["numpy"]:
        sys.modules["numpy"] = None  # makes `import numpy` raise ImportError
    _import_repro(request["root"])
    if request["mode"] == "reference":
        output = _reference(request)
    else:
        from repro.experiments.matrix import ScenarioMatrix
        from repro.experiments.runner import SweepRunner

        log = None
        if request["mode"] == "trace":
            import spans

            log = spans.install(request["workdir"])
        matrices = [ScenarioMatrix.from_dict(data) for data in request["matrices"]]
        cell_count = sum(len(matrix.cells()) for matrix in matrices)
        runner = SweepRunner(
            max_workers=request["max_workers"],
            cache_dir=os.path.join(request["workdir"], "cache"),
        )
        entered = time.monotonic()
        output = {"setup_s": entered - launched, "cell_count": cell_count}
        if request["mode"] != "probe":
            wall_s = 0.0
            results = []
            for matrix in matrices:
                started = time.monotonic()
                sweep = runner.run(matrix)
                wall_s += time.monotonic() - started
                results.extend(sweep.results)
            output["wall_s"] = wall_s
            output["peak_rss_mb"] = _peak_rss_mb()
            output["cells"] = [_cell_record(result) for result in results]
            if log is not None:
                workers = spans.load_worker_spans(request["workdir"])
                output["layers"] = spans.layer_metrics(
                    log.spans, workers, request["max_workers"]
                )
                output["attribution"] = spans.attribution(log.spans)
                output["min_self_s"] = min(
                    min(spans.self_times(process), default=0.0)
                    for process in [log.spans, *workers]
                )
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(output, handle)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
