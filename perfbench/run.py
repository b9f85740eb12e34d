"""Sweep benchmark: named sweeps timed end to end, plus a traced layer split.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; every sweep executes the checkout's
``src/repro`` in a fresh interpreter with a cold result cache.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment stamp and every metric by name with its unit.

``--trace 0`` reports the end-to-end metrics of untraced runs:

* ``setup_s``: interpreter launch to entering ``SweepRunner.run`` (median
  of several set-ups: stand-alone probes plus each measured run);
* ``wall_s``: time inside ``SweepRunner.run``, summed over the workload's
  matrices (median over runs; at least ``MIN_RUNS`` runs, and more until
  ``--seconds`` have passed);
* ``sim_s_per_host_s``: simulated session seconds of the evaluated cells
  per wall second (training episodes are not counted);
* ``peak_rss_mb``: largest RSS high-water mark of the sweep interpreter and
  its pool workers.

``--trace 1`` runs the workload once untraced and once with every layer
boundary wrapped (:mod:`spans`), and reports per-layer self times, counts
and ratios.  ``sim.batch.vs_scalar`` divides the batch kernel's device
ticks per second on the ``platforms`` matrix with NumPy by the scalar
engine's ticks per second on the same matrix without NumPy, both traced at
the same time in the same invocation (``specs.KERNEL_PAIR``).

Output check: every run must return every cell of its matrices.  With the
default workload seed every cell's ``sample_stream_hash`` must equal the
committed scalar-route reference in ``reference_hashes.json``.  With any
other seed, later runs must agree with the first, untraced invocations
re-execute a seeded sample of cells on the scalar route, and traced
invocations compare every cell traced against untraced and the kernel
pair's NumPy run against its scalar run.  A missing or failed cell or a
differing hash makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "reference_hashes.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: Every invocation must finish well inside the 180 s limit.
BUDGET_S = 170.0
#: Stand-alone set-up probes per untraced invocation, after one warm-up
#: probe (each measured run contributes one more set-up sample).
SETUP_PROBES = 6
#: Untraced runs per invocation at the least; more run while ``--seconds``
#: have not passed.
MIN_RUNS = 2
#: Cells re-executed on the other route by an untraced non-default-seed run.
SAMPLED_REFERENCE_CELLS = 2


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong result)."""


def metric_units() -> Dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {
        entry["name"]: entry["unit"]
        for kind in ("end_to_end", "per_layer")
        for entry in declared[kind]
    }


# -- children ----------------------------------------------------------------------------


class Session:
    """One invocation: its work directory, deadline and child launcher."""

    def __init__(self, seed: int, budget_s: float = BUDGET_S) -> None:
        self.seed = seed
        self.deadline = time.monotonic() + budget_s
        self.workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        self._children = 0

    def __enter__(self) -> "Session":
        os.makedirs(self.workdir)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another invocation still uses it

    def remaining_s(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, request: dict, numpy: bool) -> dict:
        """Run ``child.py`` on ``request`` in a fresh interpreter; its result."""
        return self.children([(request, numpy)])[0]

    def children(self, jobs: Sequence[Tuple[dict, bool]]) -> List[dict]:
        """Run ``child.py`` once per ``(request, numpy)``, all at the same time."""
        launched = [self._launch(request, numpy) for request, numpy in jobs]
        try:
            return [self._collect(process, request) for process, request in launched]
        finally:
            for process, _ in launched:
                if process.poll() is None:
                    # The child leads its own session, so this stops its pool too.
                    os.killpg(process.pid, signal.SIGKILL)
                    process.wait()

    def _launch(self, request: dict, numpy: bool) -> Tuple[subprocess.Popen, dict]:
        self._children += 1
        step = os.path.join(self.workdir, f"step-{self._children}")
        os.makedirs(step)
        request = dict(
            request,
            root=ROOT,
            numpy=numpy,
            workdir=step,
            result=os.path.join(step, "result.json"),
            stderr=os.path.join(step, "stderr.txt"),
        )
        request_path = os.path.join(step, "request.json")
        with open(request_path, "w", encoding="utf-8") as handle:
            json.dump(request, handle)
        # Bytecode is cached per invocation, so every set-up after the first
        # one imports warm whatever the caller's PYTHONDONTWRITEBYTECODE says.
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONPYCACHEPREFIX=os.path.join(self.workdir, "pycache"),
        )
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("REPRO_TRACE", None)
        env.pop("REPRO_FAULT_PLAN", None)
        if self.remaining_s() <= 0:
            raise BenchmarkError("time budget exhausted")
        with open(request["stderr"], "w", encoding="utf-8") as stderr:
            process = subprocess.Popen(
                [
                    sys.executable,
                    os.path.join(HERE, "child.py"),
                    request_path,
                    repr(time.monotonic()),
                ],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
            )
        return process, request

    def _collect(self, process: subprocess.Popen, request: dict) -> dict:
        try:
            process.wait(timeout=max(self.remaining_s(), 0.0))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{request['mode']} step exceeded the time budget")
        if process.returncode != 0:
            with open(request["stderr"], "r", encoding="utf-8") as handle:
                details = handle.read()[-4000:]
            raise BenchmarkError(
                f"{request['mode']} step failed ({process.returncode}):\n{details}"
            )
        with open(request["result"], "r", encoding="utf-8") as handle:
            result = json.load(handle)
        shutil.rmtree(os.path.join(request["workdir"], "cache"), ignore_errors=True)
        return result

    def sweep_job(self, workload, mode: str) -> Tuple[dict, bool]:
        """The child job of one probe, untraced or traced run of ``workload``."""
        request = {
            "mode": mode,
            "max_workers": workload.max_workers,
            "matrices": specs.workload_matrices(workload, self.seed),
        }
        return request, workload.numpy

    def sweep(self, workload, mode: str) -> dict:
        """One probe, untraced or traced run of ``workload`` under this seed."""
        return self.child(*self.sweep_job(workload, mode))


# -- output checks -----------------------------------------------------------------------


def load_references() -> Dict[str, str]:
    """Committed ``fingerprint -> sample_stream_hash`` of the default seed."""
    with open(REFERENCES, "r", encoding="utf-8") as handle:
        by_matrix = json.load(handle)
    return {
        fingerprint: digest
        for hashes in by_matrix.values()
        for fingerprint, digest in hashes.items()
    }


def workload_cells(workload, seed: int) -> list:
    """Every ``ScenarioCell`` one run of ``workload`` must return."""
    from repro.experiments.matrix import ScenarioMatrix

    return [
        cell
        for data in specs.workload_matrices(workload, seed)
        for cell in ScenarioMatrix.from_dict(data).cells()
    ]


def expected_hashes(workload, seed: int, first_run: Sequence[dict]) -> Dict[str, Optional[str]]:
    """``fingerprint -> hash`` every run of ``workload`` must reproduce.

    The default seed takes the committed references; any other seed takes
    the hashes of ``first_run``, so the first run is held only to returning
    every cell, and later runs and other routes to agreeing with it.
    """
    known = load_references() if seed == specs.DEFAULT_SEED else hashes_of(first_run)
    return {
        cell.fingerprint(): known.get(cell.fingerprint())
        for cell in workload_cells(workload, seed)
    }


def failed_cells(cells: Sequence[dict]) -> int:
    """Cells that ended in ``error``."""
    return sum(1 for cell in cells if cell["status"] != "ok")


def mismatches(cells: Sequence[dict], expected: Dict[str, Optional[str]]) -> int:
    """Expected cells that are missing, failed or hash differently.

    A returned cell that ``expected`` does not list counts as well.
    """
    returned = {cell["fingerprint"] for cell in cells}
    missing = sum(1 for fingerprint in expected if fingerprint not in returned)
    return missing + sum(
        1
        for cell in cells
        if cell["status"] != "ok" or expected.get(cell["fingerprint"]) != cell["hash"]
    )


def hashes_of(cells: Sequence[dict]) -> Dict[str, str]:
    """``fingerprint -> hash`` of the cells that completed."""
    return {cell["fingerprint"]: cell["hash"] for cell in cells if cell["status"] == "ok"}


def sample_cells(workload, cells: Sequence[dict], seed: int, count: int) -> list:
    """A seeded sample of one run's completed cells."""
    rng = random.Random(f"{workload.name}:{seed}")
    by_fingerprint = {cell.fingerprint(): cell for cell in workload_cells(workload, seed)}
    candidates = [
        by_fingerprint[fingerprint]
        for fingerprint in sorted(hashes_of(cells))
        if fingerprint in by_fingerprint
    ]
    return rng.sample(candidates, min(count, len(candidates)))


# -- environment -------------------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp(workload, seed: int) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_in_workload": workload.numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "pool_start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
    }


# -- the two kinds of invocation ---------------------------------------------------------


def end_to_end(session: Session, workload, seconds: float) -> Tuple[dict, int, int]:
    """Untraced runs: ``(metrics, cells attempted, cells failed or mismatched)``."""
    session.sweep(workload, "probe")  # fills the bytecode cache
    setups = [session.sweep(workload, "probe")["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    started = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - started < seconds:
        if runs and session.remaining_s() < 2.5 * runs[-1]["wall_s"] + 20.0:
            break
        runs.append(session.sweep(workload, "run"))
    setups.extend(run["setup_s"] for run in runs)
    print("wall_s per run " + " ".join(f"{run['wall_s']:.4f}" for run in runs))
    expected = expected_hashes(workload, session.seed, runs[0]["cells"])
    attempted = len(expected) * len(runs)
    bad = sum(mismatches(run["cells"], expected) for run in runs)
    if session.seed != specs.DEFAULT_SEED:
        # Every workload runs with NumPy, so the other route is the scalar one.
        sample = sample_cells(workload, runs[0]["cells"], session.seed, SAMPLED_REFERENCE_CELLS)
        reference = session.child(
            {"mode": "reference", "cells": [cell.spec() for cell in sample]}, numpy=False
        )
        sampled = {cell.fingerprint(): expected[cell.fingerprint()] for cell in sample}
        attempted += len(sampled)
        bad += mismatches(reference["cells"], sampled)
    return end_to_end_report(setups, runs), attempted, bad


def end_to_end_report(setups: Sequence[float], runs: Sequence[dict]) -> Dict[str, float]:
    """Medians over set-up samples and untraced runs of one workload."""
    sim_s = sum(cell["sim_s"] for cell in runs[0]["cells"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "sim_s_per_host_s": statistics.median(sim_s / run["wall_s"] for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def per_layer(session: Session, workload) -> Tuple[dict, int, int]:
    """One untraced and one traced run, plus the same-sitting kernel ratio."""
    session.sweep(workload, "probe")  # fills the bytecode cache
    untraced = session.sweep(workload, "run")
    traced = session.sweep(workload, "trace")
    expected = expected_hashes(workload, session.seed, untraced["cells"])
    checked = 2 * len(expected)
    bad = mismatches(untraced["cells"], expected) + mismatches(traced["cells"], expected)
    # The kernel-ratio pair runs concurrently, one sweep per CPU, so a
    # change of host speed slows both sides of the ratio alike.
    numpy_run, scalar_run = session.children(
        [session.sweep_job(pair_workload, "trace") for pair_workload in specs.KERNEL_PAIR]
    )
    expected_pair = expected_hashes(specs.KERNEL_PAIR[1], session.seed, scalar_run["cells"])
    bad_pair = mismatches(scalar_run["cells"], expected_pair) + mismatches(
        numpy_run["cells"], expected_pair
    )
    metrics = layer_report(untraced, traced, numpy_run, scalar_run, checked, bad)
    return metrics, checked + 2 * len(expected_pair), bad + bad_pair


def layer_report(
    untraced: dict,
    traced: dict,
    numpy_run: dict,
    scalar_run: dict,
    checked: int,
    mismatched: int,
) -> Dict[str, float]:
    """Per-layer metrics of a traced run, with its untraced twin and the pair.

    ``numpy_run`` and ``scalar_run`` are traced runs of the same cells with
    and without NumPy; of the ``checked`` cells ``untraced`` and ``traced``
    had to return, ``mismatched`` were missing, failed or hashed wrong.
    """
    metrics = dict(traced["layers"])
    metrics["experiments.runner.retries"] = sum(cell["attempts"] for cell in traced["cells"])
    metrics["trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    scalar_rate = scalar_run["layers"]["sim.engine.ticks_per_s"]
    metrics["sim.batch.vs_scalar"] = (
        numpy_run["layers"]["sim.batch.device_ticks_per_s"] / scalar_rate
        if scalar_rate > 0
        else 0.0
    )
    metrics["cells_failed_frac"] = failed_cells(untraced["cells"] + traced["cells"]) / checked
    metrics["hash_mismatch_frac"] = mismatched / checked
    return metrics


def result_line(metrics: Dict[str, float], attempted: int, failed: int) -> dict:
    """The final JSON object the benchmark prints."""
    units = metric_units()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One invocation; returns the result object."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = specs.WORKLOADS[workload_name]
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError(f"no src/repro package under {ROOT}")
    print("env " + json.dumps(environment_stamp(workload, seed), sort_keys=True))
    with Session(seed) as session:
        if trace:
            metrics, attempted, failed = per_layer(session, workload)
        else:
            metrics, attempted, failed = end_to_end(session, workload, seconds)
    result = result_line(metrics, attempted, failed)
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    return result


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
