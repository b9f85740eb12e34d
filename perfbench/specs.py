"""Workload table and seed-driven matrix generation for the sweep benchmark.

Every workload is one or more named scenario matrices run back to back by
one :class:`~repro.experiments.runner.SweepRunner` in a fresh interpreter.
The default workload seed runs the named matrices unchanged; any other seed
replaces each matrix's replication seeds with values derived from it, via
the matrix's public ``to_dict``/``from_dict``.  The program under test only
ever receives the generated matrix description.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: The workload seed that reproduces the named matrices exactly (and is the
#: one the committed reference hashes belong to).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which matrices, how many workers, NumPy or not."""

    name: str
    matrices: Tuple[str, ...]
    max_workers: int
    numpy: bool


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("baselines-pool2", ("baselines",), 2, True),
        Workload("learned-seq", ("trained-next", "federated"), 1, True),
    )
}

#: The same-sitting kernel pair behind ``sim.batch.vs_scalar``: the same
#: cells with and without NumPy, traced side by side in every traced run.
KERNEL_PAIR: Tuple[Workload, Workload] = (
    Workload("platforms-numpy", ("platforms",), 1, True),
    Workload("platforms-scalar", ("platforms",), 1, False),
)


def derived_seeds(seed: int, matrix_name: str, count: int) -> List[int]:
    """``count`` distinct 31-bit replication seeds derived from ``seed``."""
    seeds = []
    for index in range(count):
        text = f"perfbench\x1f{seed}\x1f{matrix_name}\x1f{index}"
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        seeds.append(int.from_bytes(digest[:8], "big") % (2**31 - 1))
    if len(set(seeds)) != count:
        raise ValueError(f"seed {seed} derives colliding replication seeds")
    return seeds


def matrix_description(matrix_name: str, seed: int) -> Dict[str, Any]:
    """The ``to_dict`` description of one named matrix under a workload seed."""
    from repro.experiments.matrix import named_matrix

    description = named_matrix(matrix_name).to_dict()
    if seed != DEFAULT_SEED:
        description["seeds"] = derived_seeds(
            seed, matrix_name, len(description["seeds"])
        )
    return description


def workload_matrices(workload: Workload, seed: int) -> List[Dict[str, Any]]:
    """The matrix descriptions one run of ``workload`` executes, in order."""
    return [matrix_description(name, seed) for name in workload.matrices]
