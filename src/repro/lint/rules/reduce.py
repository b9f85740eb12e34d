"""REP005: op-order-changing NumPy reductions in the batch kernel.

The batched device-population kernel (:mod:`repro.sim.batch`) promises
per-lane bit-identity with the scalar engine.  That holds only because
every vectorised stage applies the same IEEE-754 operations *in the same
order per lane* as the scalar code.  NumPy reductions (``sum``, ``mean``,
``dot``, ``einsum``, ``@``) are free to reassociate -- pairwise summation,
SIMD blocking, BLAS kernels -- so a reduction over *any* axis (device lanes
or clusters) produces floats the scalar kernel would not, flipping golden
hashes.  The kernel therefore folds across clusters with an explicit
scalar-order loop and keeps the device axis purely element-wise; this rule
pins that discipline.

The scope covers every masked-update code path: the kernel itself (whose
heterogeneous-lane loop masks finished lanes out of each stage) and the
batch recorder (whose per-segment arrays select lanes and gather them back
apart).  A masked reduction is just as lane-crossing as an unmasked one --
boolean indexing selects lanes but the reduction over the survivors still
reassociates -- so masking earns no exemption.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable, Mapping

from repro.lint.engine import Finding, ModuleSource, Rule

_REDUCTION_NAMES = {
    "sum",
    "nansum",
    "mean",
    "nanmean",
    "average",
    "median",
    "std",
    "nanstd",
    "var",
    "nanvar",
    "prod",
    "cumsum",
    "cumprod",
    "dot",
    "vdot",
    "inner",
    "tensordot",
    "matmul",
    "einsum",
    "trace",
}


class LaneCrossingReductionRule(Rule):
    rule_id = "REP005"
    title = "op-order-changing NumPy reduction in the batch kernel"
    rationale = (
        "The batch kernel's contract is per-lane bit-identity with the\n"
        "scalar engine: every vectorised stage applies the same IEEE-754\n"
        "ops in the same order per lane.  NumPy reductions (sum/mean/dot/\n"
        "einsum/@) may reassociate -- pairwise summation, SIMD blocking,\n"
        "BLAS -- so their float results differ from the scalar kernel's\n"
        "left-to-right folds, and differ between NumPy builds.  A reduction\n"
        "over the device axis additionally mixes lanes that must stay\n"
        "independent.\n"
        "\n"
        "Fix: keep array stages element-wise over the device axis, and fold\n"
        "across clusters with an explicit scalar-order loop (see the\n"
        "dynamic_total accumulation in sim/batch.py) or with builtin sum()\n"
        "over Python floats, which folds left-to-right."
    )
    default_include = ("src/repro/sim/batch.py", "src/repro/sim/recorder.py")

    def check(
        self, module: ModuleSource, options: Mapping[str, Any]
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield self.finding(
                    module,
                    node,
                    "matrix multiply (@) reassociates float ops (BLAS); the "
                    "batch kernel must keep per-lane scalar op order",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call(node)
            if name is not None and name.startswith("numpy."):
                attr = name[len("numpy."):]
                if attr in _REDUCTION_NAMES:
                    yield self.finding(
                        module,
                        node,
                        f"NumPy reduction {name}() reassociates float ops and "
                        "may cross device lanes; use element-wise ops or an "
                        "explicit scalar-order fold",
                    )
            elif (
                name is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REDUCTION_NAMES
            ):
                yield self.finding(
                    module,
                    node,
                    f"array-method reduction .{node.func.attr}() reassociates "
                    "float ops and may cross device lanes; use element-wise "
                    "ops or an explicit scalar-order fold",
                )
