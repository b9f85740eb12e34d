"""Per-cell timeout budgets for the sweep runner's worker watchdog.

A hung worker (deadlocked native code, an injected hang, a stalled NFS
read) must not stall a thousand-cell sweep forever.  The watchdog gives
every pool job a wall-clock budget derived from the same
:class:`~repro.experiments.costs.CostModel` that prices shard plans:
the model already estimates how long each cell *should* take, so "hung"
is simply "took a generous multiple of that estimate".  The runner
abandons expired futures, rebuilds its pool and reschedules the affected
cells with a bumped attempt counter -- recovery, not failure, because the
bit-identity contract guarantees the rescheduled cell produces the same
bytes.

The policy object here is deliberately duck-typed over the cost model
(anything with its ``*_cost_s`` pricing methods), so the reliability
package does not import :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional


@dataclass(frozen=True)
class WatchdogPolicy:
    """Wall-clock budgets for pool jobs, priced from a cost model.

    ``multiplier`` scales the cost model's estimate (generous by default:
    estimates come from one benchmark machine, workers may be far slower),
    ``floor_s`` bounds the budget from below (tiny cells must not get
    millisecond budgets that normal scheduling jitter would trip), and
    ``cell_timeout_s`` -- the ``--cell-timeout`` override -- replaces the
    derived per-cell budget with a flat one.
    """

    cost_model: Optional[Any] = None
    multiplier: float = 20.0
    floor_s: float = 60.0
    cell_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if self.floor_s < 0:
            raise ValueError("floor_s must be non-negative")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive")

    def _priced(self, price: Callable[[Any], float]) -> Optional[float]:
        """The flat override, else ``multiplier`` x the model's price, floored."""
        if self.cell_timeout_s is not None:
            # The flat override is per job, training included: an operator
            # pinning timeouts wants *no* job to outlive the pin.
            return self.cell_timeout_s
        if self.cost_model is None:
            return None
        return max(self.floor_s, self.multiplier * price(self.cost_model))

    @staticmethod
    def _total(budgets: List[Optional[float]]) -> Optional[float]:
        """A batched job's budget: the sum of its members' (unbounded if any is)."""
        if any(budget is None for budget in budgets):
            return None
        return sum(budgets)

    def cell_budget_s(self, cell: Any) -> Optional[float]:
        """Budget for one cell's evaluation, or ``None`` for no limit."""
        return self._priced(lambda model: model.cell_cost_s(cell))

    def batch_budget_s(self, cells: Any) -> Optional[float]:
        """Budget for one batched group: the sum of its members' budgets.

        A batch future completes only when every lane has finished, so its
        budget is the group's total -- still bounded, and never tighter than
        any single member's own budget.
        """
        return self._total([self.cell_budget_s(cell) for cell in cells])

    def spec_budget_s(self, spec: Any) -> Optional[float]:
        """Budget for training one spec (a cell's, or a fleet's round-0 device)."""
        return self._priced(lambda model: model.spec_training_cost_s(spec))

    def round_budget_s(self, jobs: Any) -> Optional[float]:
        """Budget for fleet-round device jobs, run one per job or batched.

        Each device is priced from the model's training rate; a batched
        round sums its devices, like :meth:`batch_budget_s`.
        """
        return self._total(
            [
                self._priced(lambda model, job=job: model.device_round_cost_s(job))
                for job in jobs
            ]
        )
