"""Shared fixtures for the tier-1 suite."""

from __future__ import annotations

import pytest


@pytest.fixture(params=["routed", "batch-forced"])
def batch_route(request, monkeypatch):
    """Run a test on the cost model's own route, then with every group batched.

    Small test matrices sit below the batch kernel's crossover, so as routed
    they run scalar; the ``batch-forced`` run patches the routing method to
    send every group (cell chunks and fleet rounds alike) to the batch
    kernel, which keeps that route and its fault sites under test.  NumPy
    still decides: with it absent a forced group runs scalar.
    """
    if request.param == "batch-forced":
        from repro.experiments.costs import CostModel

        route = CostModel.route

        def forced(self, platform, lane_sim_s):
            return route(self, platform, lane_sim_s)._replace(batch=True)

        monkeypatch.setattr(CostModel, "route", forced)
    return request.param
