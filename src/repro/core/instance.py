"""The RM problem instance (Problem 1).

An instance bundles the social graph, the ``h`` advertisers, the
ad-specific arc probabilities ``p^i_{u,v}`` (already mixed via Eq. 1),
and the per-ad incentive vectors ``c_i(u)``.  Validation enforces the
paper's non-degeneracy assumption — every advertiser can afford at least
one seed — in its weakest sufficient form (some node's incentive fits the
budget; the engagement part of the payment is estimator-dependent and is
enforced by the algorithms' feasibility checks).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InstanceError
from repro.graph.digraph import DiGraph
from repro.core.ads import Advertiser


class RMInstance:
    """Inputs of REVENUE-MAXIMIZATION (Problem 1)."""

    __slots__ = ("graph", "advertisers", "ad_probs", "incentives")

    def __init__(
        self,
        graph: DiGraph,
        advertisers: Sequence[Advertiser],
        ad_probs: Sequence[np.ndarray],
        incentives: Sequence[np.ndarray],
    ) -> None:
        if not advertisers:
            raise InstanceError("an RM instance needs at least one advertiser")
        if len(ad_probs) != len(advertisers) or len(incentives) != len(advertisers):
            raise InstanceError(
                "ad_probs and incentives must have one entry per advertiser"
            )
        for pos, adv in enumerate(advertisers):
            if adv.index != pos:
                raise InstanceError(
                    f"advertiser at position {pos} has index {adv.index}; "
                    "indices must equal positions"
                )
            # Payments are cpe · n · (covered fraction) plus incentives;
            # an infinite cpe · n makes a first payment inf · 0 = NaN,
            # which no budget check refuses.
            if not np.isfinite(adv.cpe * float(graph.n)):
                raise InstanceError(
                    f"ad {pos}: cpe {adv.cpe} times n = {graph.n} is not finite"
                )
        checked_probs: list[np.ndarray] = []
        checked_incentives: list[np.ndarray] = []
        for i, (probs, costs) in enumerate(zip(ad_probs, incentives)):
            probs = np.asarray(probs, dtype=np.float64)
            costs = np.asarray(costs, dtype=np.float64)
            if probs.shape != (graph.m,):
                raise InstanceError(
                    f"ad {i}: probabilities must have shape ({graph.m},), got {probs.shape}"
                )
            # Elementwise, so NaN fails too (min()/max() let it pass).
            if not ((probs >= 0.0) & (probs <= 1.0)).all():
                raise InstanceError(f"ad {i}: probabilities must lie in [0, 1]")
            if costs.shape != (graph.n,):
                raise InstanceError(
                    f"ad {i}: incentives must have shape ({graph.n},), got {costs.shape}"
                )
            if not (np.isfinite(costs) & (costs >= 0.0)).all():
                raise InstanceError(
                    f"ad {i}: incentives must be finite and non-negative"
                )
            if costs.size and costs.min() > advertisers[i].budget:
                raise InstanceError(
                    f"ad {i}: no node's incentive fits the budget "
                    f"({costs.min():.3f} > {advertisers[i].budget:.3f}); "
                    "degenerate instances are excluded (Section 2)"
                )
            checked_probs.append(probs)
            checked_incentives.append(costs)
        self.graph = graph
        self.advertisers = list(advertisers)
        self.ad_probs = checked_probs
        self.incentives = checked_incentives

    # ------------------------------------------------------------------
    @property
    def h(self) -> int:
        """Number of advertisers."""
        return len(self.advertisers)

    @property
    def n(self) -> int:
        """Number of nodes in the social graph."""
        return self.graph.n

    def cpe(self, i: int) -> float:
        """Cost-per-engagement of advertiser *i*."""
        return self.advertisers[i].cpe

    def budget(self, i: int) -> float:
        """Campaign budget of advertiser *i*."""
        return self.advertisers[i].budget

    def incentive(self, i: int, u: int) -> float:
        """Seed incentive ``c_i(u)``."""
        return float(self.incentives[i][u])

    def seeding_cost(self, i: int, seeds) -> float:
        """``c_i(S) = Σ_{u∈S} c_i(u)`` (modular)."""
        seeds = list(seeds)
        if not seeds:
            return 0.0
        return float(self.incentives[i][np.asarray(seeds, dtype=np.int64)].sum())

    def max_incentive(self, i: int) -> float:
        """``c^max_i`` — used by the latent seed-size estimate (Eq. 10)."""
        return float(self.incentives[i].max()) if self.graph.n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RMInstance(n={self.n}, m={self.graph.m}, h={self.h})"
