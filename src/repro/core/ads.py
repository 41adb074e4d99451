"""Advertiser metadata.

Each advertiser brings one ad per time window (the paper uses *i* for
both), described by a topic distribution ``γ⃗_i``, a cost-per-engagement
``cpe(i)`` the host earns for every click, and a campaign budget ``B_i``
capping the advertiser's total payment ``ρ_i(S_i)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import InstanceError
from repro.topics.distribution import TopicDistribution


@dataclass(frozen=True)
class Advertiser:
    """One advertiser / ad in the marketplace."""

    index: int
    cpe: float
    budget: float
    distribution: TopicDistribution | None = None
    name: str = field(default="")

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InstanceError(f"advertiser index must be >= 0, got {self.index}")
        for name in ("cpe", "budget"):
            # NaN or ±inf would poison every payment mid-solve.
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InstanceError(f"{name} must be finite and positive, got {value}")
        if not self.name:
            object.__setattr__(self, "name", f"ad-{self.index}")

    def engagements_affordable(self) -> float:
        """``B_i / cpe(i)``: engagement count the budget could buy with free seeds.

        ``R ≤ min(n, Σ_i ⌊B_i/cpe(i)⌋)`` uses this quantity (Section 3.1).
        """
        return self.budget / self.cpe
