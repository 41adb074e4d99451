"""Set functions used across the theory layer.

Everything in the RM problem is built from monotone submodular pieces:
the spread ``σ_i`` (equivalently a coverage expectation over RR sets),
the revenue ``π_i = cpe(i)·σ_i``, the seeding cost ``c_i`` (modular), and
the payment ``ρ_i = π_i + c_i``.  The classes here give those pieces a
common interface — ``f(S)`` on any iterable of elements plus cached
marginals — so curvature computations, bound evaluations, and property
tests can be written once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from repro._rng import as_generator


class SetFunction(ABC):
    """A real-valued function on subsets of a finite ground set."""

    def __init__(self, ground_set: Iterable[int]) -> None:
        self.ground_set = frozenset(int(x) for x in ground_set)

    @abstractmethod
    def evaluate(self, subset: frozenset) -> float:
        """Value of the function on *subset* (guaranteed ⊆ ground set)."""

    def __call__(self, subset) -> float:
        subset = frozenset(int(x) for x in subset)
        extra = subset - self.ground_set
        if extra:
            raise ValueError(f"elements {sorted(extra)} outside the ground set")
        return self.evaluate(subset)

    def marginal(self, element: int, subset) -> float:
        """``f(element | subset) = f(subset ∪ {element}) − f(subset)``."""
        subset = frozenset(int(x) for x in subset)
        element = int(element)
        if element in subset:
            return 0.0
        return self(subset | {element}) - self(subset)


class ModularFunction(SetFunction):
    """``f(S) = Σ_{x∈S} w_x`` — curvature 0; models seeding costs ``c_i``."""

    def __init__(self, weights: dict[int, float]) -> None:
        super().__init__(weights.keys())
        self.weights = {int(k): float(v) for k, v in weights.items()}

    def evaluate(self, subset: frozenset) -> float:
        return sum(self.weights[x] for x in subset)

    def marginal(self, element: int, subset) -> float:
        """``w_element`` (0 if already in *subset*), exactly.

        The generic ``f(S ∪ {e}) − f(S)`` cancels catastrophically when
        ``w_e`` is tiny next to ``f(S)``, which made curvature read
        above 0 for modular functions.
        """
        subset = frozenset(int(x) for x in subset)
        element = int(element)
        if element in subset:
            return 0.0
        extra = (subset | {element}) - self.ground_set
        if extra:
            raise ValueError(f"elements {sorted(extra)} outside the ground set")
        return self.weights[element]


class CoverageFunction(SetFunction):
    """``f(S) = |∪_{x∈S} cover(x)|`` — the canonical monotone submodular function.

    RR-set coverage (and hence estimated spread) is exactly this shape,
    which is why it anchors the property-test suite.
    """

    def __init__(self, cover: dict[int, Iterable[int]]) -> None:
        super().__init__(cover.keys())
        self.cover = {int(k): frozenset(v) for k, v in cover.items()}

    def evaluate(self, subset: frozenset) -> float:
        covered: set = set()
        for x in subset:
            covered |= self.cover[x]
        return float(len(covered))


class WeightedCoverageFunction(SetFunction):
    """Coverage with per-universe-item weights."""

    def __init__(self, cover: dict[int, Iterable[int]], item_weights: dict[int, float]) -> None:
        super().__init__(cover.keys())
        self.cover = {int(k): frozenset(v) for k, v in cover.items()}
        self.item_weights = {int(k): float(v) for k, v in item_weights.items()}

    def evaluate(self, subset: frozenset) -> float:
        covered: set = set()
        for x in subset:
            covered |= self.cover[x]
        return sum(self.item_weights.get(item, 0.0) for item in sorted(covered))


class ScaledFunction(SetFunction):
    """``(a·f)(S)`` — e.g. revenue as cpe × spread."""

    def __init__(self, base: SetFunction, scale: float) -> None:
        super().__init__(base.ground_set)
        self.base = base
        self.scale = float(scale)

    def evaluate(self, subset: frozenset) -> float:
        return self.scale * self.base.evaluate(subset)


class SumFunction(SetFunction):
    """``(f + g)(S)`` — e.g. payment ``ρ_i = π_i + c_i``."""

    def __init__(self, parts: Sequence[SetFunction]) -> None:
        if not parts:
            raise ValueError("SumFunction needs at least one part")
        ground = frozenset(parts[0].ground_set)
        for part in parts[1:]:
            if frozenset(part.ground_set) != ground:
                raise ValueError("all parts must share the same ground set")
        super().__init__(ground)
        self.parts = list(parts)

    def evaluate(self, subset: frozenset) -> float:
        return sum(part.evaluate(subset) for part in self.parts)


def random_coverage_function(
    n_elements: int,
    n_items: int,
    density: float = 0.3,
    rng: np.random.Generator | None = None,
) -> CoverageFunction:
    """Random coverage instance for tests; element *x* always covers item *x mod n_items*
    so every element has non-zero value (needed by curvature ratios)."""
    rng = as_generator(rng)
    cover: dict[int, set[int]] = {}
    for x in range(n_elements):
        items = set(np.flatnonzero(rng.random(n_items) < density).tolist())
        items.add(x % n_items)
        cover[x] = items
    return CoverageFunction(cover)
