"""Spread oracles: the estimators behind π, ρ and the greedy rules.

CA-GREEDY and CS-GREEDY are defined against an abstract ability to
evaluate ``σ_i(S)``; how that evaluation happens is what separates the
reference algorithms (exact enumeration, Monte-Carlo) from the scalable
ones (RR sampling, Section 4).  :class:`SpreadOracle` fixes the
interface — spread, revenue ``π_i = cpe(i)·σ_i``, payment
``ρ_i = π_i + c_i`` and their marginals — with memoization, and the
three implementations plug in the corresponding estimator.

Determinism: the Monte-Carlo oracle derives an RNG per ``(ad, seed set)``
query from a base seed, so estimates do not depend on evaluation order
(important for the greedy's argmax stability and for test repeatability).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._rng import as_generator
from repro.diffusion.montecarlo import estimate_spread
from repro.diffusion.worlds import exact_spread
from repro.errors import EstimationError
from repro.rrset.backend import SharedGraphPool, make_backend
from repro.rrset.collection import build_inverted_index
from repro.core.instance import RMInstance


class SpreadOracle(ABC):
    """Cached evaluator of ``σ_i(S)`` and derived quantities."""

    def __init__(self, instance: RMInstance) -> None:
        self.instance = instance
        self._cache: dict[tuple[int, frozenset], float] = {}

    @abstractmethod
    def _spread_uncached(self, ad: int, seeds: frozenset) -> float:
        """Estimate ``σ_i(S)``; *seeds* is validated and non-trivial."""

    # ------------------------------------------------------------------
    def spread(self, ad: int, seeds) -> float:
        """``σ_i(S)``; empty sets have spread 0."""
        if not 0 <= ad < self.instance.h:
            raise EstimationError(f"ad index {ad} out of range [0, {self.instance.h})")
        key = (ad, frozenset(int(s) for s in seeds))
        if not key[1]:
            return 0.0
        if key not in self._cache:
            self._cache[key] = self._spread_uncached(ad, key[1])
        return self._cache[key]

    def marginal_spread(self, ad: int, node: int, seeds) -> float:
        """``σ_i(u | S)``, clipped at 0 to absorb estimator noise."""
        seeds = frozenset(int(s) for s in seeds)
        node = int(node)
        if node in seeds:
            return 0.0
        return max(self.spread(ad, seeds | {node}) - self.spread(ad, seeds), 0.0)

    # ------------------------------------------------------------------
    def revenue(self, ad: int, seeds) -> float:
        """``π_i(S) = cpe(i) · σ_i(S)``."""
        return self.instance.cpe(ad) * self.spread(ad, seeds)

    def marginal_revenue(self, ad: int, node: int, seeds) -> float:
        """``π_i(u | S)``."""
        return self.instance.cpe(ad) * self.marginal_spread(ad, node, seeds)

    def payment(self, ad: int, seeds) -> float:
        """``ρ_i(S) = π_i(S) + c_i(S)``."""
        seeds = list(seeds)
        return self.revenue(ad, seeds) + self.instance.seeding_cost(ad, seeds)

    def marginal_payment(self, ad: int, node: int, seeds) -> float:
        """``ρ_i(u | S) = π_i(u | S) + c_i(u)``."""
        return self.marginal_revenue(ad, node, seeds) + self.instance.incentive(ad, node)

    def total_revenue(self, seed_sets) -> float:
        """``π(S⃗) = Σ_i π_i(S_i)``."""
        return sum(self.revenue(i, seeds) for i, seeds in enumerate(seed_sets))


class ExactOracle(SpreadOracle):
    """Possible-world enumeration; exponential in random arcs (tiny graphs)."""

    def _spread_uncached(self, ad: int, seeds: frozenset) -> float:
        return exact_spread(self.instance.graph, self.instance.ad_probs[ad], seeds)


class MonteCarloOracle(SpreadOracle):
    """Monte-Carlo estimation with order-independent per-query streams."""

    def __init__(self, instance: RMInstance, n_runs: int = 500, seed: int = 0) -> None:
        super().__init__(instance)
        if n_runs < 1:
            raise EstimationError(f"n_runs must be positive, got {n_runs}")
        self.n_runs = int(n_runs)
        self.base_seed = int(seed)

    def _spread_uncached(self, ad: int, seeds: frozenset) -> float:
        key_material = (self.base_seed, ad) + tuple(sorted(seeds))
        rng = as_generator(
            np.random.SeedSequence(entropy=self.base_seed, spawn_key=(hash(key_material) & 0x7FFFFFFF,))
        )
        return estimate_spread(
            self.instance.graph,
            self.instance.ad_probs[ad],
            sorted(seeds),
            n_runs=self.n_runs,
            rng=rng,
        )


class RRStaticOracle(SpreadOracle):
    """Fixed RR samples per ad; ``σ̂_i(S) = n · F_{R_i}(S)``.

    This is the *estimation-only* use of RR sets (no adaptive θ growth) —
    handy for evaluating a finished allocation under an estimator
    independent of the one that produced it.
    """

    def __init__(
        self,
        instance: RMInstance,
        n_samples: int = 10_000,
        seed=None,
        workers: int | None = None,
    ) -> None:
        """*workers* selects the sampling backend (see
        :func:`repro.rrset.backend.make_backend`); the default is
        bit-identical to the pre-seam oracle.  With ``workers >= 2`` all
        ads draw through one worker pool, torn down before the
        constructor returns."""
        super().__init__(instance)
        if n_samples < 1:
            raise EstimationError(f"n_samples must be positive, got {n_samples}")
        rng = as_generator(seed)
        self.n_samples = int(n_samples)
        # One node -> set-ids inverted CSR index per ad, built from the
        # sampler's flat batch output.
        self._memberships: list[tuple[np.ndarray, np.ndarray]] = []
        n = instance.graph.n
        pool = SharedGraphPool(instance.graph, workers) if (workers or 0) > 1 else None
        try:
            for i in range(instance.h):
                sampler = make_backend(
                    instance.graph, instance.ad_probs[i], workers=workers, pool=pool
                )
                members, indptr = sampler.sample_batch_flat(n_samples, rng)
                sids = np.repeat(
                    np.arange(n_samples, dtype=np.int64), np.diff(indptr)
                )
                self._memberships.append(build_inverted_index(members, sids, n))
        finally:
            if pool is not None:
                pool.close()

    def _spread_uncached(self, ad: int, seeds: frozenset) -> float:
        inv_indptr, inv_sets = self._memberships[ad]
        slices = [
            inv_sets[inv_indptr[int(v)] : inv_indptr[int(v) + 1]] for v in seeds
        ]
        hit = np.unique(np.concatenate(slices)).size if slices else 0
        return self.instance.n * hit / self.n_samples
