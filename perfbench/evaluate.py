"""Out-of-sample revenue, graded independently of the solver's own sets.

The engine reports revenue on the RR sets that chose the seeds, which is
biased upwards.  :class:`OOSEvaluator` re-estimates each allocation on a
separate RR sample per (graph, probability family), drawn by the
benchmark with seeds no solve can use: solve seeds are single integers,
sample seeds are five-word entropy lists.  :func:`mc_cross_check` then
compares a few of those estimates with forward Monte Carlo, so a broken
sampler cannot grade itself.
"""

from __future__ import annotations

import math
import statistics
import zlib

import numpy as np

from repro.experiments.harness import evaluate_allocation_mc
from repro.rrset.collection import estimate_spread_flat
from repro.rrset.sampler import RRSampler

#: RR sets per (graph, probability family) in the out-of-sample draw.
OOS_SETS = 20_000
_OOS_TAG = 0x5EED0005
#: Monte Carlo cross-check: batches x cascades per batch, and the allowed
#: distance in combined standard errors (t with 31 degrees of freedom
#: exceeds 5 with probability ~2e-5).
MC_BATCHES = 32
MC_RUNS = 20
MC_SIGMAS = 5.0
_MC_BASE = 1 << 40


class OOSEvaluator:
    """Spread estimates on benchmark-owned RR samples.

    *graph_key* names the graph a sample belongs to: a tuple of integers,
    the dataset index and the update epoch.  The sample seed mixes the
    benchmark seed, the graph key and a checksum of the family's
    probabilities, so it does not depend on the order of requests.
    Samples are kept until :meth:`forget` drops their graph.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._samples: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _sample(self, graph_key: tuple, graph, probs: np.ndarray):
        key = (graph_key, probs.tobytes())
        sample = self._samples.get(key)
        if sample is None:
            family = zlib.crc32(key[1])
            rng = np.random.default_rng([_OOS_TAG, self.seed, *graph_key, family])
            sample = RRSampler(graph, probs, kernel="numpy").sample_batch_flat(OOS_SETS, rng)
            self._samples[key] = sample
        return sample

    def revenue(self, graph_key: tuple, instance, seed_sets) -> tuple[float, float]:
        """``(Σ_i cpe_i·n·F̂_i(S_i), standard error)`` for one allocation.

        The standard error adds the per-ad errors, which bounds it under
        any correlation between ads that share a sample.
        """
        n = instance.n
        total = 0.0
        error = 0.0
        for ad, seeds in enumerate(seed_sets):
            if not seeds:
                continue
            members, indptr = self._sample(graph_key, instance.graph, instance.ad_probs[ad])
            spread = estimate_spread_flat(members, indptr, seeds, n)
            share = spread / n
            cpe = instance.cpe(ad)
            total += cpe * spread
            error += cpe * n * math.sqrt(share * (1.0 - share) / (indptr.size - 1))
        return total, error

    def forget(self, graph_key: tuple) -> None:
        """Drop the samples drawn on *graph_key* (a graph no longer used)."""
        for key in [k for k in self._samples if k[0] == graph_key]:
            del self._samples[key]


def mc_cross_check(instance, result, oos: float, oos_error: float, seed: int) -> dict:
    """Forward Monte Carlo revenue of *result*, compared with *oos*.

    Runs :data:`MC_BATCHES` independent batches of
    :func:`evaluate_allocation_mc`; the batch spread gives the Monte
    Carlo standard error.  ``ok`` holds when the two estimates are within
    :data:`MC_SIGMAS` combined standard errors.
    """
    totals = [
        evaluate_allocation_mc(
            instance, result, n_runs=MC_RUNS, seed=_MC_BASE + seed * MC_BATCHES + k
        )
        for k in range(MC_BATCHES)
    ]
    mc = statistics.fmean(totals)
    mc_error = statistics.stdev(totals) / math.sqrt(MC_BATCHES)
    limit = MC_SIGMAS * math.hypot(mc_error, oos_error)
    return {
        "mc_revenue": mc,
        "mc_error": mc_error,
        "oos_revenue": oos,
        "oos_error": oos_error,
        "limit": limit,
        "ok": abs(oos - mc) <= limit,
    }
