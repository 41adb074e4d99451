"""Monte-Carlo and RR-based influence-spread estimation.

Exact spread computation is #P-hard under IC (and hence TIC), so the
paper estimates: Monte-Carlo simulation (5K runs) for the singleton
spreads that parametrize incentives on the quality datasets, out-degree
proxies on the scalability datasets, and RR sampling inside the
algorithms.  This module provides all three building blocks; the
RR-based batch singleton estimator is the offline default because one
shared sample prices every node at once (same estimand, far cheaper —
see the opening of docs/EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.errors import EstimationError
from repro.graph.digraph import DiGraph
from repro.diffusion.simulate import simulate_cascade
from repro.rrset.sampler import RRSampler


def estimate_spread(
    graph: DiGraph,
    probs: np.ndarray,
    seeds,
    n_runs: int = 1000,
    rng=None,
) -> float:
    """Monte-Carlo estimate of ``σ(S)``: mean activated count over *n_runs*."""
    if n_runs < 1:
        raise EstimationError(f"n_runs must be positive, got {n_runs}")
    rng = as_generator(rng)
    seeds = list(seeds)
    if not seeds:
        return 0.0
    total = 0
    for _ in range(n_runs):
        total += int(simulate_cascade(graph, probs, seeds, rng).sum())
    return total / n_runs


def estimate_singleton_spreads(
    graph: DiGraph,
    probs: np.ndarray,
    n_runs: int = 1000,
    rng=None,
    nodes=None,
) -> np.ndarray:
    """Monte-Carlo ``σ({u})`` for each node (paper's 5K-run procedure).

    Returns a dense length-``n`` vector; *nodes* restricts the computation
    (other entries are left as 0).  Cost is ``O(len(nodes) · n_runs)``
    cascades — prefer :func:`estimate_singleton_spreads_rr` at scale.
    """
    rng = as_generator(rng)
    result = np.zeros(graph.n, dtype=np.float64)
    node_iter = range(graph.n) if nodes is None else [int(v) for v in nodes]
    for u in node_iter:
        result[u] = estimate_spread(graph, probs, [u], n_runs=n_runs, rng=rng)
    return result


def estimate_singleton_spreads_rr(
    graph: DiGraph,
    probs: np.ndarray,
    n_samples: int = 20_000,
    rng=None,
) -> np.ndarray:
    """RR-based batch estimate of every singleton spread.

    ``σ({u}) = n · E[u ∈ R]`` for a random RR set ``R``, so counting
    memberships over one shared sample prices all nodes simultaneously.
    Every estimate is floored at 1: a seed always engages itself.  The
    sample is one serial :class:`~repro.rrset.sampler.RRSampler` batch.
    """
    if n_samples < 1:
        raise EstimationError(f"n_samples must be positive, got {n_samples}")
    rng = as_generator(rng)
    # Members are unique within each set, so one bincount over the flat
    # batch counts every node's memberships across all sets at once.
    members, _ = RRSampler(graph, probs).sample_batch_flat(n_samples, rng)
    counts = np.bincount(members, minlength=graph.n)
    return np.maximum(graph.n * counts / n_samples, 1.0)


def degree_proxy_spreads(graph: DiGraph) -> np.ndarray:
    """Out-degree + 1 as a stand-in for ``σ({u})``.

    The paper uses out-degree on DBLP and LIVEJOURNAL "due to the
    prohibitive computational cost of Monte Carlo simulations"; the +1
    accounts for the seed's own engagement so the proxy is always a valid
    spread (≥ 1).
    """
    return graph.out_degrees().astype(np.float64) + 1.0
