"""Topic-aware influence probabilities on graph edges.

Under the TIC model (Barbieri et al.) every arc ``(u, v)`` carries one
probability per latent topic, ``p^z_{u,v}``, and an ad with topic
distribution ``γ⃗_i`` propagates along the arc with the mixture

    ``p^i_{u,v} = Σ_z γ^z_i · p^z_{u,v}``            (Eq. 1)

:class:`TICModel` stores the ``L × m`` tensor and evaluates the mixture;
the module-level factories build the standard single-topic probability
assignments used in the paper's experiments (Weighted Cascade for
EPINIONS/DBLP/LIVEJOURNAL; trivalency and uniform as common variants).
All per-edge arrays are indexed by the graph's canonical edge ids.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.errors import TopicModelError
from repro.graph.digraph import DiGraph
from repro.topics.distribution import TopicDistribution


class TICModel:
    """Per-topic edge probabilities plus Eq. 1 mixing.

    Parameters
    ----------
    graph:
        The social graph the tensor is defined on.
    tensor:
        Array of shape ``(L, m)``; ``tensor[z, e]`` is ``p^z`` for edge *e*
        in canonical order.  Values must lie in ``[0, 1]``.
    """

    __slots__ = ("graph", "tensor")

    def __init__(self, graph: DiGraph, tensor) -> None:
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.ndim != 2 or tensor.shape[1] != graph.m:
            raise TopicModelError(
                f"tensor must have shape (L, {graph.m}), got {tensor.shape}"
            )
        if tensor.size and (tensor.min() < 0.0 or tensor.max() > 1.0):
            raise TopicModelError("edge probabilities must lie in [0, 1]")
        self.graph = graph
        self.tensor = tensor

    @property
    def n_topics(self) -> int:
        """Number of latent topics ``L``."""
        return int(self.tensor.shape[0])

    def ad_probabilities(self, distribution: TopicDistribution) -> np.ndarray:
        """Ad-specific edge probabilities ``p^i`` via Eq. 1 (length ``m``)."""
        if distribution.n_topics != self.n_topics:
            raise TopicModelError(
                f"ad has {distribution.n_topics} topics, model has {self.n_topics}"
            )
        return distribution.gamma @ self.tensor

    def topic_probabilities(self, topic: int) -> np.ndarray:
        """The raw probability vector of one latent topic."""
        if not 0 <= topic < self.n_topics:
            raise TopicModelError(f"topic {topic} out of range [0, {self.n_topics})")
        return self.tensor[topic].copy()


def weighted_cascade(graph: DiGraph) -> np.ndarray:
    """Weighted-Cascade probabilities ``p_{u,v} = 1 / indegree(v)`` [24].

    Used by the paper for EPINIONS, DBLP and LIVEJOURNAL (all ads share
    these probabilities, i.e. ``L = 1`` and every pair of ads is in pure
    competition).
    """
    indeg = graph.in_degrees().astype(np.float64)
    _, heads = graph.edge_array()
    return 1.0 / indeg[heads]


def weighted_cascade_capped(graph: DiGraph, cap: float = 0.2) -> np.ndarray:
    """Weighted Cascade with probabilities capped at *cap*.

    Pure WC assigns probability 1 to arcs into indegree-1 nodes, which on
    *small* graphs chains into a near-deterministic giant core: the top
    singleton spread reaches 15–20% of ``n``, a finite-size artifact the
    paper's 76K–4.8M-node graphs do not exhibit in relative terms.
    Capping the arc probability restores the paper's regime (top spreads
    of a few percent of ``n``) while preserving WC's degree-driven
    heterogeneity.  Used by the synthetic analog datasets (see the
    opening of docs/EXPERIMENTS.md).
    """
    if not 0.0 < cap <= 1.0:
        raise TopicModelError(f"cap must be in (0, 1], got {cap}")
    return np.minimum(weighted_cascade(graph), cap)


def uniform_probabilities(graph: DiGraph, p: float) -> np.ndarray:
    """Constant probability *p* on every arc."""
    if not 0.0 <= p <= 1.0:
        raise TopicModelError(f"probability must be in [0, 1], got {p}")
    return np.full(graph.m, p, dtype=np.float64)


def trivalency(graph: DiGraph, seed=None, levels=(0.1, 0.01, 0.001)) -> np.ndarray:
    """Trivalency model: each arc draws uniformly from *levels*."""
    rng = as_generator(seed)
    levels = np.asarray(levels, dtype=np.float64)
    if levels.min() < 0.0 or levels.max() > 1.0:
        raise TopicModelError("trivalency levels must lie in [0, 1]")
    return levels[rng.integers(0, levels.size, size=graph.m)]


def random_tic_model(
    graph: DiGraph,
    n_topics: int,
    seed=None,
    levels=(0.1, 0.01, 0.001),
    affinity_concentration: float = 0.3,
) -> TICModel:
    """Ground-truth TIC tensor standing in for MLE-learned probabilities.

    The paper uses probabilities learned from Flixster logs with ``L = 10``
    topics.  Offline we synthesize a comparable tensor: every edge gets a
    Dirichlet *topic affinity* (sparse, so most edges are influential in
    few topics) which scales a trivalency-style base probability.  High
    affinity concentrates influence in a topic, reproducing the
    topic-specific influencer structure the incentive model keys on.
    """
    if n_topics < 1:
        raise TopicModelError(f"need at least one topic, got {n_topics}")
    rng = as_generator(seed)
    base = trivalency(graph, rng, levels)
    # Edge-topic affinities: sparse Dirichlet rows, scaled so the peak
    # affinity maps to the full base probability.
    affinities = rng.dirichlet(
        np.full(n_topics, affinity_concentration), size=graph.m
    ).T  # (L, m)
    if graph.m:
        peak = affinities.max(axis=0)
        peak[peak <= 0] = 1.0
        tensor = np.clip(affinities / peak * base, 0.0, 1.0)
    else:
        tensor = np.zeros((n_topics, 0))
    return TICModel(graph, tensor)
