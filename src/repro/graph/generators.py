"""Synthetic graph generators.

The paper's evaluation uses four crawled social networks (FLIXSTER,
EPINIONS, DBLP, LIVEJOURNAL).  Those crawls are not redistributable and
are unavailable offline, so the experiment suite builds *synthetic
analogs* from the generators in this module (see the opening of
docs/EXPERIMENTS.md).  The two properties the algorithms are actually
sensitive to are

* heavy-tailed degree distributions (they create the influence
  heterogeneity that separates cost-sensitive from cost-agnostic seeding),
  produced here by :func:`powerlaw_configuration` and
  :func:`preferential_attachment`; and
* enough edge density for cascades to spread a few hops.

Small canned graphs (:func:`star`, :func:`path`, :func:`complete`) back
the exact-oracle tests.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.errors import GraphError
from repro.graph.digraph import DiGraph


def erdos_renyi(n: int, p: float, seed=None) -> DiGraph:
    """G(n, p) digraph: each ordered pair becomes an arc with prob. *p*."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = as_generator(seed)
    # Sample the number of arcs then place them uniformly; avoids the
    # O(n^2) dense mask for sparse regimes.
    total_pairs = n * (n - 1)
    m = rng.binomial(total_pairs, p) if total_pairs else 0
    codes = rng.choice(total_pairs, size=m, replace=False) if m else np.empty(0, dtype=np.int64)
    tails = codes // (n - 1) if n > 1 else np.empty(0, dtype=np.int64)
    offset = codes % (n - 1) if n > 1 else np.empty(0, dtype=np.int64)
    heads = offset + (offset >= tails)  # skip the diagonal
    return DiGraph(n, tails, heads, dedupe=False)


def powerlaw_configuration(
    n: int,
    mean_degree: float,
    exponent: float = 2.3,
    seed=None,
    max_degree: int | None = None,
) -> DiGraph:
    """Directed configuration-model graph with power-law out-degrees.

    Out-degrees follow a discrete power law with the given *exponent*
    (rescaled to hit *mean_degree*); heads are drawn preferentially with
    weight proportional to a second power-law sequence so in-degrees are
    heavy-tailed too, mimicking follower counts in social networks.
    """
    if n <= 1:
        raise GraphError("powerlaw_configuration needs at least 2 nodes")
    if mean_degree <= 0:
        raise GraphError(f"mean_degree must be positive, got {mean_degree}")
    rng = as_generator(seed)
    if max_degree is None:
        max_degree = max(2, int(np.sqrt(n) * 10))

    ranks = np.arange(1, n + 1, dtype=np.float64)
    raw = ranks ** (-1.0 / (exponent - 1.0))
    rng.shuffle(raw)

    out_weights = raw / raw.sum()
    target_m = int(round(mean_degree * n))
    out_deg = rng.multinomial(target_m, out_weights)
    out_deg = np.minimum(out_deg, max_degree)

    # In-degree attractiveness: an independent heavy-tailed sequence.
    in_raw = ranks ** (-1.0 / (exponent - 1.0))
    rng.shuffle(in_raw)
    in_weights = in_raw / in_raw.sum()

    tails = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    heads = rng.choice(n, size=tails.size, p=in_weights)
    keep = tails != heads
    return DiGraph(n, tails[keep], heads[keep], dedupe=True)


def preferential_attachment(n: int, m_per_node: int = 2, seed=None) -> DiGraph:
    """Barabási–Albert-style digraph; each new node links to *m_per_node* hubs.

    Arcs point from the existing (endorsing) node to the new follower and
    vice versa with equal probability, producing correlated in/out
    heavy tails similar to co-follow graphs.
    """
    if n < 2:
        raise GraphError("preferential_attachment needs at least 2 nodes")
    if m_per_node < 1:
        raise GraphError(f"m_per_node must be >= 1, got {m_per_node}")
    rng = as_generator(seed)
    tails: list[int] = []
    heads: list[int] = []
    # Repeated-nodes trick: sampling uniformly from the endpoint multiset
    # implements degree-proportional attachment.
    endpoint_pool: list[int] = [0, 1]
    tails.append(0)
    heads.append(1)
    for v in range(2, n):
        chosen: set[int] = set()
        while len(chosen) < min(m_per_node, v):
            u = endpoint_pool[rng.integers(0, len(endpoint_pool))]
            chosen.add(u)
        for u in sorted(chosen):
            if rng.random() < 0.5:
                tails.append(u)
                heads.append(v)
            else:
                tails.append(v)
                heads.append(u)
            endpoint_pool.extend((u, v))
    return DiGraph(n, tails, heads, dedupe=True)


def kronecker_like(scale: int, edge_factor: int = 8, seed=None) -> DiGraph:
    """R-MAT / Kronecker-style generator (used for the LIVEJOURNAL analog).

    Produces ``2**scale`` nodes and roughly ``edge_factor * n`` arcs with
    the skewed joint degree distribution characteristic of large social
    graphs.  Standard R-MAT quadrant probabilities (0.57, 0.19, 0.19, 0.05).
    """
    if scale < 1:
        raise GraphError(f"scale must be >= 1, got {scale}")
    rng = as_generator(seed)
    n = 1 << scale
    m = edge_factor * n
    a, b, c = 0.57, 0.19, 0.19
    tails = np.zeros(m, dtype=np.int64)
    heads = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        bit_t = ((r >= a + b) & (r < a + b + c)) | (r >= a + b + c)
        bit_h = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        tails |= bit_t.astype(np.int64) << level
        heads |= bit_h.astype(np.int64) << level
    keep = tails != heads
    return DiGraph(n, tails[keep], heads[keep], dedupe=True)


def star(n_leaves: int, outward: bool = True) -> DiGraph:
    """Star with center 0; arcs point center->leaves when *outward*."""
    if n_leaves < 0:
        raise GraphError(f"n_leaves must be non-negative, got {n_leaves}")
    leaves = np.arange(1, n_leaves + 1, dtype=np.int64)
    center = np.zeros(n_leaves, dtype=np.int64)
    if outward:
        return DiGraph(n_leaves + 1, center, leaves, dedupe=False)
    return DiGraph(n_leaves + 1, leaves, center, dedupe=False)


def path(n: int) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    if n < 1:
        raise GraphError(f"path needs at least 1 node, got {n}")
    idx = np.arange(n - 1, dtype=np.int64)
    return DiGraph(n, idx, idx + 1, dedupe=False)


def complete(n: int) -> DiGraph:
    """Complete digraph on *n* nodes (both arc directions, no loops)."""
    if n < 1:
        raise GraphError(f"complete needs at least 1 node, got {n}")
    tails, heads = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    tails = tails.ravel()
    heads = heads.ravel()
    keep = tails != heads
    return DiGraph(n, tails[keep], heads[keep], dedupe=False)
