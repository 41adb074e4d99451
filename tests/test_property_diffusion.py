"""Property-based tests for diffusion and RR estimators on random tiny graphs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.diffusion.worlds import exact_spread
from repro.graph.digraph import DiGraph
from repro.rrset.collection import RRCollection
from repro.rrset.sampler import RRSampler
from tests.conftest import assert_within_se, flat_sets


@st.composite
def tiny_weighted_graphs(draw):
    """A graph on <= 6 nodes with <= 8 probabilistic arcs."""
    n = draw(st.integers(2, 6))
    n_edges = draw(st.integers(0, 8))
    edges = set()
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((u, v))
    g = DiGraph.from_edge_list(sorted(edges), n=n)
    probs = np.array(
        [draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for _ in range(g.m)]
    )
    return g, probs


@settings(max_examples=30, deadline=None)
@given(tiny_weighted_graphs(), st.integers(0, 2**6 - 1))
def test_exact_spread_monotone(graph_probs, mask):
    g, probs = graph_probs
    seeds = [v for v in range(g.n) if mask >> v & 1]
    base = exact_spread(g, probs, seeds)
    for extra in range(g.n):
        grown = exact_spread(g, probs, set(seeds) | {extra})
        assert grown >= base - 1e-9


@settings(max_examples=30, deadline=None)
@given(tiny_weighted_graphs())
def test_exact_spread_bounds(graph_probs):
    g, probs = graph_probs
    for u in range(g.n):
        s = exact_spread(g, probs, [u])
        assert 1.0 - 1e-9 <= s <= g.n + 1e-9


@settings(max_examples=25, deadline=None)
@given(tiny_weighted_graphs())
def test_exact_spread_submodular(graph_probs):
    g, probs = graph_probs
    # f(x | S+y) <= f(x | S) for the first few triples.
    nodes = list(range(min(g.n, 4)))
    for x in nodes:
        for y in nodes:
            if x == y:
                continue
            s0 = exact_spread(g, probs, [])
            sx = exact_spread(g, probs, [x])
            sy = exact_spread(g, probs, [y])
            sxy = exact_spread(g, probs, [x, y])
            assert sxy - sy <= sx - s0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(tiny_weighted_graphs())
def test_rr_estimator_tracks_exact_spread(graph_probs):
    """n*F_R({u}) from the batch sampler lies within MAX_SE binomial
    standard errors of sigma({u}) for every node."""
    g, probs = graph_probs
    samples = 4000
    members, _ = RRSampler(g, probs).sample_batch_flat(
        samples, np.random.default_rng(0)
    )
    # Members are unique within a set, so a bincount counts the sets
    # each node hits.
    counts = np.bincount(members, minlength=g.n)
    for u in range(g.n):
        estimate = g.n * counts[u] / samples
        assert_within_se(estimate, exact_spread(g, probs, [u]), g.n, samples)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 7),
)
def test_collection_counts_match_naive_recount(rr_sets, cover_node):
    """Residual counts always equal a from-scratch recount."""
    c = RRCollection(8)
    c.add_sets_flat(*flat_sets(*(sorted(s) for s in rr_sets)))
    c.mark_covered_by(cover_node)
    naive = np.zeros(8, dtype=int)
    for sid, members in enumerate(rr_sets):
        if cover_node in members:
            continue
        for v in members:
            naive[v] += 1
    assert c.counts.tolist() == naive.tolist()
    assert c.covered_total == sum(1 for s in rr_sets if cover_node in s)
