"""Tests for RR-set sampling, including unbiasedness against exact spread.

Every check draws through :meth:`RRSampler.sample_batch_flat`, the
sampler every solve uses.
"""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.diffusion.worlds import exact_spread
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.rrset.collection import estimate_spread_flat
from repro.rrset.sampler import RRSampler
from tests.conftest import assert_within_se


def split(members, indptr):
    """The sets of a flat batch as lists of node ids."""
    return [members[indptr[k] : indptr[k + 1]].tolist() for k in range(indptr.size - 1)]


class TestSamplerBasics:
    def test_target_always_member(self, path_graph, rng):
        sampler = RRSampler(path_graph, np.full(path_graph.m, 0.5))
        sets = split(*sampler.sample_batch_flat(20, rng, roots=np.full(20, 2)))
        assert all(rr[0] == 2 for rr in sets)

    def test_zero_probs_give_singletons(self, path_graph, rng):
        sampler = RRSampler(path_graph, np.zeros(path_graph.m))
        _, indptr = sampler.sample_batch_flat(10, rng)
        assert np.diff(indptr).tolist() == [1] * 10

    def test_deterministic_graph_full_ancestry(self, path_graph, rng):
        sampler = RRSampler(path_graph, np.ones(path_graph.m))
        (rr,) = split(*sampler.sample_batch_flat(1, rng, roots=[3]))
        assert sorted(rr) == [0, 1, 2, 3]

    def test_members_unique(self, rng):
        g = erdos_renyi(30, 0.2, seed=1)
        sampler = RRSampler(g, np.full(g.m, 0.5))
        for rr in split(*sampler.sample_batch_flat(30, rng)):
            assert len(set(rr)) == len(rr)

    def test_invalid_target(self, path_graph, rng):
        sampler = RRSampler(path_graph, np.ones(path_graph.m))
        with pytest.raises(EstimationError):
            sampler.sample_batch_flat(1, rng, roots=[99])

    def test_probability_validation(self, path_graph):
        with pytest.raises(EstimationError):
            RRSampler(path_graph, np.ones(7))
        with pytest.raises(EstimationError):
            RRSampler(path_graph, np.full(path_graph.m, 1.5))

    def test_empty_graph_rejected(self):
        g = DiGraph(0, [], [])
        with pytest.raises(EstimationError):
            RRSampler(g, np.empty(0)).sample_batch_flat(1)

    def test_batch_count(self, path_graph, rng):
        sampler = RRSampler(path_graph, np.ones(path_graph.m))
        _, indptr = sampler.sample_batch_flat(17, rng)
        assert indptr.size == 18
        with pytest.raises(EstimationError):
            sampler.sample_batch_flat(-1)


class TestWidth:
    def test_width_counts_in_edges_of_members(self, path_graph):
        sampler = RRSampler(path_graph, np.full(path_graph.m, 0.7))
        sets = split(*sampler.sample_batch_flat(12, np.random.default_rng(5)))
        widths = sampler.sample_batch_widths(12, np.random.default_rng(5))
        # Width = number of arcs into the RR set's members.
        expected = [sum(path_graph.in_neighbors(v).size for v in rr) for rr in sets]
        assert widths.tolist() == expected


class TestUnbiasedness:
    """``n · F_R(S)`` must estimate ``σ(S)`` without bias (Borgs et al.).

    Each estimate must lie within ``MAX_SE`` binomial standard errors of
    the exact possible-world spread.
    """

    @staticmethod
    def check(graph, probs, seeds, samples, seed):
        sampler = RRSampler(graph, probs)
        members, indptr = sampler.sample_batch_flat(samples, np.random.default_rng(seed))
        estimate = estimate_spread_flat(members, indptr, seeds, graph.n)
        exact = exact_spread(graph, probs, seeds)
        assert_within_se(estimate, exact, graph.n, samples)

    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_singleton_estimate_matches_exact(self, diamond_graph, p):
        self.check(diamond_graph, np.full(diamond_graph.m, p), [0], 20000, 42)

    def test_pair_estimate_matches_exact(self, diamond_graph):
        self.check(diamond_graph, np.full(diamond_graph.m, 0.5), [1, 2], 20000, 43)

    def test_unbiased_on_random_graph(self):
        g = erdos_renyi(12, 0.25, seed=2)
        # Keep the number of random arcs enumerable for exact_spread.
        probs = np.where(np.arange(g.m) % 3 == 0, 0.5, 0.0)
        if (probs > 0).sum() > 18:
            probs[18 * 3 :] = 0.0
        self.check(g, probs, [0, 5], 30000, 44)
