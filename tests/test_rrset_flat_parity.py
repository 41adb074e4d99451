"""Parity tests for the flat CSR RR backend and the lazy TI engine.

Three layers of evidence that the flat data plane preserves estimator
semantics exactly:

1. the vectorized level-synchronous batch sampler reproduces, bit for
   bit, a transparent pure-Python reference that consumes the identical
   RNG stream (same draw shapes, same order);
2. the flat :class:`RRCollection` / :class:`SharedRRCollection` match a
   naive list-of-sets reference implementation (a mirror of the legacy
   backend's semantics) on residual counts, covered totals and return
   values, under hypothesis-generated workloads;
3. seeded end-to-end runs of all four algorithms are identical across
   lazy/eager candidate evaluation and across shared/private sampling
   (for probability-distinct ads, where the streams must coincide).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineSpec
from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.core.ti_engine import TIEngine
from repro.graph.generators import erdos_renyi
from repro.rrset.collection import (
    RRCollection,
    SharedRRCollection,
    SharedRRStore,
    estimate_spread_flat,
)
from repro.rrset.sampler import RRSampler
from repro.topics.edge_probs import weighted_cascade
from tests.conftest import flat_sets


# ----------------------------------------------------------------------
# 1. Sampler parity against a transparent reference
# ----------------------------------------------------------------------
def reference_batch_flat(sampler, count, rng):
    """Pure-Python mirror of ``sample_batch_flat``'s RNG stream.

    Same draws in the same order: one vectorized root draw, then per
    chunk and per BFS level one ``rng.random(E)`` over the frontier's
    candidate arcs (frontier ascending by (set, node), each node's
    in-arc slice contiguous).
    """
    n = sampler.graph.n
    in_indptr = sampler._in_indptr
    tails = sampler._in_tails
    probs = sampler.probs_in
    roots = rng.integers(0, n, size=count).astype(np.int64)
    chunk = sampler._chunk_size(count)
    per_set: list[list[int]] = [[] for _ in range(count)]
    for c0 in range(0, count, chunk):
        c1 = min(c0 + chunk, count)
        visited = set()
        frontier = []
        for ls, k in enumerate(range(c0, c1)):
            root = int(roots[k])
            per_set[k].append(root)
            visited.add((ls, root))
            frontier.append((ls, root))
        while frontier:
            edges = []
            for ls, v in frontier:
                for e in range(int(in_indptr[v]), int(in_indptr[v + 1])):
                    edges.append((ls, e))
            if not edges:
                break
            draws = rng.random(len(edges))
            cand = [
                (ls, int(tails[e]))
                for (ls, e), d in zip(edges, draws)
                if d < probs[e]
            ]
            if not cand:
                break
            fresh = [
                key
                for key in sorted({ls * n + node for ls, node in cand})
                if (key // n, key % n) not in visited
            ]
            if not fresh:
                break
            frontier = []
            for key in fresh:
                ls, node = key // n, key % n
                visited.add((ls, node))
                per_set[c0 + ls].append(node)
                frontier.append((ls, node))
    members = (
        np.concatenate([np.asarray(s, dtype=np.int64) for s in per_set])
        if count
        else np.empty(0, dtype=np.int64)
    )
    indptr = np.concatenate(
        ([0], np.cumsum([len(s) for s in per_set]))
    ).astype(np.int64)
    return members, indptr


def _parity_sampler(n, density, seed, p):
    """An ER graph with uniform arc probability *p*, or Weighted-Cascade
    probabilities (``1 / in-degree`` of each arc's head) for ``"wc"``."""
    g = erdos_renyi(n, density, seed=seed)
    return RRSampler(g, weighted_cascade(g) if p == "wc" else np.full(g.m, p))


class TestSamplerParity:
    # "wc" draws per-arc probabilities that vary with the head's
    # in-degree; "dense-er" expands ~20 in-arcs per frontier node, so
    # ~80% of a level's candidate keys are duplicates or already
    # visited — the level dedup's hard case.
    @pytest.mark.parametrize(
        "n, density, p",
        [
            (40, 0.15, 0.0),
            (40, 0.15, 0.3),
            (40, 0.15, 1.0),
            (40, 0.5, "wc"),
            (40, 0.5, 0.3),
        ],
        ids=["0.0", "0.3", "1.0", "wc", "dense-er"],
    )
    def test_flat_batch_matches_reference(self, n, density, p):
        sampler = _parity_sampler(n, density, 3, p)
        fast_m, fast_i = sampler.sample_batch_flat(64, np.random.default_rng(9))
        ref_m, ref_i = reference_batch_flat(sampler, 64, np.random.default_rng(9))
        assert fast_i.tolist() == ref_i.tolist()
        assert fast_m.tolist() == ref_m.tolist()

    @pytest.mark.parametrize(
        "n, density, p",
        [(25, 0.2, 0.5), (25, 0.6, "wc"), (25, 0.6, 0.3)],
        ids=["0.5", "wc", "dense-er"],
    )
    def test_flat_batch_matches_reference_across_chunks(
        self, monkeypatch, n, density, p
    ):
        """Chunk boundaries must not change the sampled sets' semantics
        relative to the reference, which follows the same chunking."""
        monkeypatch.setattr(RRSampler, "_CHUNK_BYTES", n * 7)  # chunk = 7
        sampler = _parity_sampler(n, density, 4, p)
        assert sampler._chunk_size(50) == 7
        fast_m, fast_i = sampler.sample_batch_flat(50, np.random.default_rng(11))
        ref_m, ref_i = reference_batch_flat(sampler, 50, np.random.default_rng(11))
        assert fast_i.tolist() == ref_i.tolist()
        assert fast_m.tolist() == ref_m.tolist()

    def test_sets_are_valid_rr_sets(self):
        """Root first, members unique, all members reach the root in the
        full graph (a necessary condition of reverse reachability)."""
        g = erdos_renyi(30, 0.2, seed=5)
        sampler = RRSampler(g, np.full(g.m, 0.6))
        members, indptr = sampler.sample_batch_flat(40, np.random.default_rng(12))
        # Full-graph reachability: reverse-BFS closure from each root.
        for k in range(40):
            rr = members[indptr[k] : indptr[k + 1]]
            assert rr.size >= 1
            assert len(set(rr.tolist())) == rr.size
            closure = {int(rr[0])}
            stack = [int(rr[0])]
            while stack:
                v = stack.pop()
                for u in g.in_neighbors(v):
                    if int(u) not in closure:
                        closure.add(int(u))
                        stack.append(int(u))
            assert set(rr.tolist()) <= closure


# ----------------------------------------------------------------------
# 2. Collection parity against a naive reference (legacy semantics)
# ----------------------------------------------------------------------
class NaiveCollection:
    """List-of-sets mirror of the legacy RRCollection semantics."""

    def __init__(self, n_nodes):
        self.n_nodes = n_nodes
        self.sets: list[np.ndarray] = []
        self.covered: list[bool] = []
        self.covered_total = 0
        self.counts = np.zeros(n_nodes, dtype=np.int64)

    def add_sets(self, new_sets, seeds=()):
        seed_set = {int(s) for s in seeds}
        absorbed = 0
        for members in new_sets:
            members = np.asarray(members, dtype=np.int64)
            self.sets.append(members)
            if seed_set & set(members.tolist()):
                self.covered.append(True)
                self.covered_total += 1
                absorbed += 1
                continue
            self.covered.append(False)
            self.counts[members] += 1
        return absorbed

    def mark_covered_by(self, node):
        newly = 0
        for sid, members in enumerate(self.sets):
            if self.covered[sid] or node not in members.tolist():
                continue
            self.covered[sid] = True
            self.covered_total += 1
            newly += 1
            self.counts[members] -= 1
        return newly

    def spread_estimate(self, seed_set):
        hits = sum(
            1
            for s in self.sets
            if set(int(v) for v in seed_set) & set(s.tolist())
        )
        return self.n_nodes * hits / len(self.sets)


set_lists = st.lists(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=5),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(
    set_lists,
    st.frozensets(st.integers(0, 7), max_size=2),
    st.lists(st.integers(0, 7), max_size=4),
)
def test_flat_collection_matches_naive(rr_sets, seeds, cover_nodes):
    """Counts, covered totals and return values track the naive mirror
    through an arbitrary add + cover sequence."""
    arrays = [np.asarray(sorted(s), dtype=np.int64) for s in rr_sets]
    flat = RRCollection(8)
    naive = NaiveCollection(8)
    assert flat.add_sets_flat(*flat_sets(*arrays), seeds=list(seeds)) == naive.add_sets(
        arrays, seeds=list(seeds)
    )
    for node in cover_nodes:
        assert flat.mark_covered_by(node) == naive.mark_covered_by(node)
        assert flat.counts.tolist() == naive.counts.tolist()
        assert flat.covered_total == naive.covered_total
    assert flat.spread_estimate(list(seeds or {0})) == pytest.approx(
        naive.spread_estimate(list(seeds or {0}))
    )
    # Invariant: residual counts always equal a from-scratch recount.
    recount = np.zeros(8, dtype=np.int64)
    for sid, members in enumerate(arrays):
        if not naive.covered[sid]:
            recount[members] += 1
    assert flat.counts.tolist() == recount.tolist()


@settings(max_examples=40, deadline=None)
@given(
    set_lists,
    st.frozensets(st.integers(0, 7), max_size=2),
    st.integers(0, 7),
    st.integers(0, 12),
)
def test_shared_adopt_matches_private_add(rr_sets, seeds, cover_node, split):
    """Adopting a store prefix in two steps is equivalent to feeding the
    same sets (same seeds) to a private collection in two batches."""
    arrays = [np.asarray(sorted(s), dtype=np.int64) for s in rr_sets]
    split = min(split, len(arrays))
    store = SharedRRStore(8)
    store.extend_flat(*flat_sets(*arrays))
    view = SharedRRCollection(store)
    private = RRCollection(8)
    view.adopt(split, seeds=list(seeds))
    private.add_sets_flat(*flat_sets(*arrays[:split]), seeds=list(seeds))
    assert view.mark_covered_by(cover_node) == private.mark_covered_by(cover_node)
    view.adopt(len(arrays), seeds=list(seeds))
    private.add_sets_flat(*flat_sets(*arrays[split:]), seeds=list(seeds))
    assert view.counts.tolist() == private.counts.tolist()
    assert view.covered_total == private.covered_total
    assert view.theta == private.theta


def test_estimate_spread_flat_matches_naive():
    rr = flat_sets([0, 1], [2], [0, 3])
    assert estimate_spread_flat(*rr, [0], 4) == pytest.approx(4 * 2 / 3)
    assert estimate_spread_flat(*rr, [1, 2], 4) == pytest.approx(4 * 2 / 3)
    assert estimate_spread_flat(*rr, [5], 4) == 0.0


# ----------------------------------------------------------------------
# 3. End-to-end engine parity
# ----------------------------------------------------------------------
ALGOS = [
    ("carm", "ca", "revenue"),
    ("csrm", "cs", "rate"),
    ("pr-gr", "pagerank", "revenue"),
    ("pr-rr", "pagerank", "round_robin"),
]


def distinct_prob_instance(h=3, n=50, seed=21):
    """Every ad gets a different probability vector, so shared-sampling
    groups are singletons and shared/private streams must coincide."""
    g = erdos_renyi(n, 0.1, seed=seed)
    rng = np.random.default_rng(seed + 1)
    advs = [Advertiser(index=i, cpe=1.0, budget=11.0) for i in range(h)]
    probs = [np.full(g.m, 0.2 + 0.1 * i) for i in range(h)]
    incentives = [rng.uniform(0.1, 1.0, size=n) for _ in range(h)]
    return RMInstance(g, advs, probs, incentives)


def run_engine(inst, rule, selector, *, eager=False, **overrides):
    """One engine run; *eager* swaps candidate caching for the full rescan."""
    spec = EngineSpec(eps=0.7, theta_cap=500, opt_lower=4.0, seed=17).override(
        **overrides
    )
    engine = TIEngine(inst, spec, candidate_rule=rule, selector=selector)
    if eager:
        engine.lazy_candidates = False
    return engine.run()


class TestEngineParity:
    @pytest.mark.parametrize("name,rule,selector", ALGOS, ids=[a[0] for a in ALGOS])
    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_lazy_matches_eager(self, name, rule, selector, share):
        """CELF-style candidate caching must not change any allocation."""
        inst = distinct_prob_instance()
        lazy = run_engine(inst, rule, selector, share_samples=share)
        eager = run_engine(inst, rule, selector, share_samples=share, eager=True)
        assert lazy.extras["lazy_candidates"] and not eager.extras["lazy_candidates"]
        assert lazy.allocation.pairs() == eager.allocation.pairs()
        assert lazy.revenue_per_ad == pytest.approx(eager.revenue_per_ad)
        assert lazy.seeding_cost_per_ad == pytest.approx(eager.seeding_cost_per_ad)
        assert lazy.extras["theta_per_ad"] == eager.extras["theta_per_ad"]

    @pytest.mark.parametrize("name,rule,selector", ALGOS, ids=[a[0] for a in ALGOS])
    def test_shared_matches_private_for_distinct_probs(self, name, rule, selector):
        """With singleton sharing groups the RNG streams coincide, so the
        backend swap (store+view vs private collection) must be invisible:
        identical seeds, residuals, covered totals, allocations."""
        inst = distinct_prob_instance()
        private = run_engine(inst, rule, selector, share_samples=False)
        shared = run_engine(inst, rule, selector, share_samples=True)
        assert private.allocation.pairs() == shared.allocation.pairs()
        assert private.revenue_per_ad == pytest.approx(shared.revenue_per_ad)
        assert private.extras["theta_per_ad"] == shared.extras["theta_per_ad"]

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_seeded_runs_are_reproducible(self, share):
        inst = distinct_prob_instance()
        for _, rule, selector in ALGOS:
            a = run_engine(inst, rule, selector, share_samples=share)
            b = run_engine(inst, rule, selector, share_samples=share)
            assert a.allocation.pairs() == b.allocation.pairs()
            assert a.revenue_per_ad == pytest.approx(b.revenue_per_ad)

    def test_engine_collections_match_recount(self):
        """After a full run, every per-ad residual state is consistent:
        counts equal a recount over uncovered sets, covered_total equals
        the covered-flag sum (the mark_covered_by/adopt invariants)."""
        inst = distinct_prob_instance()
        engine = TIEngine(
            inst,
            EngineSpec(eps=0.7, theta_cap=500, opt_lower=4.0, seed=17),
            candidate_rule="cs",
            selector="rate",
        )
        engine.run()
        for state in engine._states:
            coll = state.collection
            recount = np.zeros(inst.n, dtype=np.int64)
            for sid in range(coll.theta):
                if not coll.covered[sid]:
                    recount[state.store.set_members(sid)] += 1
            assert coll.counts.tolist() == recount.tolist()
            assert coll.covered_total == int(np.asarray(coll.covered).sum())

    def test_group_key_uses_raw_bytes(self):
        """Ads with equal probability vectors (distinct array objects)
        share one store; ads with different vectors never do."""
        g = erdos_renyi(30, 0.1, seed=30)
        advs = [Advertiser(index=i, cpe=1.0, budget=8.0) for i in range(3)]
        probs = [
            np.full(g.m, 0.3),
            np.full(g.m, 0.3),  # equal values, different object
            np.full(g.m, 0.4),
        ]
        incentives = [np.full(30, 0.5) for _ in range(3)]
        inst = RMInstance(g, advs, probs, incentives)
        engine = TIEngine(
            inst,
            EngineSpec(eps=0.8, theta_cap=200, opt_lower=3.0, seed=31, share_samples=True),
            candidate_rule="cs",
            selector="rate",
        )
        engine.run()
        stores = {id(s.store) for s in engine._states}
        assert len(stores) == 2
        assert id(engine._states[0].store) == id(engine._states[1].store)
