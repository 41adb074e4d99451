"""Parallel-vs-serial parity for the sampler backend seam.

Covers the RNG-stream contract of ``repro.rrset.backend``:

* ``SerialBackend`` is bit-identical to the bare ``RRSampler``;
* the worker count alone picks the backend (``None``/0/1 serial, k >= 2
  parallel), and a parallel backend needs at least two workers;
* parallel output is reproducible for a fixed ``(seed, workers)`` pair;
* the pool's shard merge equals a single-process run of the same shard
  plan (hypothesis-generated graphs);
* the seam threads through the engine, the static oracle and the
  singleton-spread pricer without changing semantics.

The worker count for the cross-process tests honours
``REPRO_TEST_WORKERS`` (default 2) so CI can pin it explicitly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EstimationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_configuration
from repro.rrset.backend import (
    ParallelBackend,
    SerialBackend,
    SharedGraphPool,
    make_backend,
    merge_shards,
    shard_counts,
)
from repro.rrset.sampler import RRSampler, sample_batch_flat_kernel

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2") or 2)


@pytest.fixture(scope="module")
def mid_graph():
    g = powerlaw_configuration(400, mean_degree=6.0, exponent=2.2, seed=5)
    probs = np.random.default_rng(5).random(g.m) * 0.3
    return g, probs


@pytest.fixture(scope="module")
def shared_pool(mid_graph):
    g, _ = mid_graph
    pool = SharedGraphPool(g, WORKERS)
    yield pool
    pool.close()


def graphs(max_n: int = 12):
    """Hypothesis strategy: small random digraphs with edge probabilities."""

    @st.composite
    def _graph(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        m = draw(st.integers(min_value=0, max_value=3 * n))
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                min_size=m,
                max_size=m,
            )
        )
        g = DiGraph.from_edge_list(pairs, n=n)
        probs = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=g.m,
                max_size=g.m,
            )
        )
        return g, np.asarray(probs, dtype=np.float64)

    return _graph()


class TestShardPlan:
    def test_shard_counts_balanced_and_exhaustive(self):
        assert shard_counts(10, 4) == [3, 3, 2, 2]
        assert shard_counts(2, 4) == [1, 1]
        assert shard_counts(0, 3) == []
        assert sum(shard_counts(1234, 7)) == 1234

    def test_shard_counts_rejects_bad_shards(self):
        with pytest.raises(EstimationError):
            shard_counts(5, 0)

    def test_merge_shards_roundtrip(self):
        parts = [
            (np.array([1, 2, 3], dtype=np.int64), np.array([0, 2, 3], dtype=np.int64)),
            (np.array([], dtype=np.int64), np.array([0, 0], dtype=np.int64)),
            (np.array([7], dtype=np.int64), np.array([0, 1], dtype=np.int64)),
        ]
        members, indptr = merge_shards(parts)
        assert members.tolist() == [1, 2, 3, 7]
        assert indptr.tolist() == [0, 2, 3, 3, 4]

    def test_merge_shards_empty(self):
        members, indptr = merge_shards([])
        assert members.size == 0 and indptr.tolist() == [0]


class TestSerialBitIdentity:
    def test_serial_backend_matches_bare_sampler(self, mid_graph):
        g, probs = mid_graph
        a = SerialBackend(g, probs).sample_batch_flat(300, np.random.default_rng(9))
        b = RRSampler(g, probs).sample_batch_flat(300, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestParallelParity:
    def test_same_seed_same_workers_reproducible(self, mid_graph, shared_pool):
        g, probs = mid_graph
        backend = ParallelBackend(g, probs, pool=shared_pool)
        a = backend.sample_batch_flat(500, np.random.default_rng(21))
        b = backend.sample_batch_flat(500, np.random.default_rng(21))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_pool_merge_equals_single_process_plan(self, mid_graph, shared_pool):
        """The pooled result must equal running the identical shard plan
        (same shard sizes, same spawned SeedSequences) in-process."""
        g, probs = mid_graph
        backend = ParallelBackend(g, probs, pool=shared_pool)
        count = 500
        pooled = backend.sample_batch_flat(count, np.random.default_rng(33))

        rng = np.random.default_rng(33)
        counts = shard_counts(count, shared_pool.workers)
        root = np.random.SeedSequence(int(rng.integers(0, 2**63 - 1)))
        sampler = RRSampler(g, probs)
        parts = [
            sample_batch_flat_kernel(
                g.n,
                g.in_indptr,
                g.in_tails,
                sampler.probs_in,
                c,
                np.random.default_rng(seq),
            )
            for c, seq in zip(counts, root.spawn(len(counts)))
        ]
        ref = merge_shards(parts)
        assert np.array_equal(pooled[0], ref[0])
        assert np.array_equal(pooled[1], ref[1])

    def test_parallel_output_is_valid_csr(self, mid_graph, shared_pool):
        g, probs = mid_graph
        backend = ParallelBackend(g, probs, pool=shared_pool)
        members, indptr = backend.sample_batch_flat(257, np.random.default_rng(2))
        assert indptr.size == 258 and indptr[0] == 0
        assert indptr[-1] == members.size
        assert np.all(np.diff(indptr) >= 1)  # every set contains its root
        assert members.min() >= 0 and members.max() < g.n

    def test_count_zero_and_negative(self, mid_graph, shared_pool):
        g, probs = mid_graph
        backend = ParallelBackend(g, probs, pool=shared_pool)
        members, indptr = backend.sample_batch_flat(0, np.random.default_rng(1))
        assert members.size == 0 and indptr.tolist() == [0]
        with pytest.raises(EstimationError):
            backend.sample_batch_flat(-1)

    def test_count_smaller_than_workers(self, mid_graph, shared_pool):
        g, probs = mid_graph
        backend = ParallelBackend(g, probs, pool=shared_pool)
        members, indptr = backend.sample_batch_flat(1, np.random.default_rng(4))
        assert indptr.size == 2 and indptr[-1] == members.size >= 1

    def test_spread_estimates_agree_statistically(self, mid_graph, shared_pool):
        """Parallel draws a different stream but the same distribution:
        mean set size over a large batch must agree with serial."""
        g, probs = mid_graph
        serial = SerialBackend(g, probs)
        parallel = ParallelBackend(g, probs, pool=shared_pool)
        ms, is_ = serial.sample_batch_flat(4000, np.random.default_rng(8))
        mp_, ip_ = parallel.sample_batch_flat(4000, np.random.default_rng(8))
        mean_s = ms.size / 4000
        mean_p = mp_.size / 4000
        assert mean_p == pytest.approx(mean_s, rel=0.15)


@settings(max_examples=12, deadline=None)
@given(data=graphs())
def test_hypothesis_shard_plan_equivalence(data):
    """On arbitrary small graphs, running any shard plan in-process and
    merging equals one serial run per shard — the invariant the pool
    relies on (no cross-shard state, merge is pure offset arithmetic)."""
    g, probs = data
    sampler = RRSampler(g, probs)
    root = np.random.SeedSequence(99)
    counts = shard_counts(23, 4)
    parts = [
        sample_batch_flat_kernel(
            g.n,
            g.in_indptr,
            g.in_tails,
            sampler.probs_in,
            c,
            np.random.default_rng(seq),
        )
        for c, seq in zip(counts, root.spawn(len(counts)))
    ]
    members, indptr = merge_shards(parts)
    # CSR well-formedness
    assert indptr[0] == 0 and indptr[-1] == members.size
    assert indptr.size == 24
    sizes = np.diff(indptr)
    assert np.all(sizes >= 1)
    # Per-shard slices survive the merge byte for byte.
    offset_sets = 0
    for part_members, part_indptr in parts:
        k = part_indptr.size - 1
        lo = indptr[offset_sets]
        hi = indptr[offset_sets + k]
        assert np.array_equal(members[lo:hi], part_members)
        offset_sets += k
    # Every member id is a valid node.
    if members.size:
        assert members.min() >= 0 and members.max() < g.n


class TestFactoryAndLifecycle:
    def test_make_backend_specs(self, mid_graph):
        """The worker count alone picks the backend."""
        g, probs = mid_graph
        for workers in (None, 0, 1):
            assert isinstance(make_backend(g, probs, workers=workers), SerialBackend)
        b = make_backend(g, probs, workers=WORKERS)
        try:
            assert isinstance(b, ParallelBackend)
            assert b.workers == WORKERS
        finally:
            b.close()
        with pytest.raises(EstimationError):
            make_backend(g, probs, workers=-1)

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_parallel_backend_needs_two_workers(self, mid_graph, workers):
        """One worker is the serial backend's job; there is no in-process
        parallel twin of it."""
        g, probs = mid_graph
        with pytest.raises(EstimationError, match="workers >= 2"):
            ParallelBackend(g, probs, workers=workers)

    def test_pool_rejects_foreign_graph(self, mid_graph, shared_pool):
        other = powerlaw_configuration(50, mean_degree=4.0, exponent=2.3, seed=1)
        probs = np.full(other.m, 0.2)
        with pytest.raises(EstimationError):
            ParallelBackend(other, probs, pool=shared_pool)

    def test_pool_close_is_idempotent_and_final(self, mid_graph):
        g, probs = mid_graph
        pool = SharedGraphPool(g, WORKERS)
        backend = ParallelBackend(g, probs, pool=pool)
        backend.sample_batch_flat(10, np.random.default_rng(0))
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(EstimationError):
            backend.sample_batch_flat(10, np.random.default_rng(0))

    def test_backend_close_raises_on_use(self, mid_graph):
        """A closed backend must raise, not silently fall back to the
        serial stream (regression)."""
        g, probs = mid_graph
        backend = ParallelBackend(g, probs, workers=WORKERS)
        backend.sample_batch_flat(5, np.random.default_rng(0))
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(EstimationError):
            backend.sample_batch_flat(5, np.random.default_rng(0))

    def test_probs_registration_dedups(self, mid_graph, shared_pool):
        _, probs = mid_graph
        name1 = shared_pool.register_probs(probs)
        name2 = shared_pool.register_probs(probs.copy())
        assert name1 == name2

    def test_probs_shape_validated(self, mid_graph, shared_pool):
        with pytest.raises(EstimationError):
            shared_pool.register_probs(np.array([0.5]))


class TestSeamConsumers:
    def test_engine_parallel_deterministic_and_valid(self, mid_graph):
        from repro.core.instance import RMInstance
        from repro.core.ads import Advertiser
        from repro.api import EngineSpec, solve

        g, probs = mid_graph
        ads = [Advertiser(index=i, cpe=1.0, budget=60.0) for i in range(2)]
        inst = RMInstance(g, ads, [probs] * 2, [np.full(g.n, 1.0)] * 2)
        spec = EngineSpec(
            eps=0.6, theta_cap=400, opt_lower=5.0, seed=13, workers=WORKERS
        )
        a = solve(inst, "TI-CSRM", spec)
        b = solve(inst, "TI-CSRM", spec)
        for i in range(2):
            assert a.allocation.seeds(i) == b.allocation.seeds(i)
        assert a.extras["workers"] == WORKERS

    def test_engine_workers_1_matches_serial(self, mid_graph):
        from repro.core.instance import RMInstance
        from repro.core.ads import Advertiser
        from repro.api import EngineSpec, solve

        g, probs = mid_graph
        ads = [Advertiser(index=i, cpe=1.0, budget=60.0) for i in range(2)]
        inst = RMInstance(g, ads, [probs] * 2, [np.full(g.n, 1.0)] * 2)
        spec = EngineSpec(eps=0.6, theta_cap=400, opt_lower=5.0, seed=13)
        serial = solve(inst, "TI-CARM", spec)
        for workers in (0, 1):
            one = solve(inst, "TI-CARM", spec, workers=workers)
            for i in range(2):
                assert serial.allocation.seeds(i) == one.allocation.seeds(i)
            assert serial.revenue_per_ad == one.revenue_per_ad
            assert one.extras["workers"] is None  # the serial sampler ran

    def test_singleton_spreads_backend_param(self, mid_graph, shared_pool):
        from repro.diffusion.montecarlo import estimate_singleton_spreads_rr

        g, probs = mid_graph
        serial_default = estimate_singleton_spreads_rr(
            g, probs, n_samples=2000, rng=np.random.default_rng(6)
        )
        serial_explicit = estimate_singleton_spreads_rr(
            g,
            probs,
            n_samples=2000,
            rng=np.random.default_rng(6),
            backend=SerialBackend(g, probs),
        )
        assert np.array_equal(serial_default, serial_explicit)
        parallel = estimate_singleton_spreads_rr(
            g,
            probs,
            n_samples=2000,
            rng=np.random.default_rng(6),
            backend=ParallelBackend(g, probs, pool=shared_pool),
        )
        # Different stream, same estimand: close in aggregate.
        assert parallel.mean() == pytest.approx(serial_default.mean(), rel=0.2)

    def test_rr_static_oracle_backend_parity(self, mid_graph):
        from repro.core.instance import RMInstance
        from repro.core.ads import Advertiser
        from repro.core.oracles import RRStaticOracle

        g, probs = mid_graph
        ads = [Advertiser(index=0, cpe=1.0, budget=50.0)]
        inst = RMInstance(g, ads, [probs], [np.full(g.n, 1.0)])
        serial = RRStaticOracle(inst, n_samples=1500, seed=4)
        one = RRStaticOracle(inst, n_samples=1500, seed=4, workers=1)
        seeds = [0, 1, 2]
        assert serial.spread(0, seeds) == one.spread(0, seeds)
        par = RRStaticOracle(inst, n_samples=1500, seed=4, workers=WORKERS)
        assert par.spread(0, seeds) == pytest.approx(serial.spread(0, seeds), rel=0.25)

    def test_cli_workers_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--dataset",
                "epinions_syn",
                "--algorithm",
                "TI-CSRM",
                "--n",
                "300",
                "--h",
                "2",
                "--theta-cap",
                "300",
                "--workers",
                str(WORKERS),
            ]
        )
        assert code == 0
        assert "TI-CSRM" in capsys.readouterr().out
