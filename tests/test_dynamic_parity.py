"""Differential/property layer for incremental RR maintenance (§14).

The dynamic-graph tentpole claims that
:meth:`AllocationSession.apply_edge_updates` keeps a warm store
*correct under change*: invalidation is edge-precise, resampling is
root-preserving and touches only the invalidated fraction, and the
maintained store is statistically indistinguishable from a cold
resample — bit-identical wherever the stream contract makes that
possible.  This suite locks each claim:

* **Precision & recall of invalidation** (hypothesis sweeps): every
  invalidated set really contains a changed head (it "would not have
  been valid"), and every surviving set's recorded reverse BFS replays
  identically on the new graph — each member's full in-arc slice
  (tails *and* probabilities) is unchanged, which by the touched-edge
  theorem (coins are flipped on exactly the in-arcs of members) means
  re-running the traversal reproduces the set verbatim.
* **Exactly-the-invalidated-fraction resampling**, asserted through
  ``session.stats`` deltas (the acceptance criterion).
* **Bit-identity** where the documented streams allow it: survivors of
  a pure probability-decrease batch match a same-seed cold store
  slot-for-slot; an update batch touching no stored set leaves the
  store bit-identical to a cold same-seed resample on the *new* graph;
  and the whole incremental pipeline is deterministic per seed.
* **Cold-vs-incremental allocation parity** on seeded TI-CSRM /
  TI-CARM runs, within CI tolerance.
* **Golden seeded allocations** for the mutated path across
  backend × spill.
* **Mutation-in-flight faults**: a worker killed during the
  invalidation resample recovers bit-identically; the ``mutate.delay``
  seam fires once per resample batch and never on a no-op update.
* **Spill → invalidate → query**: the inverted index and
  ``sets_containing`` stay consistent with membership after a memmap
  spill followed by a partial ``replace_sets``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AllocationSession, EngineSpec, solve
from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.faults import FaultPlan, FaultRule, fault_plan
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.updates import (
    UPDATE_OPS,
    compile_updates,
    random_update_batch,
)
from repro.rrset.collection import SharedRRStore
from repro.rrset.sampler import RRSampler

SPEC = EngineSpec(
    eps=1.0, theta_cap=200, opt_lower="kpt", kpt_max_samples=150, seed=13
)


def _instance(graph: DiGraph, probs=None, h: int = 2, budgets=(8.0, 8.0)):
    """An h-ad instance whose ads share one probability vector (one store)."""
    if probs is None:
        probs = np.full(graph.m, 0.3)
    probs = np.asarray(probs, dtype=np.float64)
    advertisers = [
        Advertiser(index=i, cpe=1.0, budget=float(budgets[i])) for i in range(h)
    ]
    incentives = [np.linspace(0.5, 1.5, graph.n) for _ in range(h)]
    return RMInstance(graph, advertisers, [probs] * h, incentives)


def _er_instance(n=80, p=0.06, seed=5):
    graph = erdos_renyi(n, p, seed=seed)
    probs = np.random.default_rng(seed + 1).random(graph.m) * 0.5
    return graph, _instance(graph, probs=probs)


def _snapshot(store) -> list[np.ndarray]:
    return [np.asarray(store.set_members(k), dtype=np.int64).copy()
            for k in range(store.size)]


def _in_slices(graph: DiGraph, probs: np.ndarray, node: int):
    """(tails, probs) of *node*'s in-arcs, sorted by tail — the exact
    coin record the reverse BFS consults when it expands *node*."""
    probs_in = np.asarray(probs, dtype=np.float64)[graph.in_edge_ids]
    lo, hi = int(graph.in_indptr[node]), int(graph.in_indptr[node + 1])
    tails = np.asarray(graph.in_tails[lo:hi], dtype=np.int64)
    slice_probs = probs_in[lo:hi]
    order = np.argsort(tails, kind="stable")
    return tails[order], slice_probs[order]


def _batch_for(graph: DiGraph, seed: int, size: int):
    ops = UPDATE_OPS if graph.m else ("insert",)
    return random_update_batch(
        graph, np.random.default_rng(seed), size, ops=ops, prob=0.25
    )


# ----------------------------------------------------------------------
# 1. Invalidation precision & recall (hypothesis property sweeps)
# ----------------------------------------------------------------------
class TestInvalidationProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        gseed=st.integers(0, 10**6),
        useed=st.integers(0, 10**6),
        size=st.integers(1, 10),
    )
    def test_precision_recall_and_root_preservation(self, gseed, useed, size):
        """(a) every survivor replays verbatim on the new graph,
        (b) no invalidated set would have been valid, and the pinned-root
        resample keeps every recorded root and every survivor's bits."""
        graph = erdos_renyi(18, 0.15, seed=gseed)
        probs = np.random.default_rng(gseed + 1).random(graph.m) * 0.8
        sampler = RRSampler(graph, probs)
        members, indptr = sampler.sample_batch_flat(
            40, np.random.default_rng(gseed + 2)
        )
        store = SharedRRStore(graph.n)
        store.extend_flat(members, indptr)
        old_sets = _snapshot(store)
        old_roots = store.roots().copy()

        batch = _batch_for(graph, useed, size)
        plan = compile_updates(graph, batch)
        heads = plan.changed_heads(probs)
        invalid = store.sets_touching(heads)
        invalid_ids = set(invalid.tolist())
        head_set = set(heads.tolist())
        new_probs = plan.apply_probs(probs)

        for sid in range(store.size):
            touched = bool(head_set & set(old_sets[sid].tolist()))
            if sid in invalid_ids:
                # (b) precision: an invalidated set really contains a
                # changed head — its traversal flipped a changed coin.
                assert touched
            else:
                assert not touched
                # (a) recall / replay: each member's in-arc record
                # (tails and probabilities) is identical on the new
                # graph, so re-running the recorded reverse BFS flips
                # the same coins on the same arcs and reproduces the
                # set verbatim.
                for node in old_sets[sid]:
                    ot, op = _in_slices(graph, probs, int(node))
                    nt, npp = _in_slices(plan.new_graph, new_probs, int(node))
                    np.testing.assert_array_equal(ot, nt)
                    np.testing.assert_array_equal(op, npp)

        # Root-preserving resample: invalidated slots redraw from their
        # recorded roots; survivors and all roots stay bit-identical.
        if invalid.size:
            new_sampler = RRSampler(plan.new_graph, new_probs)
            r_members, r_indptr = new_sampler.sample_batch_flat(
                int(invalid.size),
                np.random.default_rng(useed + 1),
                roots=old_roots[invalid],
            )
            store.replace_sets(invalid, r_members, r_indptr)
        np.testing.assert_array_equal(store.roots(), old_roots)
        for sid in range(store.size):
            if sid not in invalid_ids:
                np.testing.assert_array_equal(
                    store.set_members(sid), old_sets[sid]
                )
            else:
                mem = np.asarray(store.set_members(sid), dtype=np.int64)
                assert mem.size >= 1 and mem[0] == old_roots[sid]
                assert mem.min() >= 0 and mem.max() < graph.n


# ----------------------------------------------------------------------
# 2. Session-level incremental maintenance
# ----------------------------------------------------------------------
class TestSessionIncremental:
    def test_resamples_exactly_the_invalidated_fraction(self):
        """Acceptance criterion: sets_sampled moves by exactly the
        number of invalidated sets, observed through session.stats."""
        graph, inst = _er_instance()
        with AllocationSession(graph, spec=SPEC) as session:
            session.solve(inst)
            probs = np.asarray(inst.ad_probs[0], dtype=np.float64)
            store = session.store_for(probs)
            stored = store.size
            batch = _batch_for(graph, seed=3, size=6)
            plan = compile_updates(graph, batch)
            expected = store.sets_touching(plan.changed_heads(probs))
            before = session.stats
            report = session.apply_edge_updates(batch)
            after = session.stats

            assert report["invalidated_sets"] == expected.size
            assert report["checked_sets"] == stored
            assert report["graph_epoch"] == 1 == session.graph_epoch
            assert after["invalidated_sets"] == expected.size
            assert after["mutations"] == 1
            assert after["invalidation_rate"] == pytest.approx(
                expected.size / stored
            )
            # Only the invalidated sets were redrawn — nothing else.
            assert (
                after["sets_sampled"] - before["sets_sampled"]
                == expected.size
            )
            assert after["resample_batches"] == (1 if expected.size else 0)

            # The session solves again on the new graph, warm.
            final = _instance(
                session.graph, probs=plan.apply_probs(probs)
            )
            result = session.solve(final)
            assert result.total_revenue >= 0.0

    def test_stale_instance_rejected_after_mutation(self):
        graph, inst = _er_instance(seed=9)
        with AllocationSession(graph, spec=SPEC) as session:
            session.solve(inst)
            session.apply_edge_updates(_batch_for(graph, seed=4, size=3))
            with pytest.raises(Exception, match="different graph"):
                session.solve(inst)

    def test_same_seed_incremental_determinism(self):
        """The whole incremental pipeline is a pure function of
        (graph, spec, seed, updates): two sessions replaying it agree
        bit-for-bit — stores and post-mutation allocations."""
        graph, inst = _er_instance(seed=21)
        batch = _batch_for(graph, seed=8, size=5)

        def run():
            with AllocationSession(graph, spec=SPEC) as session:
                session.solve(inst)
                session.apply_edge_updates(batch)
                probs = np.asarray(inst.ad_probs[0], dtype=np.float64)
                plan = compile_updates(graph, batch)
                sets = _snapshot(session.store_for(plan.apply_probs(probs)))
                final = _instance(session.graph, probs=plan.apply_probs(probs))
                result = session.solve(final)
                return sets, result.allocation.seed_sets(), result.revenue_per_ad

        sets_a, alloc_a, rev_a = run()
        sets_b, alloc_b, rev_b = run()
        assert len(sets_a) == len(sets_b)
        for left, right in zip(sets_a, sets_b):
            np.testing.assert_array_equal(left, right)
        assert alloc_a == alloc_b
        assert rev_a == rev_b

    def test_prob_decrease_survivors_bit_identical_to_cold_store(self):
        """For a pure probability-decrease batch, every surviving slot
        is bit-identical in membership to the same slot of an
        independent same-seed cold store — incremental maintenance
        perturbed nothing it did not resample."""
        graph, inst = _er_instance(seed=33)
        probs = np.asarray(inst.ad_probs[0], dtype=np.float64)
        tails, heads = graph.edge_array()
        arc_ids = [0, graph.m // 2, graph.m - 1]
        batch = [
            ("set_prob", int(tails[e]), int(heads[e]), float(probs[e]) * 0.5)
            for e in sorted(set(arc_ids))
        ]

        with AllocationSession(graph, spec=SPEC) as cold:
            cold.solve(inst)
            cold_sets = _snapshot(cold.store_for(probs))

        with AllocationSession(graph, spec=SPEC) as session:
            session.solve(inst)
            store = session.store_for(probs)
            plan = compile_updates(graph, batch)
            invalid = set(
                store.sets_touching(plan.changed_heads(probs)).tolist()
            )
            report = session.apply_edge_updates(batch)
            assert report["invalidated_sets"] == len(invalid)
            assert store.size == len(cold_sets)
            survivors = 0
            for sid in range(store.size):
                if sid not in invalid:
                    np.testing.assert_array_equal(
                        store.set_members(sid), cold_sets[sid]
                    )
                    survivors += 1
            assert survivors == store.size - len(invalid)

    def test_zero_touch_update_bit_identical_to_cold_resample(self):
        """An update whose changed heads appear in no stored set leaves
        the store bit-identical to a cold same-seed resample on the
        *new* graph: no set ever examines a changed arc, so the two
        sampler runs consume identical streams."""
        graph = erdos_renyi(150, 0.02, seed=44)
        probs = np.random.default_rng(45).random(graph.m) * 0.4
        sampler = RRSampler(graph, probs)
        members, indptr = sampler.sample_batch_flat(
            25, np.random.default_rng(46)
        )
        covered = set(np.unique(members).tolist())
        tails, heads = graph.edge_array()
        arc = next(
            (e for e in range(graph.m) if int(heads[e]) not in covered), None
        )
        assert arc is not None, "graph too dense for a zero-touch arc"
        batch = [
            ("set_prob", int(tails[arc]), int(heads[arc]),
             float(probs[arc]) * 0.5)
        ]
        plan = compile_updates(graph, batch)
        store = SharedRRStore(graph.n)
        store.extend_flat(members, indptr)
        assert store.sets_touching(plan.changed_heads(probs)).size == 0

        cold_sampler = RRSampler(plan.new_graph, plan.apply_probs(probs))
        cold_members, cold_indptr = cold_sampler.sample_batch_flat(
            25, np.random.default_rng(46)
        )
        np.testing.assert_array_equal(members, cold_members)
        np.testing.assert_array_equal(indptr, cold_indptr)


# ----------------------------------------------------------------------
# 3. Cold-vs-incremental allocation parity (TI-CSRM / TI-CARM)
# ----------------------------------------------------------------------
class TestAllocationParity:
    @pytest.mark.parametrize("algorithm", ["TI-CSRM", "TI-CARM"])
    def test_incremental_matches_cold_within_tolerance(self, algorithm):
        """The maintained store and a cold solve on the mutated graph
        are different — equally valid — samples of the same RR
        distribution, so their allocations' revenues must agree within
        the estimators' CI tolerance."""
        graph = erdos_renyi(150, 0.05, seed=7)
        probs = np.random.default_rng(8).random(graph.m) * 0.4
        inst = _instance(graph, probs=probs, budgets=(10.0, 10.0))
        spec = EngineSpec(
            eps=1.0, theta_cap=300, opt_lower="kpt",
            kpt_max_samples=200, seed=17,
        )
        batch = _batch_for(graph, seed=29, size=10)
        plan = compile_updates(graph, batch)
        new_probs = plan.apply_probs(probs)

        with AllocationSession(graph, spec=spec) as session:
            session.solve(inst, algorithm)
            report = session.apply_edge_updates(batch)
            final = _instance(session.graph, probs=new_probs,
                              budgets=(10.0, 10.0))
            incremental = session.solve(final, algorithm)
        cold_inst = _instance(plan.new_graph, probs=new_probs,
                              budgets=(10.0, 10.0))
        cold = solve(cold_inst, algorithm, spec)

        assert report["checked_sets"] > 0
        r_inc = incremental.total_revenue
        r_cold = cold.total_revenue
        assert r_inc >= 0.0 and r_cold >= 0.0
        scale = max(r_inc, r_cold, 1.0)
        assert abs(r_inc - r_cold) <= 0.35 * scale


# ----------------------------------------------------------------------
# 4. Golden seeded allocations: the mutated path across
#    backend × spill
# ----------------------------------------------------------------------
def _mutated_alloc(**overrides):
    graph, inst = _er_instance(n=90, p=0.05, seed=51)
    probs = np.asarray(inst.ad_probs[0], dtype=np.float64)
    batch = _batch_for(graph, seed=52, size=8)
    spec = SPEC.override(**overrides)
    with AllocationSession(graph, spec=spec) as session:
        session.solve(inst)
        report = session.apply_edge_updates(batch)
        plan = compile_updates(graph, batch)
        final = _instance(session.graph, probs=plan.apply_probs(probs))
        result = session.solve(final)
        return (
            result.allocation.seed_sets(),
            result.revenue_per_ad,
            report,
            session.stats["spilled_stores"],
        )


class TestGoldenMutatedPath:
    @pytest.fixture(scope="class")
    def reference(self):
        return _mutated_alloc()

    @pytest.mark.parametrize(
        "overrides, expects_spill",
        [
            ({"rr_bytes_budget": 1}, True),
            # workers == 1 parallel delegates to the serial stream.
            ({"sampler_backend": "parallel", "workers": 1}, False),
        ],
        ids=["numpy-spill", "parallel-w1"],
    )
    def test_matches_numpy_serial_golden(
        self, reference, overrides, expects_spill
    ):
        seeds, revenue, report, spilled = _mutated_alloc(**overrides)
        ref_seeds, ref_revenue, ref_report, _ = reference
        assert seeds == ref_seeds
        assert revenue == ref_revenue
        assert report["invalidated_sets"] == ref_report["invalidated_sets"]
        if expects_spill:
            assert spilled >= 1

    @pytest.mark.slow
    def test_parallel_pool_deterministic(self):
        """The real worker pool consumes its own documented shard
        stream; the invariant is per-seed determinism through a
        mutation, not equality with serial."""
        first = _mutated_alloc(sampler_backend="parallel", workers=2)
        second = _mutated_alloc(sampler_backend="parallel", workers=2)
        assert first[:2] == second[:2]
        assert first[2]["invalidated_sets"] == second[2]["invalidated_sets"]


# ----------------------------------------------------------------------
# 5. Mutation-in-flight fault injection
# ----------------------------------------------------------------------
class TestMutationFaults:
    def test_mutate_delay_fires_once_per_resample_batch(self):
        graph, inst = _er_instance(seed=61)
        batch = _batch_for(graph, seed=62, size=6)
        plan = FaultPlan([FaultRule(seam="mutate.delay", delay_s=0.0)])
        with AllocationSession(graph, spec=SPEC) as session:
            session.solve(inst)
            with fault_plan(plan):
                report = session.apply_edge_updates(batch)
        assert report["invalidated_sets"] > 0
        stats = plan.stats["mutate.delay"]
        assert stats["arrivals"] == report["resample_batches"] == 1
        assert stats["fired"] == 1

    def test_mutate_delay_never_fires_on_noop_update(self):
        """A set_prob that does not move the family's value invalidates
        nothing, so the seam must not even be reached."""
        graph, inst = _er_instance(seed=63)
        probs = np.asarray(inst.ad_probs[0], dtype=np.float64)
        tails, heads = graph.edge_array()
        batch = [("set_prob", int(tails[0]), int(heads[0]), float(probs[0]))]
        plan = FaultPlan([FaultRule(seam="mutate.delay", delay_s=0.0)])
        with AllocationSession(graph, spec=SPEC) as session:
            session.solve(inst)
            with fault_plan(plan):
                report = session.apply_edge_updates(batch)
        assert report["invalidated_sets"] == 0
        assert report["resample_batches"] == 0
        assert plan.stats.get("mutate.delay", {"arrivals": 0})["arrivals"] == 0

    @pytest.mark.slow
    def test_worker_kill_during_invalidation_resample_recovers(self):
        """A worker killed mid-resample is respawned and its shard
        re-dispatched with the original pinned roots — the maintained
        store and the follow-up allocation are bit-identical to an
        undisturbed run."""
        graph, inst = _er_instance(n=90, p=0.05, seed=71)
        probs = np.asarray(inst.ad_probs[0], dtype=np.float64)
        batch = _batch_for(graph, seed=72, size=8)
        spec = SPEC.override(sampler_backend="parallel", workers=2)

        def run(with_fault: bool):
            with AllocationSession(graph, spec=spec) as session:
                session.solve(inst)
                if with_fault:
                    chaos = FaultPlan([FaultRule(seam="worker.kill", at=0)])
                    with fault_plan(chaos):
                        report = session.apply_edge_updates(batch)
                    assert chaos.stats["worker.kill"]["fired"] == 1
                else:
                    report = session.apply_edge_updates(batch)
                plan = compile_updates(graph, batch)
                sets = _snapshot(session.store_for(plan.apply_probs(probs)))
                final = _instance(session.graph,
                                  probs=plan.apply_probs(probs))
                result = session.solve(final)
                return sets, result.allocation.seed_sets(), report

        clean_sets, clean_alloc, clean_report = run(with_fault=False)
        assert clean_report["invalidated_sets"] > 0
        fault_sets, fault_alloc, fault_report = run(with_fault=True)
        assert len(clean_sets) == len(fault_sets)
        for left, right in zip(clean_sets, fault_sets):
            np.testing.assert_array_equal(left, right)
        assert clean_alloc == fault_alloc
        assert clean_report["invalidated_sets"] == (
            fault_report["invalidated_sets"]
        )


# ----------------------------------------------------------------------
# 6. Spill → invalidate → query regression
# ----------------------------------------------------------------------
class TestSpillInvalidateQuery:
    def test_queries_consistent_after_spill_and_partial_replace(self, tmp_path):
        """The inverted index must be rebuilt against the *rewritten*
        members of a spilled store: sets_containing / sets_touching /
        roots after spill → replace_sets agree with a RAM twin and with
        brute force over set_members."""
        graph = erdos_renyi(40, 0.08, seed=81)
        probs = np.random.default_rng(82).random(graph.m) * 0.6
        sampler = RRSampler(graph, probs)
        members, indptr = sampler.sample_batch_flat(
            60, np.random.default_rng(83)
        )
        spilling = SharedRRStore(
            graph.n, bytes_budget=1, spill_dir=str(tmp_path)
        )
        ram = SharedRRStore(graph.n)
        for store in (spilling, ram):
            store.extend_flat(members, indptr)
        assert spilling.spilled and not ram.spilled
        # Warm the inverted index *before* the replace, so a stale
        # index would be observable if replace_sets failed to drop it.
        spilling.sets_containing(0)
        ram.sets_containing(0)

        heads = np.unique(members)[:5]
        invalid = spilling.sets_touching(heads)
        np.testing.assert_array_equal(invalid, ram.sets_touching(heads))
        assert invalid.size > 0
        roots = spilling.roots()[invalid]
        r_members, r_indptr = RRSampler(graph, probs).sample_batch_flat(
            int(invalid.size), np.random.default_rng(84), roots=roots
        )
        for store in (spilling, ram):
            store.replace_sets(invalid, r_members, r_indptr)
        assert spilling.spilled

        np.testing.assert_array_equal(spilling.roots(), ram.roots())
        brute = {node: [] for node in range(graph.n)}
        for sid in range(ram.size):
            mem = np.asarray(ram.set_members(sid), dtype=np.int64)
            np.testing.assert_array_equal(spilling.set_members(sid), mem)
            for node in np.unique(mem):
                brute[int(node)].append(sid)
        for node in range(graph.n):
            expected = np.asarray(brute[node], dtype=np.int64)
            np.testing.assert_array_equal(
                spilling.sets_containing(node), expected
            )
            np.testing.assert_array_equal(
                ram.sets_containing(node), expected
            )
        spilling.close()
        ram.close()
