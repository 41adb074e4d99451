"""AllocationSession: warm-start parity, store reuse, lifecycle."""

import numpy as np
import pytest

from repro.api import AllocationSession, EngineSpec, solve
from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.errors import AllocationError
from repro.graph.digraph import DiGraph
from repro.graph.updates import compile_updates

from tests.conftest import make_tiny_instance

SPEC = EngineSpec(eps=0.8, theta_cap=200, opt_lower=1.0, seed=21)


def _same_alloc(a, b):
    assert a.allocation.seed_sets() == b.allocation.seed_sets()
    assert a.revenue_per_ad == b.revenue_per_ad


def _instance_with_budgets(dataset_instance, budgets):
    inst = dataset_instance
    advertisers = [
        Advertiser(index=i, cpe=inst.cpe(i), budget=float(budgets[i]))
        for i in range(inst.h)
    ]
    return RMInstance(inst.graph, advertisers, inst.ad_probs, inst.incentives)


class TestWarmStartParity:
    def test_warm_resolve_identical_and_no_resampling(self):
        """Satellite: warm re-solve == fresh solve; RR stores reused."""
        inst = make_tiny_instance()
        with AllocationSession(inst.graph, spec=SPEC) as session:
            cold = session.solve(inst)
            cold_stats = session.stats
            assert cold_stats["sample_batches"] > 0
            warm = session.solve(inst)
            warm_stats = session.stats
        _same_alloc(cold, warm)
        # The warm solve drew nothing: same batch/set counters.
        assert warm_stats["sample_batches"] == cold_stats["sample_batches"]
        assert warm_stats["sets_sampled"] == cold_stats["sets_sampled"]
        assert warm_stats["solves"] == 2

    def test_session_cold_solve_matches_share_samples_engine(self):
        """A session's first solve is bit-identical to a fresh
        share_samples=True solve — warm mode is the shared-store path
        with persistence."""
        inst = make_tiny_instance()
        with AllocationSession(inst.graph, spec=SPEC) as session:
            cold = session.solve(inst)
        fresh = solve(inst, "TI-CSRM", SPEC.override(share_samples=True))
        _same_alloc(cold, fresh)
        assert cold.extras["engine_spec"]["share_samples"] is True

    def test_kpt_mode_warm_parity(self):
        inst = make_tiny_instance()
        spec = EngineSpec(eps=0.8, theta_cap=120, opt_lower="kpt",
                          kpt_max_samples=200, seed=4)
        with AllocationSession(inst.graph, spec=spec) as session:
            cold = session.solve(inst)
            batches = session.stats["sample_batches"]
            warm = session.solve(inst)
            assert session.stats["sample_batches"] == batches
        _same_alloc(cold, warm)

    def test_kpt_rebuilt_when_accuracy_params_change(self):
        """A warm solve under different (ell, kpt_max_samples) must not
        reuse KPT bounds computed under the old parameters."""
        inst = make_tiny_instance()
        spec = EngineSpec(eps=0.8, theta_cap=120, opt_lower="kpt",
                          kpt_max_samples=200, seed=4)
        with AllocationSession(inst.graph, spec=spec) as session:
            session.solve(inst)
            (group,) = session._warm.stores.values()
            first_kpt = group.kpt
            assert first_kpt.ell == spec.ell
            # Same params again: the estimator is reused untouched.
            session.solve(inst)
            assert group.kpt is first_kpt
            # Changed accuracy: fresh estimator carrying the new params.
            session.solve(inst, spec=spec.override(ell=3.0, kpt_max_samples=500))
            assert group.kpt is not first_kpt
            assert group.kpt.ell == 3.0
            assert group.kpt.max_samples == 500

    def test_changed_budgets_reuse_stores(self):
        """The production query pattern: same graph/probs, new budgets."""
        inst = make_tiny_instance(budgets=(10.0, 10.0))
        smaller = _instance_with_budgets(inst, (4.0, 5.0))
        with AllocationSession(inst.graph, spec=SPEC) as session:
            session.solve(inst)
            drawn = session.stats["sets_sampled"]
            result = session.solve(smaller)
            # Re-solving under tighter budgets needs no fresh sets.
            assert session.stats["sets_sampled"] == drawn
            assert session.stats["stores"] == 1  # both ads share one prob vector
        total_payment = sum(result.payment_per_ad)
        assert total_payment <= 4.0 + 5.0 + 1e-9

    def test_blocked_changes_do_not_invalidate(self):
        inst = make_tiny_instance()
        blocked = np.zeros(inst.n, dtype=bool)
        blocked[2] = True
        with AllocationSession(inst.graph, spec=SPEC) as session:
            session.solve(inst)
            drawn = session.stats["sets_sampled"]
            result = session.solve(inst, blocked=blocked)
            assert session.stats["sets_sampled"] == drawn
        seeded = {n for seeds in result.allocation.seed_sets() for n in seeds}
        assert 2 not in seeded


class TestSessionSemantics:
    def test_other_graph_rejected(self):
        inst = make_tiny_instance()
        other = DiGraph.from_edge_list([(0, 1)], n=2)
        with AllocationSession(other, spec=SPEC) as session:
            with pytest.raises(AllocationError, match="different graph"):
                session.solve(inst)

    def test_requires_digraph(self):
        with pytest.raises(AllocationError):
            AllocationSession("not a graph")

    def test_closed_session_refuses_solves(self):
        inst = make_tiny_instance()
        session = AllocationSession.for_instance(inst, spec=SPEC)
        session.solve(inst)
        assert session.is_closed is False
        session.close()
        session.close()  # idempotent
        assert session.is_closed is True
        with pytest.raises(AllocationError, match="closed"):
            session.solve(inst)

    def test_stats_json_serializable(self):
        """Satellite: session.stats feeds the serve layer's /stats
        endpoint verbatim, so every value must survive json.dumps
        (numpy scalars would not)."""
        import json

        inst = make_tiny_instance()
        with AllocationSession(inst.graph, spec=SPEC) as session:
            session.solve(inst)
            stats = json.loads(json.dumps(session.stats))
        assert stats["solves"] == 1
        assert stats["store_bytes"] >= 0
        assert isinstance(stats["pool_active"], bool)

    def test_backend_pinned_by_session(self):
        inst = make_tiny_instance()
        with AllocationSession(inst.graph, spec=SPEC) as session:
            result = session.solve(
                inst, spec=SPEC.override(sampler_backend="parallel", workers=2)
            )
        # The session was built serial; per-solve specs cannot flip it.
        assert result.extras["engine_spec"]["sampler_backend"] == "serial"
        assert result.extras["engine_spec"]["workers"] is None

    def test_pagerank_orders_cached(self):
        inst = make_tiny_instance()
        with AllocationSession(inst.graph, spec=SPEC) as session:
            a = session.solve(inst, "PageRank-GR")
            assert session.stats["pagerank_orders"] == 1
            b = session.solve(inst, "PageRank-GR")
            assert session.stats["pagerank_orders"] == 1
        _same_alloc(a, b)

    def test_new_prob_vector_grows_family(self):
        inst = make_tiny_instance(probs_value=1.0)
        other = make_tiny_instance(probs_value=0.5)
        other = RMInstance(inst.graph, other.advertisers, other.ad_probs,
                           other.incentives)
        with AllocationSession(inst.graph, spec=SPEC) as session:
            session.solve(inst)
            assert session.stats["stores"] == 1
            session.solve(other)
            assert session.stats["stores"] == 2


class TestStoreFor:
    def test_returns_the_store_a_solve_filled(self):
        inst = make_tiny_instance()
        probs = inst.ad_probs[0]
        with AllocationSession(inst.graph, spec=SPEC) as session:
            with pytest.raises(AllocationError, match="no RR store"):
                session.store_for(probs)
            result = session.solve(inst)
            store = session.store_for(probs)
            # Both ads share one vector, so one store holds the largest θ.
            assert store.size == max(result.extras["theta_per_ad"])
            # Keyed by content: an equal copy finds the same store.
            assert session.store_for(probs.copy()) is store
            drawn = session.stats["sets_sampled"]
            session.solve(inst)
            assert session.store_for(probs) is store
            assert session.stats["sets_sampled"] == drawn

    def test_follows_the_rekey_of_a_mutation(self):
        inst = make_tiny_instance()
        old = inst.ad_probs[0]
        batch = [("set_prob", 0, 1, 0.5)]
        with AllocationSession(inst.graph, spec=SPEC) as session:
            session.solve(inst)
            store = session.store_for(old)
            plan = compile_updates(inst.graph, batch)
            session.apply_edge_updates(batch)
            assert session.store_for(plan.apply_probs(old)) is store
            with pytest.raises(AllocationError, match="no RR store"):
                session.store_for(old)


class TestAdaptiveReuse:
    def test_campaign_with_reuse_samples(self):
        from repro.core.adaptive import run_adaptive_campaign

        inst = make_tiny_instance()
        result = run_adaptive_campaign(
            inst,
            n_windows=2,
            planner_kwargs=dict(eps=0.8, theta_cap=150, opt_lower=1.0),
            seed=5,
            reuse_samples=True,
        )
        assert len(result.windows) >= 1
        assert result.total_revenue >= 0.0

    def test_harness_threads_session(self, quick_dataset, quick_config):
        from repro.experiments.harness import run_algorithm

        inst = quick_dataset.build_instance("linear", 1.0)
        with AllocationSession(inst.graph, spec=quick_config.engine_spec(
                opt_lower=quick_dataset.opt_lower_bounds(inst.h))) as session:
            first = run_algorithm("TI-CSRM", quick_dataset, inst, quick_config,
                                  session=session)
            drawn = session.stats["sets_sampled"]
            second = run_algorithm("TI-CSRM", quick_dataset, inst, quick_config,
                                   session=session)
            assert session.stats["sets_sampled"] == drawn
        _same_alloc(first, second)
