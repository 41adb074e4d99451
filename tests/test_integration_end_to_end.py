"""End-to-end integration tests across the full stack.

These exercise the public API the way the examples and benchmarks do:
build an analog dataset, materialize instances for several incentive
models, run all four Section-5 algorithms, and check the paper's
structural claims (disjointness, budget feasibility, cost ordering,
constant-model equivalence) on the outputs.
"""

import numpy as np
import pytest

import repro
from repro.experiments.harness import ALGORITHMS, run_algorithm


def _run_all(dataset, instance, config) -> dict:
    """Every built-in algorithm on one instance, by name."""
    return {name: run_algorithm(name, dataset, instance, config) for name in ALGORITHMS}


@pytest.fixture(scope="module")
def sweep_results(quick_dataset, quick_config):
    """One shared mid-α linear run of all four algorithms."""
    instance = quick_dataset.build_instance("linear", 1.5)
    return instance, _run_all(quick_dataset, instance, quick_config)


class TestStructuralInvariants:
    def test_disjoint_seed_sets(self, sweep_results):
        _, results = sweep_results
        for result in results.values():
            nodes = [n for n, _ in result.allocation.pairs()]
            assert len(nodes) == len(set(nodes))

    def test_budget_feasibility_under_own_estimates(self, sweep_results):
        instance, results = sweep_results
        for result in results.values():
            for i in range(instance.h):
                assert result.payment_per_ad[i] <= instance.budget(i) + 1e-6

    def test_every_ad_gets_a_seed(self, sweep_results):
        """Budgets exceed top singleton payments, so no ad should end empty
        (the paper's Table 2 design goal)."""
        _, results = sweep_results
        for name in ("TI-CSRM", "TI-CARM"):
            allocation = results[name].allocation
            for i in range(allocation.h):
                assert len(allocation.seeds(i)) >= 1, f"{name} starved ad {i}"

    def test_total_seeds_well_below_n(self, sweep_results):
        instance, results = sweep_results
        for result in results.values():
            assert result.total_seeds < instance.n


class TestPaperShapeClaims:
    def test_csrm_has_lowest_seeding_cost(self, sweep_results):
        """Figure 3's headline: TI-CSRM consistently spends least on seeds."""
        _, results = sweep_results
        csrm_cost = results["TI-CSRM"].total_seeding_cost
        for name in ("TI-CARM", "PageRank-GR", "PageRank-RR"):
            assert csrm_cost <= results[name].total_seeding_cost + 1e-6

    def test_constant_incentives_equalize_carm_csrm(self, quick_dataset, quick_config):
        instance = quick_dataset.build_instance("constant", 2.0)
        carm = run_algorithm("TI-CARM", quick_dataset, instance, quick_config)
        csrm = run_algorithm("TI-CSRM", quick_dataset, instance, quick_config)
        assert carm.total_revenue == pytest.approx(csrm.total_revenue)
        assert carm.allocation.pairs() == csrm.allocation.pairs()

    def test_csrm_beats_baselines_at_high_alpha(self, quick_dataset, quick_config):
        """When incentives are expensive, cost-sensitivity must pay off
        against the PageRank heuristics (Figure 2's shape)."""
        instance = quick_dataset.build_instance("linear", 2.5)
        results = _run_all(quick_dataset, instance, quick_config)
        assert results["TI-CSRM"].total_revenue >= 0.95 * max(
            results["PageRank-GR"].total_revenue,
            results["PageRank-RR"].total_revenue,
        )

    def test_revenue_decreases_with_alpha(self, quick_dataset, quick_config):
        """Higher α means costlier seeds, so host revenue shrinks (Fig. 2)."""
        revenues = []
        for alpha in (0.5, 2.5):
            instance = quick_dataset.build_instance("linear", alpha)
            result = run_algorithm("TI-CSRM", quick_dataset, instance, quick_config)
            revenues.append(result.total_revenue)
        assert revenues[1] <= revenues[0] * 1.05


class TestPublicAPI:
    def test_quickstart_flow(self, quick_dataset):
        """The README quickstart, executed."""
        instance = quick_dataset.build_instance(incentive_model="linear", alpha=1.0)
        spec = repro.EngineSpec(
            eps=0.8,
            theta_cap=500,
            opt_lower=quick_dataset.opt_lower_bounds(),
            seed=1,
        )
        result = repro.solve(instance, "TI-CSRM", spec)
        assert result.algorithm == "TI-CSRM"
        assert "revenue" in result.summary()

    def test_reference_greedy_on_tightness_instance(self):
        instance, expected = repro.tightness_instance()
        oracle = repro.ExactOracle(instance)
        assert repro.cs_greedy(instance, oracle).total_revenue == pytest.approx(
            expected["optimal_revenue"]
        )

    def test_version_exposed(self):
        assert repro.__version__


class TestCrossEstimatorConsistency:
    def test_rr_static_oracle_agrees_with_mc_on_allocation(
        self, quick_dataset, quick_config
    ):
        """Evaluating a fixed allocation with two independent estimators
        (static RR vs Monte-Carlo) should agree within sampling noise —
        unlike the engine's own adaptive estimate, these are unbiased."""
        instance = quick_dataset.build_instance("linear", 1.0)
        result = run_algorithm("TI-CSRM", quick_dataset, instance, quick_config)
        seeds = result.allocation.seeds(0)
        if not seeds:
            pytest.skip("ad 0 received no seeds at this scale")
        rr_oracle = repro.RRStaticOracle(instance, n_samples=4000, seed=11)
        from repro.diffusion.montecarlo import estimate_spread

        mc = estimate_spread(
            instance.graph, instance.ad_probs[0], seeds, n_runs=400, rng=12
        )
        rr = rr_oracle.spread(0, seeds)
        assert rr == pytest.approx(mc, rel=0.3, abs=2.0)
