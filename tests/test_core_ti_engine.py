"""Tests for the scalable TI engine (Algorithm 2) and its four configurations."""

import numpy as np
import pytest

from repro.api import AllocationSession, EngineSpec
from repro.core.ads import Advertiser
from repro.core.baselines import pagerank_gr, pagerank_rr
from repro.core.instance import RMInstance
from repro.core.oracles import ExactOracle
from repro.core.ti_engine import TIEngine
from repro.core.ticarm import ti_carm
from repro.core.ticsrm import ti_csrm
from repro.errors import AllocationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.updates import compile_updates
from repro.rrset.tim import KPTEstimator


def small_instance(h=2, budget=12.0, seed=0, n=40, zero_costs=False):
    g = erdos_renyi(n, 0.08, seed=seed)
    rng = np.random.default_rng(seed + 1)
    advs = [Advertiser(index=i, cpe=1.0, budget=budget) for i in range(h)]
    probs = [np.full(g.m, 0.3) for _ in range(h)]
    if zero_costs:
        incentives = [np.zeros(n) for _ in range(h)]
    else:
        incentives = [rng.uniform(0.1, 1.0, size=n) for _ in range(h)]
    return RMInstance(g, advs, probs, incentives)


COMMON = dict(eps=0.8, theta_cap=400, opt_lower=3.0, seed=5)


class TestEngineValidation:
    def test_unknown_rules_rejected(self):
        inst = small_instance()
        with pytest.raises(AllocationError):
            TIEngine(inst, candidate_rule="bogus")
        with pytest.raises(AllocationError):
            TIEngine(inst, selector="bogus")
        with pytest.raises(AllocationError):
            TIEngine(inst, eps=0.0)
        with pytest.raises(AllocationError):
            TIEngine(inst, window=0)

    def test_unknown_opt_lower_spec(self):
        inst = small_instance()
        engine = TIEngine(inst, opt_lower="nonsense")
        with pytest.raises(AllocationError):
            engine.run()


class TestInvariants:
    @pytest.mark.parametrize(
        "runner",
        [ti_carm, ti_csrm, pagerank_gr, pagerank_rr],
        ids=["carm", "csrm", "pr-gr", "pr-rr"],
    )
    def test_disjoint_and_budget_feasible(self, runner):
        inst = small_instance(h=3, budget=10.0)
        result = runner(inst, **COMMON)
        nodes = [n for n, _ in result.allocation.pairs()]
        assert len(nodes) == len(set(nodes))
        # Budget feasibility under the engine's own estimates.
        for i in range(inst.h):
            assert result.payment_per_ad[i] <= inst.budget(i) + 1e-6

    def test_theta_respects_cap(self):
        inst = small_instance()
        result = ti_carm(inst, **COMMON)
        assert all(t <= 400 for t in result.extras["theta_per_ad"])

    def test_seed_size_estimates_cover_seeds(self):
        inst = small_instance()
        result = ti_csrm(inst, **COMMON)
        for i in range(inst.h):
            assert len(result.allocation.seeds(i)) <= result.extras[
                "seed_size_estimate_per_ad"
            ][i]

    def test_memory_reported(self):
        inst = small_instance()
        result = ti_csrm(inst, **COMMON)
        assert result.extras["memory_bytes"] > 0

    def test_deterministic_under_seed(self):
        inst = small_instance()
        a = ti_csrm(inst, **COMMON)
        b = ti_csrm(inst, **COMMON)
        assert a.allocation.pairs() == b.allocation.pairs()
        assert a.total_revenue == pytest.approx(b.total_revenue)


class TestEstimates:
    def test_revenue_close_to_exact_on_allocation(self):
        """The engine's internal estimate should track the true expected
        revenue of the allocation it returns."""
        inst = small_instance(h=1, budget=15.0, n=25)
        result = ti_csrm(inst, eps=0.3, theta_cap=20_000, opt_lower=3.0, seed=6)
        seeds = result.allocation.seeds(0)
        if seeds:
            exact = ExactOracle(inst)
            # The 25-node graph at p=0.3 has too many random arcs for the
            # exact oracle; use a large Monte-Carlo instead.
            from repro.diffusion.montecarlo import estimate_spread

            mc = estimate_spread(inst.graph, inst.ad_probs[0], seeds, n_runs=3000, rng=7)
            assert result.total_revenue == pytest.approx(mc, rel=0.25)

    def test_zero_probability_instance_yields_singletons_only(self):
        g = erdos_renyi(15, 0.2, seed=8)
        advs = [Advertiser(index=0, cpe=1.0, budget=5.0)]
        inst = RMInstance(g, advs, [np.zeros(g.m)], [np.full(15, 0.5)])
        result = ti_csrm(inst, eps=0.8, theta_cap=200, opt_lower=1.0, seed=9)
        # Every RR set is a singleton; each seed covers ~theta/n sets and
        # budget 5 limits how many fit.
        assert result.payment_per_ad[0] <= 5.0 + 1e-6


class TestModes:
    def test_constant_costs_make_carm_equal_csrm(self):
        """With identical incentives everywhere the CS ratio ordering
        coincides with the CA ordering (the paper's constant-model check)."""
        g = erdos_renyi(30, 0.1, seed=10)
        advs = [Advertiser(index=i, cpe=1.0, budget=12.0) for i in range(2)]
        probs = [np.full(g.m, 0.3)] * 2
        incentives = [np.full(30, 0.7)] * 2
        inst = RMInstance(g, advs, probs, incentives)
        a = ti_carm(inst, **COMMON)
        b = ti_csrm(inst, **COMMON)
        assert a.total_revenue == pytest.approx(b.total_revenue)
        assert a.allocation.pairs() == b.allocation.pairs()

    def test_window_one_matches_carm_selection_bias(self):
        """window=1 restricts the CS candidate to the max-coverage node, so
        seed *sets* should coincide with TI-CARM's under equal selectors...
        we check the weaker, robust property: revenue is no less than 80%
        of CARM's (they share candidates but rank ads differently)."""
        inst = small_instance(h=2, budget=10.0, seed=11)
        carm = ti_carm(inst, **COMMON)
        csrm_w1 = ti_csrm(inst, window=1, **COMMON)
        if carm.total_revenue > 0:
            assert csrm_w1.total_revenue >= 0.5 * carm.total_revenue

    def test_window_grows_revenue_weakly(self):
        inst = small_instance(h=2, budget=10.0, seed=12)
        revenues = [
            ti_csrm(inst, window=w, **COMMON).total_revenue for w in (1, 5, None)
        ]
        assert max(revenues) >= revenues[0] - 1e-9

    def test_round_robin_cycles_ads(self):
        inst = small_instance(h=3, budget=8.0, seed=13)
        result = pagerank_rr(inst, **COMMON)
        sizes = [len(result.allocation.seeds(i)) for i in range(3)]
        # Round-robin should not starve any ad (budgets are equal).
        if sum(sizes) >= 3:
            assert min(sizes) >= 1

    def test_pagerank_gr_uses_pagerank_candidates(self):
        inst = small_instance(h=1, budget=50.0, seed=14, zero_costs=True)
        from repro.graph.pagerank import pagerank_order

        result = pagerank_gr(inst, **COMMON)
        seeds = result.allocation.seeds(0)
        order = pagerank_order(inst.graph, weights=inst.ad_probs[0]).tolist()
        if seeds:
            # Seeds must form a prefix of the PageRank order.
            assert seeds == order[: len(seeds)]


class TestKPTCalls:
    """Which ``KPTEstimator.estimate`` calls the engine makes.

    θ sizing skips a KPT call at ``s > 1`` when the cap binds even at
    KPT's ceiling; that is exact only because every estimator is first
    asked for ``s = 1`` (see ``TIEngine._theta_for``).
    """

    @staticmethod
    def _spy(monkeypatch) -> list[tuple[KPTEstimator, int]]:
        calls = []
        original = KPTEstimator.estimate

        def estimate(self, s):
            calls.append((self, s))
            return original(self, s)

        monkeypatch.setattr(KPTEstimator, "estimate", estimate)
        return calls

    @staticmethod
    def _first_s(calls) -> list[int]:
        first: dict[int, int] = {}
        for kpt, s in calls:
            first.setdefault(id(kpt), s)
        return list(first.values())

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_every_estimator_is_first_asked_for_s1(self, monkeypatch, share):
        calls = self._spy(monkeypatch)
        inst = small_instance(h=3)
        ti_csrm(inst, eps=0.8, theta_cap=None, opt_lower="kpt", seed=5,
                share_samples=share)
        assert self._first_s(calls) and set(self._first_s(calls)) == {1}
        # Uncapped, θ follows KPT, so the grown seed sizes were asked.
        assert any(s > 1 for _, s in calls)

    def test_estimators_of_a_session_are_first_asked_for_s1(self, monkeypatch):
        """Rebuilt estimators (new KPT parameters, or dropped by a
        mutation) start at ``s = 1`` like fresh ones."""
        calls = self._spy(monkeypatch)
        inst = small_instance(h=2)
        tails, heads = inst.graph.edge_array()
        batch = [("set_prob", int(tails[0]), int(heads[0]), 0.1)]
        plan = compile_updates(inst.graph, batch)
        spec = EngineSpec(eps=0.8, theta_cap=None, opt_lower="kpt", seed=5)
        with AllocationSession(inst.graph, spec=spec) as session:
            session.solve(inst)
            session.solve(inst, spec=spec.override(kpt_max_samples=900))
            session.apply_edge_updates(batch)
            mutated = RMInstance(
                session.graph,
                inst.advertisers,
                [plan.apply_probs(p) for p in inst.ad_probs],
                inst.incentives,
            )
            session.solve(mutated)
        # Both ads share one vector: one estimator per solve.
        assert self._first_s(calls) == [1, 1, 1]

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_cap_binding_at_ceiling_asks_only_s1(self, monkeypatch, share):
        # n = 40: at s = 1 and KPT's ceiling n / 2 = 20, Eq. 8 gives
        # θ ≈ 242 > 50, so the cap binds whatever KPT returns.
        calls = self._spy(monkeypatch)
        inst = small_instance(h=2)
        result = ti_csrm(inst, eps=0.8, theta_cap=50, opt_lower="kpt", seed=5,
                         share_samples=share)
        assert calls and {s for _, s in calls} == {1}
        # The seed size did grow, so calls at s > 1 were skipped.
        assert max(result.extras["seed_size_estimate_per_ad"]) > 1
        assert result.extras["theta_per_ad"] == [50, 50]


class TestNaming:
    def test_algorithm_names(self):
        inst = small_instance()
        assert ti_carm(inst, **COMMON).algorithm == "TI-CARM"
        assert ti_csrm(inst, **COMMON).algorithm == "TI-CSRM"
        assert ti_csrm(inst, window=7, **COMMON).algorithm == "TI-CSRM(7)"
        assert pagerank_gr(inst, **COMMON).algorithm == "PageRank-GR"
        assert pagerank_rr(inst, **COMMON).algorithm == "PageRank-RR"
