"""Tests for the synthetic analog dataset builders."""

import numpy as np
import pytest

from repro.errors import InstanceError
from repro.experiments import datasets as datasets_module
from repro.experiments.datasets import (
    DATASET_BUILDERS,
    PROB_MODELS,
    Dataset,
    build_dataset,
    build_dblp_syn,
    build_edge_list_dataset,
    build_livejournal_syn,
    clear_dataset_cache,
    register_edge_list_dataset,
    unregister_dataset,
)


class TestRegistry:
    def test_four_analogs_registered(self):
        assert set(DATASET_BUILDERS) == {
            "flixster_syn",
            "epinions_syn",
            "dblp_syn",
            "livejournal_syn",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(InstanceError):
            build_dataset("snapchat_syn")

    def test_cache_returns_same_object(self):
        a = build_dataset("flixster_syn", n=300, h=2, singleton_rr_samples=500)
        b = build_dataset("flixster_syn", n=300, h=2, singleton_rr_samples=500)
        assert a is b

    def test_cache_cleared(self):
        a = build_dataset("flixster_syn", n=300, h=2, singleton_rr_samples=500)
        clear_dataset_cache()
        b = build_dataset("flixster_syn", n=300, h=2, singleton_rr_samples=500)
        assert a is not b

    @pytest.mark.parametrize("h", [0, -1])
    @pytest.mark.parametrize(
        "name", ["flixster_syn", "epinions_syn", "dblp_syn", "livejournal_syn"]
    )
    def test_no_advertisers_rejected_before_building(self, monkeypatch, name, h):
        """``h < 1`` fails naming the value given, before any graph is built."""

        def no_graph(*args, **kwargs):
            raise AssertionError("graph generated for a marketplace without ads")

        for generator in (
            "powerlaw_configuration", "preferential_attachment", "kronecker_like"
        ):
            monkeypatch.setattr(datasets_module, generator, no_graph)
        with pytest.raises(InstanceError, match=f"got {h}$"):
            build_dataset(name, h=h)


class TestFlixsterAnalog(object):
    def test_structure(self, quick_dataset):
        ds = quick_dataset
        assert ds.graph.n == 400
        assert ds.h == 4
        assert len(ds.ad_probs) == 4
        assert len(ds.budgets) == 4
        # Pure-competition pairs share distributions and probabilities.
        assert ds.gammas[0] == ds.gammas[1]
        assert np.array_equal(ds.ad_probs[0], ds.ad_probs[1])

    def test_spreads_floor_at_one(self, quick_dataset):
        for spread in quick_dataset.singleton_spreads:
            assert (spread >= 1.0).all()

    def test_budgets_exceed_top_singleton_payment(self, quick_dataset):
        """The non-degeneracy regime: every ad can afford its best seed."""
        ds = quick_dataset
        for i in range(ds.h):
            top_revenue = ds.cpes[i] * ds.max_singleton_spread(i)
            assert ds.budgets[i] >= 2.0 * top_revenue

    def test_opt_lower_bounds(self, quick_dataset):
        bounds = quick_dataset.opt_lower_bounds()
        assert len(bounds) == quick_dataset.h
        assert all(b >= 1.0 for b in bounds)


class TestScalabilityAnalogs:
    def test_dblp_is_undirected(self):
        ds = build_dblp_syn(n=500, h=4, seed=1)
        from repro.graph.stats import is_symmetric

        assert is_symmetric(ds.graph)
        assert ds.graph_type == "undirected"
        assert ds.spread_source == "out-degree proxy"

    def test_livejournal_rmat(self):
        ds = build_livejournal_syn(scale=8, h=4, seed=2)
        assert ds.graph.n == 256
        assert ds.cpes == [1.0] * 4


@pytest.fixture
def edge_list_file(tmp_path):
    from repro.graph.generators import erdos_renyi
    from repro.graph.io import save_edge_list

    graph = erdos_renyi(60, 0.08, seed=8)
    path = tmp_path / "crawl.txt"
    save_edge_list(graph, str(path))
    return str(path)


class TestEdgeListDataset:
    def test_wc_dataset_structure(self, edge_list_file):
        ds = build_edge_list_dataset(
            edge_list_file, name="crawl", prob_model="wc", h=3, seed=5
        )
        assert isinstance(ds, Dataset)
        assert ds.name == "crawl" and ds.h == 3
        assert ds.graph.n == 60
        assert np.array_equal(ds.ad_probs[0], ds.ad_probs[1])  # pure competition
        assert ds.meta["prob_model"] == "wc"
        assert ds.meta["remapped"] is True

    def test_tic_dataset_has_per_ad_probs(self, edge_list_file):
        ds = build_edge_list_dataset(
            edge_list_file, prob_model="tic", h=4, n_topics=4, seed=5
        )
        assert len(ds.ad_probs) == 4
        assert len(ds.gammas) == 4

    def test_trivalency_dataset(self, edge_list_file):
        ds = build_edge_list_dataset(
            edge_list_file, prob_model="trivalency", h=2, seed=5
        )
        levels = {0.1, 0.01, 0.001}
        assert set(np.unique(ds.ad_probs[0])) <= levels

    def test_rr_spread_mode(self, edge_list_file):
        ds = build_edge_list_dataset(
            edge_list_file,
            prob_model="wc",
            h=2,
            seed=5,
            spread_mode="rr",
            singleton_rr_samples=500,
        )
        assert ds.spread_source == "rr(500)"
        assert (ds.singleton_spreads[0] >= 1.0).all()

    def test_name_defaults_to_file_stem(self, edge_list_file):
        ds = build_edge_list_dataset(edge_list_file, h=2, seed=5)
        assert ds.name == "crawl"

    def test_unknown_prob_model_rejected(self, edge_list_file):
        assert "wc" in PROB_MODELS
        with pytest.raises(InstanceError, match="prob_model"):
            build_edge_list_dataset(edge_list_file, prob_model="magic")

    def test_no_advertisers_rejected(self, edge_list_file):
        with pytest.raises(InstanceError, match="got 0$"):
            build_edge_list_dataset(edge_list_file, h=0)

    def test_unknown_spread_mode_rejected(self, edge_list_file):
        with pytest.raises(InstanceError, match="spread_mode"):
            build_edge_list_dataset(edge_list_file, spread_mode="magic")

    def test_deterministic_per_seed(self, edge_list_file):
        a = build_edge_list_dataset(edge_list_file, h=3, seed=5)
        b = build_edge_list_dataset(edge_list_file, h=3, seed=5)
        assert a.cpes == b.cpes and a.budgets == b.budgets

    def test_instance_builds_and_runs(self, edge_list_file):
        from repro.api import EngineSpec, solve

        ds = build_edge_list_dataset(edge_list_file, h=2, seed=5)
        inst = ds.build_instance(incentive_model="linear", alpha=0.5)
        spec = EngineSpec(
            eps=1.0, theta_cap=100, opt_lower=ds.opt_lower_bounds(), seed=1
        )
        result = solve(inst, "TI-CARM", spec)
        assert result.total_revenue >= 0


class TestRegistration:
    def test_register_and_build(self, edge_list_file):
        register_edge_list_dataset("crawl_test", edge_list_file, h=2, seed=5)
        try:
            ds = build_dataset("crawl_test")
            assert ds.name == "crawl_test"
            # call-site kwargs override registration defaults
            ds3 = build_dataset("crawl_test", h=3)
            assert ds3.h == 3
        finally:
            unregister_dataset("crawl_test")
        assert "crawl_test" not in DATASET_BUILDERS

    def test_builtin_names_protected(self, edge_list_file):
        with pytest.raises(InstanceError):
            register_edge_list_dataset("epinions_syn", edge_list_file)
        with pytest.raises(InstanceError):
            unregister_dataset("epinions_syn")

    def test_cpe_override(self, quick_dataset):
        inst = quick_dataset.build_instance("linear", 1.0, cpe_override=2.5)
        assert all(inst.cpe(i) == 2.5 for i in range(inst.h))


class TestBuildInstance:
    def test_default_instance(self, quick_dataset):
        inst = quick_dataset.build_instance("linear", 1.0)
        assert inst.h == quick_dataset.h
        assert inst.n == quick_dataset.graph.n

    def test_h_cycling(self, quick_dataset):
        inst = quick_dataset.build_instance("linear", 1.0, h=7)
        assert inst.h == 7
        # Ad 4 cycles back to source ad 0.
        assert inst.cpe(4) == quick_dataset.cpes[0]
        assert np.array_equal(inst.ad_probs[4], quick_dataset.ad_probs[0])

    def test_budget_override(self, quick_dataset):
        inst = quick_dataset.build_instance("linear", 1.0, budget_override=500.0)
        assert all(inst.budget(i) == 500.0 for i in range(inst.h))

    def test_incentive_models_differ(self, quick_dataset):
        lin = quick_dataset.build_instance("linear", 1.0)
        const = quick_dataset.build_instance("constant", 1.0)
        assert not np.allclose(lin.incentives[0], const.incentives[0])

    def test_invalid_h(self, quick_dataset):
        with pytest.raises(InstanceError):
            quick_dataset.build_instance("linear", 1.0, h=0)
