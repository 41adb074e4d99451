"""Tests for Advertiser and RMInstance validation."""

import numpy as np
import pytest

from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.errors import InstanceError
from repro.graph.digraph import DiGraph


class TestAdvertiser:
    def test_valid(self):
        adv = Advertiser(index=0, cpe=1.5, budget=100.0)
        assert adv.name == "ad-0"
        assert adv.engagements_affordable() == pytest.approx(100.0 / 1.5)

    def test_custom_name(self):
        assert Advertiser(index=1, cpe=1.0, budget=5.0, name="nike").name == "nike"

    def test_validation(self):
        with pytest.raises(InstanceError):
            Advertiser(index=-1, cpe=1.0, budget=1.0)
        with pytest.raises(InstanceError):
            Advertiser(index=0, cpe=0.0, budget=1.0)
        with pytest.raises(InstanceError):
            Advertiser(index=0, cpe=1.0, budget=-2.0)

    @pytest.mark.parametrize("field", ["cpe", "budget"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cpe_and_budget_rejected(self, field, bad):
        """NaN passes a ``<= 0`` check; NaN or ±inf then dies mid-solve
        or poisons a payment."""
        kwargs = {"cpe": 1.0, "budget": 1.0, field: bad}
        with pytest.raises(InstanceError, match="finite and positive"):
            Advertiser(index=0, **kwargs)


def _graph():
    return DiGraph.from_edge_list([(0, 1), (1, 2)], n=3)


def _make(budgets=(10.0,), incentive_rows=None, probs_value=0.5):
    g = _graph()
    h = len(budgets)
    advertisers = [Advertiser(index=i, cpe=1.0, budget=budgets[i]) for i in range(h)]
    probs = [np.full(g.m, probs_value)] * h
    if incentive_rows is None:
        incentive_rows = [np.ones(g.n)] * h
    return RMInstance(g, advertisers, probs, incentive_rows)


class TestRMInstance:
    def test_valid_instance(self):
        inst = _make(budgets=(10.0, 20.0))
        assert inst.h == 2
        assert inst.n == 3
        assert inst.cpe(0) == 1.0
        assert inst.budget(1) == 20.0

    def test_seeding_cost_is_modular(self):
        inst = _make(incentive_rows=[np.array([1.0, 2.0, 4.0])])
        assert inst.seeding_cost(0, [0, 2]) == 5.0
        assert inst.seeding_cost(0, []) == 0.0

    def test_incentive_accessors(self):
        inst = _make(incentive_rows=[np.array([1.0, 2.0, 4.0])])
        assert inst.incentive(0, 2) == 4.0
        assert inst.max_incentive(0) == 4.0

    def test_no_advertisers_rejected(self):
        g = _graph()
        with pytest.raises(InstanceError):
            RMInstance(g, [], [], [])

    def test_misindexed_advertisers_rejected(self):
        g = _graph()
        advs = [Advertiser(index=3, cpe=1.0, budget=1.0)]
        with pytest.raises(InstanceError):
            RMInstance(g, advs, [np.zeros(g.m)], [np.zeros(g.n)])

    def test_wrong_prob_shape_rejected(self):
        g = _graph()
        advs = [Advertiser(index=0, cpe=1.0, budget=1.0)]
        with pytest.raises(InstanceError):
            RMInstance(g, advs, [np.zeros(g.m + 1)], [np.zeros(g.n)])

    def test_prob_range_checked(self):
        g = _graph()
        advs = [Advertiser(index=0, cpe=1.0, budget=1.0)]
        with pytest.raises(InstanceError):
            RMInstance(g, advs, [np.full(g.m, 1.5)], [np.zeros(g.n)])

    def test_negative_incentives_rejected(self):
        with pytest.raises(InstanceError):
            _make(incentive_rows=[np.array([-1.0, 0.0, 0.0])])

    def test_nan_probability_rejected(self):
        """A NaN arc probability passes a min()/max() range check, and the
        arc would silently never fire."""
        g = _graph()
        advs = [Advertiser(index=0, cpe=1.0, budget=1.0)]
        probs = np.array([0.5, np.nan])
        with pytest.raises(InstanceError, match=r"lie in \[0, 1\]"):
            RMInstance(g, advs, [probs], [np.zeros(g.n)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_incentives_rejected(self, bad):
        """A NaN incentive used to reach the seed-size estimate as a bare
        ``ValueError: cannot convert float NaN to integer``."""
        with pytest.raises(InstanceError, match="finite and non-negative"):
            _make(incentive_rows=[np.array([1.0, bad, 1.0])])

    def test_overflowing_cpe_times_n_rejected(self):
        """A first payment is cpe · n · 0 = inf · 0 = NaN when cpe · n
        overflows, and NaN > budget is False: the ad would overspend."""
        g = _graph()
        advs = [Advertiser(index=0, cpe=1e308, budget=10.0)]
        with pytest.raises(InstanceError, match="not finite"):
            RMInstance(g, advs, [np.full(g.m, 0.5)], [np.ones(g.n)])

    def test_degenerate_budget_rejected(self):
        # Every node's incentive exceeds the budget: no affordable seed.
        with pytest.raises(InstanceError):
            _make(budgets=(0.5,), incentive_rows=[np.array([1.0, 2.0, 3.0])])

    def test_mismatched_lengths_rejected(self):
        g = _graph()
        advs = [Advertiser(index=0, cpe=1.0, budget=1.0)]
        with pytest.raises(InstanceError):
            RMInstance(g, advs, [], [np.zeros(g.n)])
