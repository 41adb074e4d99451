"""Tests for the coverage-indexed RR collection (Algorithm 2's engine room)."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.rrset.collection import RRCollection, estimate_spread_flat
from tests.conftest import flat_sets as sets


class TestAddAndCounts:
    def test_counts_reflect_memberships(self):
        c = RRCollection(4)
        c.add_sets_flat(*sets([0, 1], [1, 2], [3]))
        assert c.counts.tolist() == [1, 2, 1, 1]
        assert c.theta == 3
        assert c.covered_total == 0

    def test_out_of_range_member_rejected(self):
        c = RRCollection(3)
        with pytest.raises(EstimationError):
            c.add_sets_flat(*sets([0, 5]))

    def test_nonpositive_n_rejected(self):
        with pytest.raises(EstimationError):
            RRCollection(0)

    def test_add_with_seeds_absorbs_covered(self):
        c = RRCollection(4)
        absorbed = c.add_sets_flat(*sets([0, 1], [2], [0, 3]), seeds=[0])
        assert absorbed == 2
        assert c.covered_total == 2
        # Only the uncovered set [2] contributes counts.
        assert c.counts.tolist() == [0, 0, 1, 0]


class TestCovering:
    def test_mark_covered_decrements_members(self):
        c = RRCollection(4)
        c.add_sets_flat(*sets([0, 1], [1, 2], [2, 3]))
        newly = c.mark_covered_by(1)
        assert newly == 2
        assert c.covered_total == 2
        # Sets containing 1 are dead; 2 retains only the third set.
        assert c.counts.tolist() == [0, 0, 1, 1]

    def test_double_cover_no_effect(self):
        c = RRCollection(3)
        c.add_sets_flat(*sets([0, 1], [1, 2]))
        c.mark_covered_by(1)
        assert c.mark_covered_by(1) == 0
        assert c.covered_total == 2

    def test_cover_by_disjoint_node(self):
        c = RRCollection(3)
        c.add_sets_flat(*sets([0], [1]))
        assert c.mark_covered_by(2) == 0


class TestSelection:
    def test_best_node_max_count(self):
        c = RRCollection(4)
        c.add_sets_flat(*sets([0, 1], [1], [1, 2], [3]))
        allowed = np.ones(4, dtype=bool)
        assert c.best_node(allowed) == 1

    def test_best_node_respects_mask(self):
        c = RRCollection(4)
        c.add_sets_flat(*sets([0, 1], [1], [1, 2], [3]))
        allowed = np.array([True, False, True, True])
        assert c.best_node(allowed) in (0, 2, 3)

    def test_best_node_empty_mask(self):
        c = RRCollection(3)
        c.add_sets_flat(*sets([0]))
        assert c.best_node(np.zeros(3, dtype=bool)) is None

    def test_ratio_selection_prefers_cheap(self):
        c = RRCollection(3)
        c.add_sets_flat(*sets([0], [0], [1]))
        costs = np.array([10.0, 1.0, 1.0])
        allowed = np.ones(3, dtype=bool)
        # node 0: 2/10 = 0.2; node 1: 1/1 = 1.0.
        assert c.best_node_by_ratio(costs, allowed) == 1

    def test_ratio_window_restricts_to_top_coverage(self):
        c = RRCollection(3)
        c.add_sets_flat(*sets([0], [0], [1]))
        costs = np.array([10.0, 0.1, 0.1])
        allowed = np.ones(3, dtype=bool)
        # Window 1 only considers the top-coverage node (0).
        assert c.best_node_by_ratio(costs, allowed, window=1) == 0
        assert c.best_node_by_ratio(costs, allowed, window=3) == 1

    def test_zero_cost_is_maximally_attractive(self):
        c = RRCollection(2)
        c.add_sets_flat(*sets([0], [1], [1]))
        costs = np.array([0.0, 5.0])
        allowed = np.ones(2, dtype=bool)
        assert c.best_node_by_ratio(costs, allowed) == 0


class TestEstimates:
    def test_max_residual_fraction(self):
        c = RRCollection(3)
        c.add_sets_flat(*sets([0], [0], [1]))
        allowed = np.ones(3, dtype=bool)
        assert c.max_residual_fraction(allowed) == pytest.approx(2 / 3)
        c.mark_covered_by(0)
        assert c.max_residual_fraction(allowed) == pytest.approx(1 / 3)

    def test_max_residual_fraction_empty(self):
        c = RRCollection(3)
        assert c.max_residual_fraction(np.ones(3, dtype=bool)) == 0.0

    def test_spread_estimate_includes_covered(self):
        c = RRCollection(4)
        c.add_sets_flat(*sets([0, 1], [1], [2], [3]))
        c.mark_covered_by(1)
        # F({1}) over ALL sets is 2/4 regardless of covering state.
        assert c.spread_estimate(1) == pytest.approx(4 * 2 / 4)

    def test_spread_estimate_for_sets(self):
        c = RRCollection(4)
        c.add_sets_flat(*sets([0, 1], [1], [2], [3]))
        assert c.spread_estimate([2, 3]) == pytest.approx(4 * 2 / 4)

    def test_spread_estimate_empty_collection(self):
        with pytest.raises(EstimationError):
            RRCollection(2).spread_estimate(0)

    def test_standalone_estimator(self):
        rr = sets([0, 1], [2], [0])
        assert estimate_spread_flat(*rr, [0], 3) == pytest.approx(3 * 2 / 3)
        with pytest.raises(EstimationError):
            estimate_spread_flat(*sets(), [0], 3)


class TestMemory:
    def test_memory_grows_with_sets(self):
        c = RRCollection(10)
        before = c.memory_bytes()
        c.add_sets_flat(*sets([0, 1, 2], [3, 4]))
        assert c.memory_bytes() > before

    def test_memory_counts_members(self):
        c = RRCollection(10)
        c.add_sets_flat(*sets([0, 1, 2]))
        # 3 members at the narrowed width + 3 int64 index entries
        # + flags + counts array.
        assert c.members.dtype == np.int16
        assert c.memory_bytes() == 3 * c.members.itemsize + 3 * 8 + 1 + c.counts.nbytes
