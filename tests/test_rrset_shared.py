"""Tests for the shared RR store (future work i: memory-efficient TI-CSRM)."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.rrset.collection import RRCollection, SharedRRCollection, SharedRRStore
from tests.conftest import flat_sets as sets


class TestStore:
    def test_extend_and_index(self):
        store = SharedRRStore(4)
        store.extend_flat(*sets([0, 1], [1, 2]))
        assert store.size == 2
        assert store.sets_containing(1).tolist() == [0, 1]
        assert store.sets_containing(3).tolist() == []
        assert store.member_total == 4

    def test_out_of_range_rejected(self):
        store = SharedRRStore(3)
        with pytest.raises(EstimationError):
            store.extend_flat(*sets([0, 7]))

    def test_invalid_n(self):
        with pytest.raises(EstimationError):
            SharedRRStore(0)

    def test_memory_counts_sets_and_index_once(self):
        store = SharedRRStore(5)
        store.extend_flat(*sets([0, 1, 2]))
        # 3 members at the narrowed width + 3 int64 index entries.
        assert store.members.dtype == np.int16
        assert store.memory_bytes() == 3 * store.members.itemsize + 3 * 8


class TestSharedCollection:
    def test_view_matches_private_collection(self):
        """A view over a shared store must behave exactly like a private
        RRCollection fed the same sets."""
        rr = sets([0, 1], [1, 2], [2, 3], [3])
        store = SharedRRStore(4)
        store.extend_flat(*rr)
        view = SharedRRCollection(store)
        view.adopt(4)
        private = RRCollection(4)
        private.add_sets_flat(*rr)

        assert view.counts.tolist() == private.counts.tolist()
        allowed = np.ones(4, dtype=bool)
        assert view.best_node(allowed) == private.best_node(allowed)

        assert view.mark_covered_by(1) == private.mark_covered_by(1)
        assert view.counts.tolist() == private.counts.tolist()
        assert view.covered_total == private.covered_total
        assert view.max_residual_fraction(allowed) == pytest.approx(
            private.max_residual_fraction(allowed)
        )

    def test_views_are_independent(self):
        store = SharedRRStore(3)
        store.extend_flat(*sets([0, 1], [1, 2]))
        a = SharedRRCollection(store)
        b = SharedRRCollection(store)
        a.adopt(2)
        b.adopt(2)
        a.mark_covered_by(1)
        assert a.covered_total == 2
        assert b.covered_total == 0
        assert b.counts.tolist() == [1, 2, 1]

    def test_partial_adoption(self):
        store = SharedRRStore(3)
        store.extend_flat(*sets([0], [1], [2]))
        view = SharedRRCollection(store)
        view.adopt(2)
        assert view.theta == 2
        assert view.counts.tolist() == [1, 1, 0]
        # Sets beyond the adopted range are invisible to covering.
        assert view.mark_covered_by(2) == 0

    def test_adopt_with_seeds_absorbs(self):
        store = SharedRRStore(3)
        store.extend_flat(*sets([0, 1], [2]))
        view = SharedRRCollection(store)
        absorbed = view.adopt(2, seeds=[0])
        assert absorbed == 1
        assert view.covered_total == 1
        assert view.counts.tolist() == [0, 0, 1]

    def test_adopt_beyond_store_rejected(self):
        store = SharedRRStore(3)
        view = SharedRRCollection(store)
        with pytest.raises(EstimationError):
            view.adopt(1)

    def test_ratio_selection_matches_private(self):
        rr = sets([0], [0], [1], [2, 0])
        store = SharedRRStore(3)
        store.extend_flat(*rr)
        view = SharedRRCollection(store)
        view.adopt(4)
        private = RRCollection(3)
        private.add_sets_flat(*rr)
        costs = np.array([5.0, 0.5, 1.0])
        allowed = np.ones(3, dtype=bool)
        assert view.best_node_by_ratio(costs, allowed) == private.best_node_by_ratio(
            costs, allowed
        )
        assert view.best_node_by_ratio(
            costs, allowed, window=1
        ) == private.best_node_by_ratio(costs, allowed, window=1)

    def test_overlay_memory_small(self):
        store = SharedRRStore(100)
        store.extend_flat(*sets(*[[i % 100] for i in range(50)]))
        view = SharedRRCollection(store)
        view.adopt(50)
        # Overlay = covered flags + counts vector only.
        assert view.memory_bytes() == 50 + view.counts.nbytes


class TestEngineSharing:
    def test_sharing_reduces_memory_same_constraints(self):
        import repro

        ds = repro.build_dataset("epinions_syn", n=400, h=6, singleton_rr_samples=800)
        inst = ds.build_instance("linear", 1.0)
        spec = repro.EngineSpec(
            eps=0.8, theta_cap=400, opt_lower=ds.opt_lower_bounds(), seed=3
        )
        private = repro.solve(inst, "TI-CSRM", spec, share_samples=False)
        shared = repro.solve(inst, "TI-CSRM", spec, share_samples=True)
        assert shared.extras["memory_bytes"] < private.extras["memory_bytes"]
        # Constraints still hold.
        for i in range(inst.h):
            assert shared.payment_per_ad[i] <= inst.budget(i) + 1e-6
        nodes = [n for n, _ in shared.allocation.pairs()]
        assert len(nodes) == len(set(nodes))

    def test_sharing_groups_by_probability_vector(self):
        """Ads with different probabilities must NOT share stores."""
        import repro
        from repro.core.ti_engine import TIEngine

        ds = repro.build_dataset("flixster_syn", n=300, h=4, singleton_rr_samples=600)
        inst = ds.build_instance("linear", 1.0)
        spec = repro.EngineSpec(
            eps=0.8, theta_cap=300, opt_lower=ds.opt_lower_bounds(), seed=4,
            share_samples=True,
        )
        engine = TIEngine(inst, spec, candidate_rule="cs", selector="rate")
        engine.run()
        stores = {id(s.store) for s in engine._states}
        # 4 ads in 2 pure-competition pairs -> exactly 2 shared stores.
        assert len(stores) == 2
