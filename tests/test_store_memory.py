"""Memory-bounded RR stores: dtype narrowing, memmap spill, accounting.

Locks down the ISSUE-7 memory contract of
:mod:`repro.rrset.collection` (docs/ARCHITECTURE.md §2):

* ``members`` lives in the smallest sufficient signed dtype
  (:func:`member_dtype_for`) and narrowing is a lossless round-trip of
  the sampler's ``int64`` batches;
* ``indptr`` starts ``int32`` and upcasts to ``int64`` exactly when
  total membership crosses ``INDPTR_NARROW_MAX``;
* a :class:`SharedRRStore` past its ``bytes_budget`` spills members to
  a temp-file memmap — every read path (CSR slices, inverted index,
  adoption) returns identical values, and the spill file is unlinked on
  :meth:`close` (or by the GC finalizer safety net);
* measured accounting — ``member_bytes`` / ``peak_bytes`` /
  ``bytes_per_rr_set`` — surfaces through engine extras, session stats
  and grid manifest rows.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineSpec, solve
from repro.api.session import AllocationSession
from repro.errors import EstimationError
from repro.rrset import collection as collection_module
from repro.rrset.collection import (
    RRCollection,
    SharedRRCollection,
    SharedRRStore,
    member_dtype_for,
)

#: Engine/session/manifest memory-block keys (docs/ARCHITECTURE.md §2).
MEMORY_KEYS = {
    "store_bytes",
    "peak_store_bytes",
    "bytes_per_rr_set",
    "spilled_stores",
    "rr_bytes_budget",
}


def _flat(sets):
    arrays = [np.asarray(s, dtype=np.int64) for s in sets]
    indptr = np.concatenate(
        ([0], np.cumsum([a.size for a in arrays]))
    ).astype(np.int64)
    members = (
        np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    )
    return members, indptr


# ----------------------------------------------------------------------
# Dtype narrowing
# ----------------------------------------------------------------------
class TestMemberDtype:
    @pytest.mark.parametrize(
        "n_nodes, expected",
        [
            (1, np.int16),
            (2**15 - 1, np.int16),
            (2**15, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
        ],
    )
    def test_thresholds(self, n_nodes, expected):
        assert member_dtype_for(n_nodes) == np.dtype(expected)

    def test_narrowing_round_trips_collection(self):
        sets = [[0, 5, 7], [299], [], [7, 8]]
        c = RRCollection(300)
        c.add_sets_flat(*_flat(sets))
        assert c.members.dtype == np.int16
        for sid, ref in enumerate(sets):
            np.testing.assert_array_equal(
                c.set_members(sid), np.asarray(ref, dtype=np.int16)
            )
        # A second batch must not promote back to int64 on concatenate.
        c.add_sets_flat(*_flat([[1, 2]]))
        assert c.members.dtype == np.int16

    def test_narrowing_round_trips_store(self):
        sets = [[0, 40_000], [1], [39_999, 3]]
        store = SharedRRStore(40_001)
        store.extend_flat(*_flat(sets))
        assert store.members.dtype == np.int32
        for sid, ref in enumerate(sets):
            np.testing.assert_array_equal(
                store.set_members(sid), np.asarray(ref, dtype=np.int32)
            )

    def test_out_of_range_ids_still_rejected_before_cast(self):
        store = SharedRRStore(100)
        with pytest.raises(EstimationError, match="out-of-range"):
            store.extend_flat(*_flat([[100]]))


class TestIndptrNarrowing:
    def test_starts_int32_and_upcasts_past_threshold(self, monkeypatch):
        monkeypatch.setattr(collection_module, "INDPTR_NARROW_MAX", 5)
        store = SharedRRStore(50)
        store.extend_flat(*_flat([[1, 2], [3]]))  # total 3 members
        assert store.indptr.dtype == np.int32
        store.extend_flat(*_flat([[4, 5, 6]]))  # total 6 > 5: upcast
        assert store.indptr.dtype == np.int64
        np.testing.assert_array_equal(store.indptr, [0, 2, 3, 6])
        # And stays int64 from then on.
        store.extend_flat(*_flat([[7]]))
        assert store.indptr.dtype == np.int64

    def test_collection_upcasts_too(self, monkeypatch):
        monkeypatch.setattr(collection_module, "INDPTR_NARROW_MAX", 2)
        c = RRCollection(10)
        c.add_sets_flat(*_flat([[1], [2, 3], [4]]))
        assert c.indptr.dtype == np.int64
        np.testing.assert_array_equal(c.indptr, [0, 1, 3, 4])


# ----------------------------------------------------------------------
# Memmap spill
# ----------------------------------------------------------------------
class TestSpill:
    def test_round_trip_equality_against_unspilled(self, tmp_path):
        rng = np.random.default_rng(4)
        batches = [
            _flat([rng.integers(0, 500, size=rng.integers(0, 8)) for _ in range(6)])
            for _ in range(4)
        ]
        ram = SharedRRStore(500)
        spilling = SharedRRStore(500, bytes_budget=16, spill_dir=str(tmp_path))
        for members, indptr in batches:
            ram.extend_flat(members, indptr)
            spilling.extend_flat(members, indptr)
        assert not ram.spilled and spilling.spilled
        assert isinstance(spilling.members, np.memmap)
        np.testing.assert_array_equal(
            np.asarray(spilling.members), ram.members
        )
        np.testing.assert_array_equal(spilling.indptr, ram.indptr)
        for node in (0, 17, 499):
            np.testing.assert_array_equal(
                spilling.sets_containing(node), ram.sets_containing(node)
            )

    def test_unbudgeted_store_never_spills(self):
        store = SharedRRStore(100)
        store.extend_flat(*_flat([np.arange(50)] * 20))
        assert not store.spilled
        assert not isinstance(store.members, np.memmap)

    def test_spill_accounting(self, tmp_path):
        store = SharedRRStore(300, bytes_budget=64, spill_dir=str(tmp_path))
        store.extend_flat(*_flat([[1, 2, 3], [4]]))  # 8 bytes: in RAM
        assert not store.spilled
        in_ram = store.memory_bytes()
        assert store.peak_bytes == in_ram
        assert store.member_bytes == 4 * 2  # int16
        store.extend_flat(*_flat([np.arange(40)]))  # 88 bytes: spills
        assert store.spilled
        # RAM accounting drops the members once they live on disk; the
        # inverted-index share (8 bytes/member) remains.
        assert store.memory_bytes() == store.member_total * 8
        assert store.peak_bytes >= in_ram
        assert store.bytes_per_rr_set() == pytest.approx(
            (store.member_bytes + store.indptr.nbytes) / store.size
        )

    def test_close_unlinks_spill_file_and_blocks_growth(self, tmp_path):
        store = SharedRRStore(100, bytes_budget=1, spill_dir=str(tmp_path))
        store.extend_flat(*_flat([[1, 2], [3]]))
        assert store.spilled
        path = store._spill_path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)
        store.close()  # idempotent
        with pytest.raises(EstimationError, match="closed"):
            store.extend_flat(*_flat([[1]]))

    def test_finalizer_reaps_spill_file_on_gc(self, tmp_path):
        store = SharedRRStore(100, bytes_budget=1, spill_dir=str(tmp_path))
        store.extend_flat(*_flat([[1, 2], [3]]))
        path = store._spill_path
        del store
        gc.collect()
        assert not os.path.exists(path)

    def test_adoption_over_spilled_store_matches_ram(self, tmp_path):
        rng = np.random.default_rng(9)
        batch = _flat(
            [rng.integers(0, 60, size=rng.integers(1, 6)) for _ in range(30)]
        )
        ram = SharedRRStore(60)
        spilling = SharedRRStore(60, bytes_budget=8, spill_dir=str(tmp_path))
        for store in (ram, spilling):
            store.extend_flat(*batch)
        a, b = SharedRRCollection(ram), SharedRRCollection(spilling)
        for col in (a, b):
            col.adopt(20, seeds=[5])
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.covered_total == b.covered_total
        node = int(np.argmax(a.counts))
        assert a.mark_covered_by(node) == b.mark_covered_by(node)
        np.testing.assert_array_equal(a.counts, b.counts)

    @settings(max_examples=15, deadline=None)
    @given(
        budget=st.integers(1, 200),
        data_seed=st.integers(0, 2**16),
        n_batches=st.integers(1, 5),
    )
    def test_spill_is_value_transparent(self, budget, data_seed, n_batches):
        rng = np.random.default_rng(data_seed)
        ram = SharedRRStore(200)
        budgeted = SharedRRStore(200, bytes_budget=budget)
        try:
            for _ in range(n_batches):
                batch = _flat(
                    [
                        rng.integers(0, 200, size=rng.integers(0, 10))
                        for _ in range(rng.integers(1, 8))
                    ]
                )
                ram.extend_flat(*batch)
                budgeted.extend_flat(*batch)
            np.testing.assert_array_equal(
                np.asarray(budgeted.members), ram.members
            )
            np.testing.assert_array_equal(budgeted.indptr, ram.indptr)
        finally:
            budgeted.close()


# ----------------------------------------------------------------------
# Accounting surfaces: engine extras, session stats, grid manifest
# ----------------------------------------------------------------------
class TestAccountingSurfaces:
    def test_engine_extras_memory_block(self):
        from tests.conftest import make_tiny_instance

        inst = make_tiny_instance(probs_value=0.6)
        spec = EngineSpec(
            eps=0.8, theta_cap=150, opt_lower=1.0, seed=17,
            share_samples=True, rr_bytes_budget=1,
        )
        result = solve(inst, "TI-CSRM", spec)
        memory = result.extras["memory"]
        assert set(memory) == MEMORY_KEYS
        assert memory["rr_bytes_budget"] == 1
        assert memory["spilled_stores"] >= 1
        assert memory["bytes_per_rr_set"] > 0
        assert memory["peak_store_bytes"] >= memory["store_bytes"] >= 0

    def test_engine_extras_without_budget(self):
        from tests.conftest import make_tiny_instance

        result = solve(
            make_tiny_instance(probs_value=0.6),
            "TI-CSRM",
            EngineSpec(eps=0.8, theta_cap=150, opt_lower=1.0, seed=17),
        )
        memory = result.extras["memory"]
        assert memory["rr_bytes_budget"] is None
        assert memory["spilled_stores"] == 0
        assert memory["bytes_per_rr_set"] > 0

    def test_invalid_budget_rejected_by_spec(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            EngineSpec(rr_bytes_budget=0)
        with pytest.raises(SpecError):
            EngineSpec(rr_bytes_budget=-5)
        assert EngineSpec(rr_bytes_budget=None).rr_bytes_budget is None

    def test_session_stats_carry_memory_keys(self):
        from tests.conftest import make_tiny_instance

        inst = make_tiny_instance(probs_value=0.6)
        spec = EngineSpec(
            eps=0.8, theta_cap=150, opt_lower=1.0, seed=17,
            share_samples=True, rr_bytes_budget=1,
        )
        with AllocationSession(inst.graph, spec=spec) as session:
            session.solve(inst, "TI-CSRM")
            stats = session.stats
            assert stats["spilled_stores"] >= 1
            assert stats["store_bytes"] >= 0
            assert stats["peak_store_bytes"] > 0
            assert stats["bytes_per_rr_set"] > 0
            spill_paths = [
                g.store._spill_path
                for g in session._warm.stores.values()
                if g.store is not None and g.store.spilled
            ]
            assert spill_paths
        # close() reaped every spill file with the session.
        assert not any(os.path.exists(p) for p in spill_paths)

    def test_grid_manifest_rows_carry_memory_block(self, tmp_path):
        from repro.experiments.grid import GridSpec, run_grid

        spec = GridSpec.from_dict(
            {
                "name": "membudget",
                "datasets": [
                    {
                        "name": "epinions_syn",
                        "n": 120,
                        "h": 2,
                        "singleton_rr_samples": 400,
                    }
                ],
                "algorithms": ["TI-CSRM"],
                "alphas": [1.0],
                "seed": 11,
                "config": {
                    "eps": 1.0,
                    "theta_cap": 120,
                    "share_samples": True,
                    "rr_bytes_budget": 1,
                },
            }
        )
        rows = run_grid(spec, str(tmp_path / "mem.jsonl"))
        assert rows and all(row["kind"] == "cell" for row in rows)
        for row in rows:
            memory = row["memory"]
            assert set(memory) == MEMORY_KEYS
            assert memory["rr_bytes_budget"] == 1
            assert memory["spilled_stores"] >= 1
            assert memory["bytes_per_rr_set"] > 0
            assert row["engine_spec"]["rr_bytes_budget"] == 1

    def test_warm_grid_session_block_carries_store_bytes(self, tmp_path):
        from repro.experiments.grid import GridSpec, run_grid

        spec = GridSpec.from_dict(
            {
                "name": "memwarm",
                "datasets": [
                    {
                        "name": "epinions_syn",
                        "n": 120,
                        "h": 2,
                        "singleton_rr_samples": 400,
                    }
                ],
                "algorithms": ["TI-CSRM"],
                "alphas": [0.5, 1.0],
                "seed": 11,
                "config": {"eps": 1.0, "theta_cap": 120},
            }
        )
        rows = run_grid(
            spec, str(tmp_path / "warm.jsonl"), execution="warm_per_dataset"
        )
        assert [row["kind"] for row in rows] == ["cell", "cell"]
        for row in rows:
            session = row["session"]
            assert session["store_bytes"] > 0
            assert session["peak_store_bytes"] >= session["store_bytes"]
            assert session["bytes_per_rr_set"] > 0
            assert session["spilled_stores"] == 0
