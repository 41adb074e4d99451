"""Warm-session grid execution: provenance, parity, resume, lifecycle.

The cold path's guarantees (order-independence, bit-reproducibility per
``(spec, seed)``) are covered by ``tests/test_experiments_grid.py``;
this suite covers what ``execution: warm_per_dataset`` adds — and what
it deliberately trades away (docs/ARCHITECTURE.md §10).
"""

import json

import pytest

import repro.serve.pool as pool_module
from repro.api.registry import register_algorithm, unregister_algorithm
from repro.api.session import AllocationSession
from repro.errors import SpecError
from repro.experiments.grid import (
    GridSpec,
    load_manifest,
    run_grid,
    session_group_key,
)

SMOKE = {
    "name": "smoke",
    "datasets": [
        {"name": "epinions_syn", "n": 120, "h": 2, "singleton_rr_samples": 400}
    ],
    "algorithms": ["TI-CSRM", "TI-CARM"],
    "alphas": [0.5, 1.0],
    "seed": 11,
    "config": {"eps": 1.0, "theta_cap": 120},
}
WARM = {**SMOKE, "execution": {"mode": "warm_per_dataset"}}


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "runtime_s"}


@pytest.fixture
def recorded_sessions(monkeypatch):
    """Record (and expose) every AllocationSession the grid runner opens
    (warm cells lease theirs from a SessionPool)."""
    created = []

    class RecordingSession(AllocationSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(pool_module, "AllocationSession", RecordingSession)
    return created


class TestExecutionSpec:
    def test_default_is_cold(self):
        spec = GridSpec.from_dict(SMOKE)
        assert spec.execution_mode == "cold"
        assert spec.execution == {"mode": "cold"}

    def test_round_trip_preserves_warm_mode(self):
        spec = GridSpec.from_dict(WARM)
        assert spec.execution_mode == "warm_per_dataset"
        assert GridSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["execution"] == {"mode": "warm_per_dataset"}

    def test_cold_to_dict_is_pre_execution_canonical_form(self):
        # The canonical form (and thus spec_key) of a cold spec must be
        # byte-identical to what the field-less GridSpec produced, so
        # pre-warm manifests stay resumable.
        assert "execution" not in GridSpec.from_dict(SMOKE).to_dict()

    def test_spec_key_ignores_execution_mode(self):
        assert (
            GridSpec.from_dict(SMOKE).spec_key()
            == GridSpec.from_dict(WARM).spec_key()
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecError, match="execution mode"):
            GridSpec.from_dict({**SMOKE, "execution": {"mode": "tepid"}})

    def test_unknown_execution_key_rejected(self):
        with pytest.raises(SpecError, match="execution keys"):
            GridSpec.from_dict(
                {**SMOKE, "execution": {"mode": "cold", "frobnicate": 1}}
            )

    def test_non_object_execution_rejected(self):
        with pytest.raises(SpecError, match="execution"):
            GridSpec.from_dict({**SMOKE, "execution": "warm_per_dataset"})

    def test_group_key_distinguishes_builder_options(self):
        spec_a = GridSpec.from_dict(SMOKE)
        spec_b = GridSpec.from_dict(
            {**SMOKE, "datasets": [{**SMOKE["datasets"][0], "n": 130}]}
        )
        key_a = session_group_key(spec_a.cells()[0].dataset)
        key_b = session_group_key(spec_b.cells()[0].dataset)
        assert key_a != key_b
        assert key_a.startswith("epinions_syn@")


class TestWarmProvenance:
    def test_rows_carry_session_blocks(self, tmp_path):
        spec = GridSpec.from_dict(WARM)
        rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert len(rows) == 4
        for cell, row in zip(spec.cells(), rows):
            session = row["session"]
            assert session["group"] == session_group_key(cell.dataset)
            # Warm mode implies shared-store semantics; the engine-spec
            # echo records what actually ran.
            assert row["engine_spec"]["share_samples"] is True
        first, *rest = [row["session"] for row in rows]
        assert first["solve_index"] == 0 and first["warm_resolve"] is False
        assert first["store_misses"] == 1 and first["sets_sampled"] > 0
        for index, session in enumerate(rest, start=1):
            assert session["solve_index"] == index
            assert session["warm_resolve"] is True
            # One distinct probability vector on this dataset: every
            # later cell finds the existing store (a hit, no miss).
            assert session["store_hits"] == 1
            assert session["store_misses"] == 0

    def test_store_fully_serves_identical_sampling_needs(self, tmp_path):
        spec = GridSpec.from_dict(WARM)
        rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        sampled = [row["session"]["sets_sampled"] for row in rows]
        # Cells after the first adopt the store's prefix and sample only
        # past its end; the whole grid's sampling is about one cold
        # cell's worth, not four.
        assert sum(sampled[1:]) <= sampled[0]

    def test_manifest_header_pins_mode(self, tmp_path):
        manifest = str(tmp_path / "m.jsonl")
        run_grid(GridSpec.from_dict(WARM), manifest)
        header, rows = load_manifest(manifest)
        assert header["execution_mode"] == "warm_per_dataset"
        assert all("session" in row for row in rows)

    def test_cold_rows_and_header_unchanged(self, tmp_path):
        manifest = str(tmp_path / "m.jsonl")
        rows = run_grid(GridSpec.from_dict(SMOKE), manifest)
        header, _ = load_manifest(manifest)
        assert "execution_mode" not in header
        assert all("session" not in row for row in rows)

    def test_explicit_cold_block_equals_default(self, tmp_path):
        default = run_grid(GridSpec.from_dict(SMOKE), str(tmp_path / "a.jsonl"))
        explicit = run_grid(
            GridSpec.from_dict({**SMOKE, "execution": {"mode": "cold"}}),
            str(tmp_path / "b.jsonl"),
        )
        assert [_strip(r) for r in default] == [_strip(r) for r in explicit]

    def test_execution_override_beats_spec(self, tmp_path):
        rows = run_grid(
            GridSpec.from_dict(SMOKE),
            str(tmp_path / "m.jsonl"),
            execution="warm_per_dataset",
        )
        assert all("session" in row for row in rows)
        with pytest.raises(SpecError, match="execution mode"):
            run_grid(
                GridSpec.from_dict(SMOKE),
                str(tmp_path / "n.jsonl"),
                execution="lukewarm",
            )

    def test_two_dataset_groups_run_contiguously(self, tmp_path, recorded_sessions):
        spec = GridSpec.from_dict(
            {
                **WARM,
                "datasets": [
                    {"name": "epinions_syn", "n": 120, "h": 2,
                     "singleton_rr_samples": 400},
                    {"name": "dblp_syn", "n": 150, "h": 2},
                ],
                "algorithms": ["TI-CARM"],
            }
        )
        seen = []
        rows = run_grid(
            spec,
            str(tmp_path / "m.jsonl"),
            progress=lambda done, total, row: seen.append(
                row["session"]["group"]
            ),
        )
        # Execution is group-contiguous...
        groups = [key for i, key in enumerate(seen) if i == 0 or key != seen[i - 1]]
        assert len(groups) == len(set(seen)) == 2
        # ...rows return in cells() order, each group numbered 0, 1, ...
        for cell, row in zip(spec.cells(), rows):
            assert row["session"]["group"] == session_group_key(cell.dataset)
        assert [r["session"]["solve_index"] for r in rows] == [0, 1, 0, 1]
        # One session per group, all closed (eagerly, group by group).
        assert len(recorded_sessions) == 2
        assert all(s._closed for s in recorded_sessions)


class TestWarmColdStatisticalParity:
    """Warm reuse draws different — equally valid — RR samples than cold
    solves, so results are statistically, not bitwise, comparable."""

    def test_revenue_parity_on_smoke_grid(self, tmp_path):
        cold = run_grid(GridSpec.from_dict(SMOKE), str(tmp_path / "c.jsonl"))
        warm = run_grid(GridSpec.from_dict(WARM), str(tmp_path / "w.jsonl"))
        assert [r["cell_id"] for r in cold] == [r["cell_id"] for r in warm]
        ratios = []
        for c, w in zip(cold, warm):
            assert c["revenue"] > 0 and w["revenue"] > 0
            ratio = w["revenue"] / c["revenue"]
            assert 0.6 < ratio < 1.6, (c["algorithm"], c["alpha"], ratio)
            ratios.append(ratio)
        assert 0.85 < sum(ratios) / len(ratios) < 1.18

    def test_seed_cost_parity_on_smoke_grid(self, tmp_path):
        cold = run_grid(GridSpec.from_dict(SMOKE), str(tmp_path / "c.jsonl"))
        warm = run_grid(GridSpec.from_dict(WARM), str(tmp_path / "w.jsonl"))
        for c, w in zip(cold, warm):
            assert c["seed_cost"] > 0 and w["seed_cost"] > 0
            assert 0.5 < w["seed_cost"] / c["seed_cost"] < 2.0
            assert abs(w["seeds"] - c["seeds"]) <= max(3, 0.5 * c["seeds"])

    def test_warm_runs_are_deterministic(self, tmp_path):
        rows1 = run_grid(GridSpec.from_dict(WARM), str(tmp_path / "a.jsonl"))
        rows2 = run_grid(GridSpec.from_dict(WARM), str(tmp_path / "b.jsonl"))
        assert [_strip(r) for r in rows1] == [_strip(r) for r in rows2]


class TestWarmResume:
    def test_interrupted_warm_run_resumes_to_full_grid(self, tmp_path):
        spec = GridSpec.from_dict(WARM)
        manifest = str(tmp_path / "m.jsonl")
        rows = run_grid(spec, manifest)
        lines = open(manifest).read().strip().split("\n")
        partial = str(tmp_path / "partial.jsonl")
        with open(partial, "w") as fh:
            fh.write("\n".join(lines[:3]) + "\n")  # header + 2 cells
        resumed = run_grid(spec, partial)
        assert len(resumed) == len(rows)
        # Completed cells are preserved verbatim; the re-run tail opens
        # a fresh session, so its solve indices restart at 0.
        assert [_strip(r) for r in resumed[:2]] == [_strip(r) for r in rows[:2]]
        assert resumed[2]["session"]["solve_index"] == 0
        assert resumed[3]["session"]["solve_index"] == 1
        header, cells = load_manifest(partial)
        assert header["execution_mode"] == "warm_per_dataset"
        assert len(cells) == len(spec.cells())

    def test_fully_resumed_warm_run_opens_no_sessions(
        self, tmp_path, recorded_sessions
    ):
        spec = GridSpec.from_dict(WARM)
        manifest = str(tmp_path / "m.jsonl")
        rows = run_grid(spec, manifest)
        opened = len(recorded_sessions)
        resumed = run_grid(spec, manifest)
        assert [_strip(r) for r in resumed] == [_strip(r) for r in rows]
        assert len(recorded_sessions) == opened  # nothing re-opened

    def test_mode_mismatch_rejected_both_ways(self, tmp_path):
        cold_manifest = str(tmp_path / "cold.jsonl")
        run_grid(GridSpec.from_dict(SMOKE), cold_manifest)
        with pytest.raises(SpecError, match="execution mode 'cold'"):
            run_grid(GridSpec.from_dict(WARM), cold_manifest)
        warm_manifest = str(tmp_path / "warm.jsonl")
        run_grid(GridSpec.from_dict(WARM), warm_manifest)
        with pytest.raises(SpecError, match="execution mode 'warm_per_dataset'"):
            run_grid(GridSpec.from_dict(SMOKE), warm_manifest)

    def test_pre_execution_mode_manifest_reads_as_cold(self, tmp_path):
        # Manifests written before the execution block existed carry no
        # execution_mode key: they were cold runs and must keep resuming
        # under cold — and be rejected under warm.
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        rows = run_grid(spec, manifest)
        header, _ = load_manifest(manifest)
        assert "execution_mode" not in header  # the legacy shape itself
        resumed = run_grid(spec, manifest)
        assert [_strip(r) for r in resumed] == [_strip(r) for r in rows]
        with pytest.raises(SpecError, match="warm"):
            run_grid(spec, manifest, execution="warm_per_dataset")

    def test_fresh_ignores_mode_mismatch(self, tmp_path):
        manifest = str(tmp_path / "m.jsonl")
        run_grid(GridSpec.from_dict(SMOKE), manifest)
        rows = run_grid(GridSpec.from_dict(WARM), manifest, resume=False)
        header, _ = load_manifest(manifest)
        assert header["execution_mode"] == "warm_per_dataset"
        assert all("session" in row for row in rows)


class TestCrashedCellCleanup:
    """A cell that raises must not orphan sessions or worker pools.

    Since the fault-tolerance layer (ARCHITECTURE.md §11) a crashing
    cell is *quarantined* — the grid completes with a typed error row —
    but the cleanup contract is unchanged: the poisoned group's session
    closes immediately (each later cell of the group reopens a fresh
    one), and every session is closed by the time run_grid returns.
    """

    @pytest.fixture
    def boom_algorithm(self):
        def boom_selector(engine, candidates):
            raise RuntimeError("boom")

        register_algorithm("BOOM", "ca", boom_selector)
        yield "BOOM"
        unregister_algorithm("BOOM")

    def test_crash_closes_sessions(self, tmp_path, recorded_sessions, boom_algorithm):
        spec = GridSpec.from_dict({**WARM, "algorithms": ["BOOM"]})
        rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert all(row["kind"] == "cell_error" for row in rows)
        assert all(row["error_type"] == "RuntimeError" for row in rows)
        # One session per failing cell: each failure tears its group
        # down, the next cell reopens — and every one ends closed.
        assert len(recorded_sessions) == len(rows)
        for session in recorded_sessions:
            assert session._closed
            assert session.stats["stores"] == 0  # stores dropped with the close

    def test_crash_does_not_orphan_shared_graph_pool(
        self, tmp_path, recorded_sessions, boom_algorithm
    ):
        # The parallel backend puts the graph into multiprocessing
        # shared memory (SharedGraphPool) owned by the group's session;
        # the crash path must tear it down.
        spec = GridSpec.from_dict(
            {
                **WARM,
                "algorithms": ["BOOM"],
                "config": {**WARM["config"], "workers": 2},
            }
        )
        rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert all(row["kind"] == "cell_error" for row in rows)
        assert recorded_sessions
        for session in recorded_sessions:
            assert session._closed
            assert session._warm.pool is None  # pool closed, not orphaned

    def test_manifest_keeps_completed_cells_next_to_quarantined_ones(
        self, tmp_path, boom_algorithm
    ):
        # TI-CSRM cells sort before BOOM in no axis — order is the spec
        # order, so put the healthy algorithm first and crash second.
        spec = GridSpec.from_dict(
            {**WARM, "algorithms": ["TI-CARM", "BOOM"], "alphas": [0.5]}
        )
        manifest = str(tmp_path / "m.jsonl")
        run_grid(spec, manifest)
        header, rows = load_manifest(manifest)
        assert header is not None and len(rows) == 2
        assert rows[0]["kind"] == "cell" and rows[0]["algorithm"] == "TI-CARM"
        assert rows[1]["kind"] == "cell_error" and rows[1]["algorithm"] == "BOOM"
        # And the manifest resumes (same mode) once the spec is fixed.
        fixed = GridSpec.from_dict(
            {**WARM, "algorithms": ["TI-CARM"], "alphas": [0.5]}
        )
        with pytest.raises(SpecError, match="spec changed"):
            run_grid(fixed, manifest)
