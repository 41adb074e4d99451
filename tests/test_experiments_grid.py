"""Tests for the declarative scenario-grid runner."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ti_engine import TIEngine
from repro.errors import InstanceError, SpecError
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import (
    GridCell,
    GridSpec,
    grid_table_rows,
    load_manifest,
    run_grid,
)
from tests.conftest import JSON_VALUES

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


#: Engine keys that no longer exist; a grid config or manifest header
#: naming one is refused.  The backend-name key is assembled from parts
#: so that a repo-wide search for leftover uses of it finds none.
REMOVED_CONFIG_KEYS = ("_".join(("sampler", "backend")), "lazy_candidates")


def _record_engines(monkeypatch, *, eager: bool = False) -> list:
    """Collect every TIEngine the grid builds; *eager* switches each one
    to the full candidate rescan, the reference lazy caching must match."""
    original = TIEngine.__init__
    engines: list = []

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if eager:
            self.lazy_candidates = False
        engines.append(self)

    monkeypatch.setattr(TIEngine, "__init__", init)
    return engines


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "runtime_s"}


class TestGridSpec:
    def test_from_dict_round_trips(self):
        spec = GridSpec.from_dict(SMOKE)
        assert GridSpec.from_dict(spec.to_dict()) == spec

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMOKE))
        assert GridSpec.from_json(str(path)).name == "smoke"

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            GridSpec.from_dict({**SMOKE, "frobnicate": 1})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SpecError, match="unknown algorithm"):
            GridSpec.from_dict({**SMOKE, "algorithms": ["MAGIC"]})

    def test_unknown_incentive_model_rejected(self):
        with pytest.raises(SpecError, match="incentive"):
            GridSpec.from_dict({**SMOKE, "incentive_models": ["quadratic"]})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(SpecError, match="config"):
            GridSpec.from_dict({**SMOKE, "config": {"nope": 1}})

    def test_dataset_entry_needs_name_or_path(self):
        with pytest.raises(SpecError):
            GridSpec.from_dict({**SMOKE, "datasets": [{"n": 10}]})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="invalid JSON"):
            GridSpec.from_json(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            GridSpec.from_json(str(tmp_path / "nope.json"))

    def test_cell_cross_product(self):
        spec = GridSpec.from_dict(SMOKE)
        cells = spec.cells()
        assert len(cells) == 4  # 1 dataset x 2 algorithms x 2 alphas
        assert len({cell.cell_id for cell in cells}) == 4

    def test_cell_seed_depends_on_root_and_cell(self):
        spec = GridSpec.from_dict(SMOKE)
        cells = spec.cells()
        seeds = [cell.seed_for(spec.seed) for cell in cells]
        assert len(set(seeds)) == len(seeds)
        assert [cell.seed_for(spec.seed) for cell in cells] == seeds  # stable
        assert cells[0].seed_for(spec.seed + 1) != seeds[0]

    def test_cell_id_order_independent(self):
        # A cell's identity (and thus its seed) does not change when the
        # spec's axes are reordered — only its parameters matter.
        spec_a = GridSpec.from_dict(SMOKE)
        spec_b = GridSpec.from_dict({**SMOKE, "alphas": [1.0, 0.5]})
        ids_a = {cell.cell_id for cell in spec_a.cells()}
        ids_b = {cell.cell_id for cell in spec_b.cells()}
        assert ids_a == ids_b

    def test_committed_specs_parse(self):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parent.parent / "specs"
        for name in ("smoke.json", "smoke_warm.json", "fig5.json"):
            spec = GridSpec.from_json(str(specs_dir / name))
            assert spec.cells()
        warm = GridSpec.from_json(str(specs_dir / "smoke_warm.json"))
        assert warm.execution_mode == "warm_per_dataset"


class TestRunGrid:
    def test_deterministic_across_runs(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        rows1 = run_grid(spec, str(tmp_path / "m1.jsonl"))
        rows2 = run_grid(spec, str(tmp_path / "m2.jsonl"))
        assert [_strip(r) for r in rows1] == [_strip(r) for r in rows2]

    def test_resume_skips_completed_cells(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        rows = run_grid(spec, manifest)
        before = open(manifest).read()
        resumed = run_grid(spec, manifest)
        assert open(manifest).read() == before  # nothing re-ran
        assert [_strip(r) for r in resumed] == [_strip(r) for r in rows]

    def test_partial_manifest_resumes_to_same_results(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        rows = run_grid(spec, manifest)
        lines = open(manifest).read().strip().split("\n")
        partial = str(tmp_path / "partial.jsonl")
        with open(partial, "w") as fh:
            fh.write("\n".join(lines[:2]) + "\n")
        resumed = run_grid(spec, partial)
        assert [_strip(r) for r in resumed] == [_strip(r) for r in rows]
        header, cells = load_manifest(partial)
        assert header["spec_key"] == spec.spec_key()
        assert len(cells) == len(spec.cells())

    def test_truncated_trailing_line_is_dropped(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        rows = run_grid(spec, manifest)
        content = open(manifest).read().strip().split("\n")
        with open(manifest, "w") as fh:
            fh.write("\n".join(content[:-1]) + "\n")
            fh.write(content[-1][: len(content[-1]) // 2])  # killed mid-write
        resumed = run_grid(spec, manifest)
        assert [_strip(r) for r in resumed] == [_strip(r) for r in rows]

    def test_edited_spec_rejected_on_resume(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        run_grid(spec, manifest)
        edited = GridSpec.from_dict({**SMOKE, "alphas": [0.5]})
        with pytest.raises(SpecError, match="spec changed"):
            run_grid(edited, manifest)

    def test_headerless_manifest_rejected_on_resume(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        run_grid(spec, manifest)
        lines = open(manifest).read().strip().split("\n")
        with open(manifest, "w") as fh:
            fh.write("\n".join(lines[1:]) + "\n")  # header line lost
        with pytest.raises(SpecError, match="no readable header"):
            run_grid(spec, manifest)

    def test_empty_existing_manifest_starts_fresh(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("")
        rows = run_grid(spec, str(manifest))
        header, cells = load_manifest(str(manifest))
        assert header is not None and len(cells) == len(rows)

    def test_different_config_rejected_on_resume(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        run_grid(spec, manifest)
        with pytest.raises(SpecError, match="config"):
            run_grid(spec, manifest, config_overrides={"eps": 0.9})

    def test_fresh_overwrites(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        run_grid(spec, manifest)
        rows = run_grid(spec, manifest, resume=False)
        header, cells = load_manifest(manifest)
        assert len(cells) == len(rows) == len(spec.cells())

    def test_progress_callback(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        seen = []
        run_grid(
            spec,
            str(tmp_path / "m.jsonl"),
            progress=lambda done, total, row: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_overrides_axes_reach_the_instance(self, tmp_path):
        spec = GridSpec.from_dict(
            {
                **SMOKE,
                "algorithms": ["TI-CSRM"],
                "alphas": [0.5],
                "h": [3],
                "budgets": [40.0],
                "cpes": [2.0],
                "windows": [50],
            }
        )
        (row,) = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert row["h"] == 3 and row["budget"] == 40.0 and row["cpe"] == 2.0
        assert row["window"] == 50
        assert row["revenue"] > 0

    def test_grid_table_rows_flatten(self, tmp_path):
        spec = GridSpec.from_dict(SMOKE)
        rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        table = grid_table_rows(rows)
        assert len(table) == 4
        assert table[0]["dataset"] == "epinions_syn"
        assert "dataset_spec" not in table[0] and "cell_id" not in table[0]
        assert table[0]["h"] == "-"  # unset axes render as dashes


class TestEngineKnobsThroughGrid:
    """Satellite: share_samples is grid-pinnable; candidate caching is not
    a knob, and every unwindowed cell runs with it."""

    def test_two_cell_grid_pins_share_and_lazy(self, tmp_path, monkeypatch):
        spec = GridSpec.from_dict(
            {
                **SMOKE,
                "algorithms": ["TI-CSRM", "TI-CARM"],
                "alphas": [0.5],
                "config": {"eps": 1.0, "theta_cap": 120, "share_samples": True},
            }
        )
        engines = _record_engines(monkeypatch)
        rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert len(rows) == 2
        for row in rows:
            assert row["engine_spec"]["share_samples"] is True
            assert row["revenue"] >= 0
        assert len(engines) == 2 and all(e.lazy_candidates for e in engines)

    def test_resume_across_config_field_additions(self, tmp_path):
        """Manifests written before a config field existed stay resumable
        when the current value equals the field's default."""
        spec = GridSpec.from_dict(SMOKE)
        manifest = str(tmp_path / "m.jsonl")
        first = run_grid(spec, manifest)
        # Simulate an old manifest: drop a newer key from the header.
        lines = open(manifest).read().splitlines()
        header = json.loads(lines[0])
        del header["config"]["share_samples"]
        lines[0] = json.dumps(header, sort_keys=True)
        open(manifest, "w").write("\n".join(lines) + "\n")
        resumed = run_grid(spec, manifest)  # all cells load, none re-run
        assert [_strip(r) for r in resumed] == [_strip(r) for r in first]
        # A non-default current value is still a real mismatch.
        with pytest.raises(SpecError):
            run_grid(spec, manifest, config_overrides={"share_samples": True})

    @pytest.mark.parametrize("key", REMOVED_CONFIG_KEYS)
    def test_manifest_naming_removed_key_refused(self, tmp_path, key):
        """A manifest whose header config carries a removed engine key
        was run under a knob that no longer exists: resuming is refused,
        whatever the key's value was."""
        spec = GridSpec.from_dict({**SMOKE, "alphas": [0.5]})
        manifest = str(tmp_path / "m.jsonl")
        run_grid(spec, manifest)
        lines = open(manifest).read().splitlines()
        header = json.loads(lines[0])
        header["config"][key] = None
        lines[0] = json.dumps(header, sort_keys=True)
        open(manifest, "w").write("\n".join(lines) + "\n")
        with pytest.raises(SpecError, match="different estimator config"):
            run_grid(spec, manifest)

    @pytest.mark.parametrize("key", REMOVED_CONFIG_KEYS)
    def test_config_naming_removed_key_refused(self, key):
        with pytest.raises(SpecError, match="unknown config keys"):
            GridSpec.from_dict({**SMOKE, "config": {**SMOKE["config"], key: None}})

    def test_lazy_and_eager_cells_agree(self, tmp_path, monkeypatch):
        """Lazy candidate caching is exact (bit-identical allocations),
        checked end to end through the grid layer: the same cell re-run
        with every engine switched to the eager rescan."""
        spec = GridSpec.from_dict({**SMOKE, "algorithms": ["TI-CSRM"], "alphas": [1.0]})
        (lazy_row,) = run_grid(spec, str(tmp_path / "lazy.jsonl"))
        eager_engines = _record_engines(monkeypatch, eager=True)
        (eager_row,) = run_grid(spec, str(tmp_path / "eager.jsonl"))
        assert eager_engines and not any(e.lazy_candidates for e in eager_engines)
        assert lazy_row["revenue"] == eager_row["revenue"]
        assert lazy_row["seeds"] == eager_row["seeds"]


class TestSpecValidation:
    """Malformed axes fail at parse time with SpecError, not one
    quarantined cell at a time."""

    @pytest.mark.parametrize(
        "override",
        [
            {"alphas": ["x"]},
            {"alphas": [math.nan]},
            {"alphas": [math.inf]},
            {"alphas": [True]},
            {"alphas": [0]},
            {"cpes": [0.0]},
            {"h": [0]},
            {"h": [1.5]},
            {"windows": [0]},
            {"budgets": [-1]},
            {"cpes": [-math.inf]},
            {"seed": "x"},
            {"seed": -1},
            {"config": {"eps": "x"}},
            {"config": {"theta_cap": 0}},
            {"config": {"opt_lower_mode": "bogus"}},
            {"config": {"grid_mode": "nope"}},
            # Keys no cell reads: they would fork spec_key for nothing.
            {"config": {"singleton_rr_samples": "x"}},
            {"config": {"scalability_window": 0}},
            {"config": {"grid_mode": "paper"}},
            {"config": []},
            {"datasets": {"name": "epinions_syn"}},
            {"datasets": ["epinions_syn"]},
            {"alphas": 0.5},
            {"incentive_models": [["linear"]]},
            {"name": 5},
        ],
        ids=repr,
    )
    def test_malformed_spec_rejected(self, override):
        with pytest.raises(SpecError):
            GridSpec.from_dict({**SMOKE, **override})

    def test_spec_without_datasets_is_a_spec_error(self):
        with pytest.raises(SpecError, match="'datasets'"):
            GridSpec.from_dict({"name": "x"})

    @pytest.mark.parametrize("entry", [{"path": 3}, {"name": 5}, {"name": None}])
    def test_dataset_name_and_path_must_be_strings(self, entry):
        """An integer path would be opened as a file descriptor."""
        with pytest.raises(SpecError, match="must be a string"):
            GridSpec.from_dict({**SMOKE, "datasets": [entry]})

    @pytest.mark.parametrize("axis", ["algorithms", "alphas", "windows"])
    def test_empty_axis_rejected(self, axis):
        """An empty axis would leave no cell to check the others on."""
        with pytest.raises(SpecError, match="at least one value"):
            GridSpec.from_dict({**SMOKE, axis: []})

    def test_valid_axis_values_kept_as_spelled(self):
        """Validation never rewrites an axis: every value enters the
        cell id, and so the cell seed, exactly as the spec spells it."""
        spec = GridSpec.from_dict(
            {**SMOKE, "alphas": [1, 0.5], "h": [2.0, None], "budgets": [None, 40]}
        )
        assert spec.alphas == (1, 0.5)
        assert spec.h == (2.0, None)
        assert spec.budgets == (None, 40)


_SPEC_KEYS = (
    "name",
    "datasets",
    "algorithms",
    "h",
    "budgets",
    "cpes",
    "incentive_models",
    "alphas",
    "windows",
    "seed",
    "config",
    "execution",
    "mutations",
)


#: ``(block, key)`` pairs of the known keys inside the object-valued blocks.
_BLOCK_KEYS = (
    [("config", f.name) for f in dataclasses.fields(ExperimentConfig)]
    + [("execution", key) for key in ("mode", "cell_timeout_s", "max_retries",
                                      "retry_backoff_s")]
    + [("mutations", key) for key in ("batches", "edges_per_batch", "ops", "prob")]
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(_SPEC_KEYS), value=JSON_VALUES)
def test_any_json_value_on_any_axis_constructs_or_raises_spec_error(key, value):
    """Fuzz: whatever JSON lands on an axis, parsing either yields a
    spec or raises SpecError — never a bare TypeError or ValueError."""
    try:
        GridSpec.from_dict({**SMOKE, key: value})
    except SpecError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    overrides=st.dictionaries(st.sampled_from(_SPEC_KEYS), JSON_VALUES, max_size=3),
    dropped=st.sets(st.sampled_from(_SPEC_KEYS), max_size=3),
    entry=st.dictionaries(
        st.sampled_from(("name", "path", "n", "h")), JSON_VALUES, max_size=2
    ),
)
def test_any_json_spec_builds_or_raises_spec_error(overrides, dropped, entry):
    """Fuzz the whole parser: any keys missing, any JSON on several keys
    at once, and any JSON in a dataset entry."""
    data = {**SMOKE, "datasets": [{**SMOKE["datasets"][0], **entry}], **overrides}
    for key in dropped:
        data.pop(key, None)
    try:
        GridSpec.from_dict(data)
    except SpecError:
        pass


class TestEdgeListCells:
    def test_edge_list_dataset_entry(self, tmp_path):
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import save_edge_list

        graph = erdos_renyi(50, 0.08, seed=6)
        path = tmp_path / "el.txt"
        save_edge_list(graph, str(path))
        spec = GridSpec.from_dict(
            {
                "name": "el",
                "datasets": [
                    {
                        "path": str(path),
                        "name": "el",
                        "prob_model": "wc",
                        "h": 2,
                        "seed": 5,
                    }
                ],
                "algorithms": ["TI-CARM"],
                "alphas": [0.5],
                "config": {"eps": 1.0, "theta_cap": 100},
            }
        )
        rows1 = run_grid(spec, str(tmp_path / "m1.jsonl"))
        rows2 = run_grid(spec, str(tmp_path / "m2.jsonl"))
        assert [_strip(r) for r in rows1] == [_strip(r) for r in rows2]
        assert rows1[0]["dataset"] == "el"


    def test_registered_edge_list_entry_takes_list_options(self, tmp_path):
        """JSON arrays reach builder options such as ``cpe_choices``
        whether the entry names a path or a registered dataset."""
        from repro.experiments.datasets import (
            register_edge_list_dataset,
            unregister_dataset,
        )
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import save_edge_list

        path = tmp_path / "el.txt"
        save_edge_list(erdos_renyi(50, 0.08, seed=6), str(path))
        register_edge_list_dataset("el_registered", str(path), h=2, seed=5)
        try:
            entries = [
                {"name": "el_registered", "cpe_choices": [1.0, 2.0]},
                {"path": str(path), "h": 2, "seed": 5, "cpe_choices": [1.0, 2.0]},
            ]
            spec = GridSpec.from_dict(
                {"name": "el", "datasets": entries, "algorithms": ["TI-CARM"],
                 "alphas": [0.5], "config": {"eps": 1.0, "theta_cap": 100}}
            )
            rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        finally:
            unregister_dataset("el_registered")
        assert [row["kind"] for row in rows] == ["cell", "cell"]


#: Dataset entries no builder can turn into a dataset, with the typed
#: error each one quarantines its cells with.
UNBUILDABLE_ENTRIES = [
    ({"name": "nope_syn"}, "InstanceError", "nope_syn"),
    ({"path": "/nonexistent/edges.txt"}, "GraphError", "edges.txt"),
    ({"name": "epinions_syn", "bogus_kw": 3}, "SpecError", "bogus_kw"),
    ({"name": "epinions_syn", "n": 1}, "GraphError", "nodes"),
    ({"name": "epinions_syn", "n": "abc"}, "SpecError", "abc"),
    ({"name": "epinions_syn", "n": 100, "h": -3}, "InstanceError", "got -3"),
]


class TestUnbuildableEntries:
    def test_overflowing_cpe_cell_is_quarantined(self, tmp_path):
        """cpe · n overflows: the cell would otherwise report revenue inf."""
        spec = GridSpec.from_dict(
            {**SMOKE, "cpes": [1e308], "algorithms": ["TI-CSRM"], "alphas": [1.0]}
        )
        (row,) = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert (row["kind"], row["error_type"]) == ("cell_error", "InstanceError")

    @pytest.mark.parametrize("entry,error_type,names", UNBUILDABLE_ENTRIES)
    def test_cells_quarantine_with_a_typed_error(
        self, tmp_path, entry, error_type, names
    ):
        spec = GridSpec.from_dict(
            {**SMOKE, "datasets": [entry], "algorithms": ["TI-CARM"],
             "alphas": [1.0]}
        )
        (row,) = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert row["kind"] == "cell_error"
        assert row["error_type"] == error_type
        assert names in row["error"]


class TestGridCell:
    def test_params_include_all_axes(self):
        cell = GridCell(
            dataset={"name": "epinions_syn"},
            algorithm="TI-CSRM",
            h=5,
            budget=10.0,
            cpe=1.5,
            incentive_model="linear",
            alpha=0.5,
            window=100,
        )
        params = cell.params()
        assert params["dataset"] == "epinions_syn"
        assert params["h"] == 5 and params["window"] == 100
        assert len(cell.cell_id) == 16

    def test_cell_keeps_spelling_and_query_normalizes(self):
        """A cell's values enter its id, so it keeps them as spelled; a
        query, the same cell plus a seed, echoes them normalized."""
        from repro.serve.schema import QueryRequest

        cell = GridCell(dataset={"name": "epinions_syn"}, h=2.0, alpha=1)
        assert (cell.h, cell.alpha) == (2.0, 1)
        assert isinstance(cell.h, float) and isinstance(cell.alpha, int)
        query = QueryRequest(dataset={"name": "epinions_syn"}, h=2.0, alpha=1)
        assert isinstance(query, GridCell) and query.pool_key == cell.pool_key
        assert isinstance(query.h, int) and isinstance(query.alpha, float)

    def test_bad_axis_is_an_instance_error(self):
        with pytest.raises(InstanceError, match="alpha"):
            GridCell(dataset={"name": "epinions_syn"}, alpha=0)


@settings(max_examples=300, deadline=None)
@given(block_key=st.sampled_from(_BLOCK_KEYS), value=JSON_VALUES)
def test_any_json_value_in_any_block_constructs_or_raises_spec_error(
    block_key, value
):
    """The same, one level down: a known key of ``config``,
    ``execution`` or ``mutations`` set to any JSON value."""
    block, key = block_key
    try:
        GridSpec.from_dict({**SMOKE, block: {**SMOKE.get(block, {}), key: value}})
    except SpecError:
        pass
