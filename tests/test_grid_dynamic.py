"""Dynamic grid cells and edge-updated campaigns against hand-driven runs.

A dynamic cell (a spec with a ``mutations`` block) solves the market
left after its :func:`~repro.experiments.grid.cell_update_schedule`.
Cold, that must equal :func:`repro.solve` on the recompiled graph; warm,
it must equal an :class:`~repro.api.session.AllocationSession` primed
on the original graph and repaired batch by batch.  Campaigns with
``edge_updates`` apply the same batches with and without a session.
"""

import pytest

import repro
from repro.api.session import AllocationSession
from repro.core.adaptive import run_adaptive_campaign
from repro.core.instance import RMInstance
from repro.core.ti_engine import TIEngine
from repro.experiments.datasets import build_dataset
from repro.experiments.grid import (
    GridSpec,
    _cell_dataset,
    cell_update_schedule,
    run_grid,
)
from repro.graph.updates import compile_updates, random_update_schedule

ENTRY = {"name": "epinions_syn", "n": 120, "h": 2, "singleton_rr_samples": 400}
DYNAMIC = {
    "name": "dynamic",
    "datasets": [ENTRY],
    "algorithms": ["TI-CSRM"],
    "alphas": [0.5, 1.0],
    "windows": [None, 5],
    "seed": 11,
    "config": {"eps": 1.0, "theta_cap": 120},
    "mutations": {"batches": 2, "edges_per_batch": 6, "prob": 0.1},
}


@pytest.fixture
def engine_results(monkeypatch):
    """Every result a TIEngine returns, in run order."""
    results = []
    original = TIEngine.run

    def run(self):
        result = original(self)
        results.append(result)
        return result

    monkeypatch.setattr(TIEngine, "run", run)
    return results


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "runtime_s"}


def _cell_market(spec, cell):
    """The cell's instance on the unmutated graph, and its schedule."""
    dataset = _cell_dataset(cell.dataset, {})
    instance = dataset.build_instance(
        incentive_model=cell.incentive_model,
        alpha=cell.alpha,
        h=cell.h,
        budget_override=cell.budget,
        cpe_override=cell.cpe,
    )
    return instance, cell_update_schedule(spec, cell, dataset.graph)


def _cell_engine_spec(spec, cell, row):
    return spec.experiment_config().engine_spec(
        opt_lower="kpt", window=cell.window, seed=row["cell_seed"]
    )


def _assert_same_result(got, want):
    assert got.allocation.seed_sets() == want.allocation.seed_sets()
    assert got.revenue_per_ad == want.revenue_per_ad
    assert got.seeding_cost_per_ad == want.seeding_cost_per_ad


def test_dynamic_cold_cell_equals_solve_on_recompiled_graph(tmp_path, engine_results):
    spec = GridSpec.from_dict(DYNAMIC)
    rows = run_grid(spec, str(tmp_path / "m.jsonl"), execution="cold")
    ran = list(engine_results)
    assert len(ran) == len(rows) == 4
    for cell, row, got in zip(spec.cells(), rows, ran):
        instance, schedule = _cell_market(spec, cell)
        graph, probs = instance.graph, list(instance.ad_probs)
        for batch in schedule:
            plan = compile_updates(graph, batch)
            graph = plan.new_graph
            probs = [plan.apply_probs(p) for p in probs]
        final = RMInstance(graph, instance.advertisers, probs, instance.incentives)
        want = repro.solve(final, cell.algorithm, _cell_engine_spec(spec, cell, row))
        _assert_same_result(got, want)
        assert row["revenue"] == want.total_revenue
        assert row["seed_cost"] == want.total_seeding_cost
        assert row["seeds"] == want.total_seeds
        assert row["engine_spec"] == want.extras["engine_spec"]
        assert [report["mode"] for report in row["mutations"]["applied"]] == [
            "cold", "cold"
        ]
        assert row["mutations"]["warm_incremental"] is False
        assert "session" not in row


def test_dynamic_warm_cell_equals_hand_driven_session(tmp_path, engine_results):
    spec = GridSpec.from_dict(DYNAMIC)
    rows = run_grid(spec, str(tmp_path / "m.jsonl"), execution="warm_per_dataset")
    ran = list(engine_results)
    # Each warm dynamic cell primes its session, then solves once more.
    assert len(ran) == 2 * len(rows)
    config = spec.experiment_config()
    for index, (cell, row) in enumerate(zip(spec.cells(), rows)):
        instance, schedule = _cell_market(spec, cell)
        engine_spec = _cell_engine_spec(spec, cell, row)
        with AllocationSession(
            instance.graph, spec=config.engine_spec(opt_lower="kpt")
        ) as session:
            session.solve(instance, cell.algorithm, engine_spec)
            probs, reports = list(instance.ad_probs), []
            for batch in schedule:
                plan = compile_updates(session.graph, batch)
                reports.append(session.apply_edge_updates(batch))
                probs = [plan.apply_probs(p) for p in probs]
            final = RMInstance(
                session.graph, instance.advertisers, probs, instance.incentives
            )
            want = session.solve(final, cell.algorithm, engine_spec)
            stats = session.stats
        _assert_same_result(ran[2 * index + 1], want)
        assert row["revenue"] == want.total_revenue
        assert row["seed_cost"] == want.total_seeding_cost
        assert row["mutations"]["applied"] == reports
        assert row["mutations"]["warm_incremental"] is True
        for key in (
            "mutations", "invalidated_sets", "mutation_checked_sets",
            "invalidation_rate", "resample_batches", "graph_epoch",
            "sample_batches", "sets_sampled",
        ):
            assert row["session"][key] == stats[key], key


def test_dynamic_warm_cells_never_share_a_mutated_graph(tmp_path):
    """The second cell of a dataset group sees the unmutated graph: its
    row equals the row it gets when it runs alone."""
    two = GridSpec.from_dict({**DYNAMIC, "windows": [None]})
    rows = run_grid(two, str(tmp_path / "two.jsonl"), execution="warm_per_dataset")
    alone = GridSpec.from_dict({**DYNAMIC, "windows": [None], "alphas": [1.0]})
    (row,) = run_grid(
        alone, str(tmp_path / "one.jsonl"), execution="warm_per_dataset"
    )
    assert rows[1]["cell_id"] == row["cell_id"]
    assert _strip(rows[1]) == _strip(row)


@pytest.mark.parametrize("name,n,h", [("epinions_syn", 120, 2), ("flixster_syn", 100, 2)])
def test_campaign_edge_updates_cold_and_warm(name, n, h):
    dataset = build_dataset(name, n=n, h=h, singleton_rr_samples=400)
    instance = dataset.build_instance(alpha=1.0)
    schedule = random_update_schedule(
        dataset.graph, 3, batches=2, edges_per_batch=6
    )
    expected, graph = [], dataset.graph
    for batch in schedule:
        plan = compile_updates(graph, batch)
        expected.append(plan.summary())
        graph = plan.new_graph
    legs = {}
    for reuse in (False, True):
        result = run_adaptive_campaign(
            instance,
            n_windows=3,
            planner_kwargs={"eps": 1.0, "theta_cap": 120},
            seed=5,
            reuse_samples=reuse,
            edge_updates=schedule,
        )
        assert len(result.windows) == 3
        assert len(result.mutations) == len(schedule)
        legs[reuse] = result.mutations
    for cold, warm, summary in zip(legs[False], legs[True], expected):
        assert {key: cold[key] for key in summary} == summary
        assert {key: warm[key] for key in summary} == summary
        assert cold["mode"] == "cold"
        assert warm["invalidated_sets"] <= warm["checked_sets"]
